"""Exception hierarchy for ldkit.

All library errors derive from :class:`LDKitError` so callers can catch one
type; the command line maps the concrete classes onto stable exit codes.
"""

from __future__ import annotations

__all__ = [
    "LDKitError",
    "InputError",
    "DegenerateRepresentationError",
    "NotLDStructureError",
    "PreconditionError",
    "OrientationError",
    "RegularityError",
    "AdmissibilityError",
    "ConsistencyError",
    "DegenerateMultiplierError",
    "StepFailureError",
    "SpecFormatError",
]


class LDKitError(Exception):
    """Base class for all ldkit errors."""


class InputError(LDKitError):
    """Malformed input: bad shapes, non-finite entries, invalid options."""


class DegenerateRepresentationError(InputError):
    """An (A, B) pair with ker A ∩ ker B != {0}; the span has dimension < n."""


class NotLDStructureError(LDKitError):
    """A subspace satisfying neither characteristic equation.

    Carries the numerical residuals of both equations so callers can report
    how far the input is from either orientation.
    """

    def __init__(self, message: str, forward_residual: float = float("nan"),
                 backward_residual: float = float("nan")):
        super().__init__(message)
        self.forward_residual = forward_residual
        self.backward_residual = backward_residual


class PreconditionError(LDKitError):
    """An operation applied to a structure that lacks a required property."""


class OrientationError(LDKitError):
    """A representation was requested in an orientation the structure lacks."""


class RegularityError(LDKitError):
    """A constraint-force matrix dropped rank where full rank is required."""


class AdmissibilityError(LDKitError):
    """A bracket argument whose differential is not admissible at the point.

    ``component`` is the index of the constraint column with the largest
    violation; ``residual`` is that violation.
    """

    def __init__(self, message: str, component: int, residual: float):
        super().__init__(message)
        self.component = component
        self.residual = residual


class ConsistencyError(LDKitError):
    """An initial state outside the consistency set chi_c."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class DegenerateMultiplierError(LDKitError):
    """The multiplier system J·G is singular and inconsistent at a state."""

    def __init__(self, message: str, ls_residual: float = float("nan")):
        super().__init__(message)
        self.ls_residual = ls_residual


class StepFailureError(LDKitError):
    """Integration failed mid-run.

    Carries the last accepted time and state plus the partial trajectory up
    to that point; ``partial`` always holds at least the initial sample.
    """

    def __init__(self, message: str, time: float, state, partial):
        super().__init__(message)
        self.time = time
        self.state = state
        self.partial = partial


class SpecFormatError(LDKitError):
    """A structure-spec, system-spec, or trajectory file failed to parse."""
