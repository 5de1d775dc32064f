"""Pointwise LD structures on R^n: tensor fields, brackets, regularity.

A field-level structure is a pair of smooth maps: a Poisson-like tensor
Pi(x) (n×n) and a constraint-force matrix G(x) (n×k, full column rank on the
working domain).  At each point it induces a backward linear structure with
carrier F(x) = ker(G(x)^T), and on admissible functions (those whose
differential lies in F(x)) a generally non-skew bracket

    {{f, g}}(x) = <dg(x) | Pi(x) df(x)>

whose skew and symmetric parts come from the matrix split of Pi(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import AdmissibilityError, InputError, RegularityError
from .linear import LinearLD, PairRep, from_pair
from .numdiff import central_gradient
from .subspaces import (DEFAULT_TOLERANCE, Subspace, as_matrix, as_vector,
                        complement_columns, float_rule, numerical_rank,
                        sym_skew)

__all__ = [
    "ScalarField",
    "TensorField",
    "ConstraintField",
    "LDField",
    "BracketValue",
    "RegularityReport",
    "carrier_at",
    "pointwise",
    "bracket",
    "regularity_scan",
]


def _rank(g: np.ndarray) -> int:
    """The numerical rank of a constraint-force matrix G(x)."""
    return numerical_rank(np.linalg.svd(g, compute_uv=False),
                          DEFAULT_TOLERANCE.rank_eps)


def _checked(value, shape: tuple, label: str, point) -> np.ndarray:
    """A user callable's result as a float array of ``shape``, all finite."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise InputError(
            f"{label} returned shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{label} has non-finite entries at {point}")
    return arr


class _Constant:
    """The ``evaluate`` of a constant field: one read-only matrix at every
    point.  The integrator recognises it as Pi and reads the matrix once per
    run; a field whose ``evaluate`` is replaced is evaluated per call
    again."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix.copy()
        self.matrix.setflags(write=False)

    def __call__(self, x) -> np.ndarray:
        return self.matrix


@dataclass(frozen=True)
class ScalarField:
    """A scalar function on R^n with an optional analytic gradient.

    When no gradient callable is supplied, ``grad`` falls back to central
    differences with step 1e-6 * max(1, |x|).
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None

    @float_rule
    def __call__(self, x) -> float:
        point = as_vector(x, self.dim, "point")
        return float(_checked(self.value(point), (), "scalar field", point))

    @float_rule
    def grad(self, x) -> np.ndarray:
        point = as_vector(x, self.dim, "point")
        if self.gradient is not None:
            g = self.gradient(point)
        else:
            g = central_gradient(self, point)
        return _checked(g, (self.dim,), "gradient", point)

    @float_rule
    def check_gradient(self, points: Sequence) -> None:
        """Validate the analytic gradient against central differences.

        No-op when there is no analytic gradient.  Raises InputError when a
        probe point disagrees beyond 1e-4 relative to max(1, |fd|).
        """
        if self.gradient is None:
            return
        for p in points:
            point = as_vector(p, self.dim, "probe point")
            fd = central_gradient(self, point)
            analytic = self.grad(point)
            scale = max(1.0, float(np.abs(fd).max(initial=0.0)))
            err = float(np.abs(analytic - fd).max(initial=0.0))
            if err > 1e-4 * scale:
                raise InputError(
                    f"analytic gradient disagrees with finite differences at "
                    f"{point}: max deviation {err:.3e}")


@dataclass(frozen=True)
class TensorField:
    """A matrix-valued map x -> Pi(x) of fixed square shape (dim, dim)."""

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]

    @float_rule
    def __call__(self, x) -> np.ndarray:
        point = as_vector(x, self.dim, "point")
        return _checked(self.evaluate(point), (self.dim, self.dim),
                        "tensor field", point)

    @classmethod
    def constant(cls, matrix) -> "TensorField":
        """The field x -> ``matrix`` (a read-only copy).  :func:`simulate`
        and :func:`oracle_simulate` check it once at set-up and do not
        evaluate it per step."""
        m = as_matrix(matrix, "tensor")
        if m.shape[0] != m.shape[1]:
            raise InputError(f"constant tensor must be square, got {m.shape}")
        return cls(m.shape[0], _Constant(m))


@dataclass(frozen=True)
class ConstraintField:
    """A constraint-force map x -> G(x) of shape (dim, k).

    ``__call__`` enforces full column rank (the regular case); ``matrix``
    returns the raw value so rank drops can be observed by the scan.
    """

    dim: int
    k: int
    evaluate: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.k < 0 or self.dim < 1 or self.k > self.dim:
            raise InputError("constraint field needs dim >= 1, 0 <= k <= dim")
        if self.k > 0 and self.evaluate is None:
            raise InputError("constraint field with k > 0 needs a callable")

    @float_rule
    def matrix(self, x) -> np.ndarray:
        point = as_vector(x, self.dim, "point")
        if self.k == 0:
            return np.zeros((self.dim, 0))
        return _checked(self.evaluate(point), (self.dim, self.k),
                        "constraint field", point)

    @float_rule
    def __call__(self, x) -> np.ndarray:
        m = self.matrix(x)
        if self.k and _rank(m) < self.k:
            raise RegularityError(
                f"constraint-force matrix drops rank at {np.asarray(x)}")
        return m

    @classmethod
    def none(cls, dim: int) -> "ConstraintField":
        """The empty constraint (k = 0)."""
        return cls(dim, 0, None)

    @classmethod
    def constant(cls, matrix) -> "ConstraintField":
        """The field x -> ``matrix`` (a read-only copy)."""
        m = as_matrix(matrix, "constraint matrix")
        return cls(m.shape[0], m.shape[1], _Constant(m))


@dataclass(frozen=True)
class LDField:
    """A pointwise LD structure: tensor field Pi plus constraint forces G."""

    pi: TensorField
    forces: ConstraintField

    def __post_init__(self):
        if self.pi.dim != self.forces.dim:
            raise InputError(
                f"tensor dimension {self.pi.dim} does not match constraint "
                f"dimension {self.forces.dim}")

    @property
    def n(self) -> int:
        return self.pi.dim

    @property
    def k(self) -> int:
        return self.forces.k


class BracketValue(NamedTuple):
    """Bracket evaluation split as full = skew + sym (exact by construction)."""

    full: float
    skew: float
    sym: float


@dataclass(frozen=True)
class RegularityReport:
    """Ranks of G(x) and of the admissible codistribution over a sample set."""

    g_ranks: tuple[int, ...]
    codistribution_ranks: tuple[int, ...]
    jumps: tuple[int, ...]

    @property
    def constant_rank(self) -> bool:
        return not self.jumps


@float_rule
def carrier_at(field: LDField, x) -> Subspace:
    """The admissible codistribution F(x) = ker(G(x)^T) = ann(Im G(x))."""
    g = field.forces(x)
    return Subspace._trusted(field.n, complement_columns(g, field.k))


@float_rule
def pointwise(field: LDField, x) -> LinearLD:
    """The linear LD structure induced at a point.

    Built as the backward pair on carrier F(x) = ker(G(x)^T) with map the
    compression of Pi(x) to the carrier; the discarded components of Pi(x)
    land in Im G(x), which the construction's annihilator summand absorbs.
    Raises RegularityError when G(x) drops rank, and InputError when the
    compression of a finite Pi(x) overflows.
    """
    carrier = carrier_at(field, x)
    qf = carrier.basis
    compressed = qf.T @ field.pi(x) @ qf
    return from_pair(PairRep("backward", carrier, compressed))


def _admissibility_check(field: LDField, g_matrix: np.ndarray,
                         df: np.ndarray) -> None:
    # df and G's columns over their largest entries: no norm over/underflows
    if field.k == 0:
        return
    peak = float(np.abs(df).max(initial=0.0))
    if peak == 0.0:
        return
    unit = df / peak
    peaks = np.abs(g_matrix).max(axis=0)
    cols = g_matrix / np.where(peaks == 0.0, 1.0, peaks)
    norms = np.linalg.norm(cols, axis=0)
    norms[norms == 0.0] = 1.0
    violations = np.abs(cols.T @ unit) / (norms * np.linalg.norm(unit))
    worst = int(np.argmax(violations))
    if violations[worst] > DEFAULT_TOLERANCE.residual_eps:
        raise AdmissibilityError(
            f"differential of the first argument is not admissible: "
            f"constraint component {worst} has residual "
            f"{violations[worst]:.3e} > "
            f"{DEFAULT_TOLERANCE.residual_eps:.1e}",
            component=worst,
            residual=float(violations[worst]))


@float_rule
def bracket(field: LDField, f: ScalarField, g: ScalarField, x) -> BracketValue:
    """Evaluate {{f, g}}(x) = <df | Pi(x) dg> with its skew/sym split.

    The orientation is the one under which the coordinate tables of the
    canonical examples come out right ({{q, p}} = +1 for the canonical
    Poisson tensor) and the flow identity zdot_i = {{z_i, H}} reproduces
    Pi grad H.  Its cutoffs are ``DEFAULT_TOLERANCE``'s (tolerance
    arguments belong to the subspace and linear layers and to
    ``load_structure_spec``): G(x) must have full rank, its k-th singular
    value above 1e-9 times the largest (else RegularityError), and df(x)
    must be admissible, |G_i(x) . df(x)| <= 1e-8 |G_i(x)| |df(x)| for each
    column G_i (else AdmissibilityError naming the worst i).  For a
    coordinate table of Pi off the constraint, pass the unconstrained
    field ``LDField(field.pi, ConstraintField.none(field.n))``.  The
    split is Pi/2 ± Pi^T/2, finite for a finite Pi, with the sym(Pi) of
    ``energy_rate``; the triple satisfies full = skew + sym exactly.
    Raises InputError when a part or their sum overflows.
    """
    point = as_vector(x, field.n, "point")
    df = f.grad(point)
    dg = g.grad(point)
    _admissibility_check(field, field.forces(point), df)
    sym_m, skew_m = sym_skew(field.pi(point))
    skew = float(df @ (skew_m @ dg))
    sym = float(df @ (sym_m @ dg))
    full = float(_checked(skew + sym, (), "the bracket", point))
    return BracketValue(full=full, skew=skew, sym=sym)


@float_rule
def regularity_scan(field: LDField, samples) -> RegularityReport:
    """Ranks of G and of the codistribution across sample points.

    Uses the raw (unchecked) constraint matrix so rank drops are observed
    rather than raised; a sample is flagged as a jump when its G-rank differs
    from the modal rank of the scan.
    """
    pts = [as_vector(p, field.n, "sample") for p in np.atleast_2d(np.asarray(samples, dtype=float))]
    if not pts:
        raise InputError("regularity_scan needs at least one sample")
    g_ranks = [_rank(field.forces.matrix(p)) for p in pts]
    counts = {r: g_ranks.count(r) for r in set(g_ranks)}
    modal = max(counts, key=lambda r: (counts[r], -r))
    jumps = tuple(i for i, r in enumerate(g_ranks) if r != modal)
    co_ranks = tuple(field.n - r for r in g_ranks)
    return RegularityReport(tuple(g_ranks), co_ranks, jumps)
