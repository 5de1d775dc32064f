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
from .subspaces import (DEFAULT_TOLERANCE, Subspace, Tolerance, as_matrix,
                        as_vector, complement_columns, numerical_rank)

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


def _checked(value, shape: tuple, label: str, point) -> np.ndarray:
    """A user callable's result as a float array of ``shape``, all finite."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise InputError(
            f"{label} returned shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{label} has non-finite entries at {point}")
    return arr


@dataclass(frozen=True)
class ScalarField:
    """A scalar function on R^n with an optional analytic gradient.

    When no gradient callable is supplied, ``grad`` falls back to central
    differences with step 1e-6 * max(1, |x|).
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x) -> float:
        point = as_vector(x, self.dim, "point")
        return float(_checked(self.value(point), (), "scalar field", point))

    def grad(self, x) -> np.ndarray:
        point = as_vector(x, self.dim, "point")
        if self.gradient is not None:
            g = self.gradient(point)
        else:
            g = central_gradient(self, point)
        return _checked(g, (self.dim,), "gradient", point)

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

    def __call__(self, x) -> np.ndarray:
        point = as_vector(x, self.dim, "point")
        return _checked(self.evaluate(point), (self.dim, self.dim),
                        "tensor field", point)

    @classmethod
    def constant(cls, matrix) -> "TensorField":
        m = as_matrix(matrix, "tensor")
        if m.shape[0] != m.shape[1]:
            raise InputError(f"constant tensor must be square, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        return cls(m.shape[0], lambda x: m)


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

    def matrix(self, x) -> np.ndarray:
        point = as_vector(x, self.dim, "point")
        if self.k == 0:
            return np.zeros((self.dim, 0))
        return _checked(self.evaluate(point), (self.dim, self.k),
                        "constraint field", point)

    def __call__(self, x, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
        m = self.matrix(x)
        if self.k:
            s = np.linalg.svd(m, compute_uv=False)
            if numerical_rank(s, tol.rank_eps) < self.k:
                raise RegularityError(
                    f"constraint-force matrix drops rank at {np.asarray(x)}")
        return m

    @classmethod
    def none(cls, dim: int) -> "ConstraintField":
        """The empty constraint (k = 0)."""
        return cls(dim, 0, None)

    @classmethod
    def constant(cls, matrix) -> "ConstraintField":
        m = as_matrix(matrix, "constraint matrix")
        m = m.copy()
        m.setflags(write=False)
        return cls(m.shape[0], m.shape[1], lambda x: m)


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


def carrier_at(field: LDField, x, tol: Tolerance = DEFAULT_TOLERANCE) -> Subspace:
    """The admissible codistribution F(x) = ker(G(x)^T) = ann(Im G(x))."""
    g = field.forces(x, tol)
    return Subspace(field.n, complement_columns(g, field.k))


def pointwise(field: LDField, x, tol: Tolerance = DEFAULT_TOLERANCE) -> LinearLD:
    """The linear LD structure induced at a point.

    Built as the backward pair on carrier F(x) = ker(G(x)^T) with map the
    compression of Pi(x) to the carrier; the discarded components of Pi(x)
    land in Im G(x), which the construction's annihilator summand absorbs.
    Raises RegularityError when G(x) drops rank.
    """
    carrier = carrier_at(field, x, tol)
    qf = carrier.basis
    compressed = qf.T @ field.pi(x) @ qf
    return from_pair(PairRep("backward", carrier, compressed), tol)


def _admissibility_check(field: LDField, g_matrix: np.ndarray, df: np.ndarray,
                         tol: Tolerance, label: str) -> None:
    if field.k == 0:
        return
    scale = float(np.linalg.norm(df))
    if scale == 0.0:
        return
    norms = np.linalg.norm(g_matrix, axis=0)
    norms[norms == 0.0] = 1.0
    violations = np.abs(g_matrix.T @ df) / (norms * scale)
    worst = int(np.argmax(violations))
    if violations[worst] > tol.residual_eps:
        raise AdmissibilityError(
            f"differential of {label} is not admissible: constraint "
            f"component {worst} has residual {violations[worst]:.3e} "
            f"> {tol.residual_eps:.1e}",
            component=worst,
            residual=float(violations[worst]))


def bracket(field: LDField, f: ScalarField, g: ScalarField, x,
            tol: Tolerance = DEFAULT_TOLERANCE,
            check_admissibility: bool = True) -> BracketValue:
    """Evaluate {{f, g}}(x) = <df | Pi(x) dg> with its skew/sym split.

    The orientation is the one under which the coordinate tables of the
    canonical examples come out right ({{q, p}} = +1 for the canonical
    Poisson tensor) and the flow identity zdot_i = {{z_i, H}} reproduces
    Pi grad H.  Requires df(x) admissible, i.e. G(x)^T df(x) = 0 within
    tolerance; violation raises AdmissibilityError naming the worst
    constraint component.  ``check_admissibility=False`` skips that gate for
    formal coordinate tabulations.  The returned triple satisfies
    full = skew + sym exactly.
    """
    point = as_vector(x, field.n, "point")
    df = f.grad(point)
    dg = g.grad(point)
    g_matrix = field.forces(point, tol)
    if check_admissibility:
        _admissibility_check(field, g_matrix, df, tol, "the first argument")
    pi = field.pi(point)
    sym_m = 0.5 * (pi + pi.T)
    skew_m = 0.5 * (pi - pi.T)
    skew = float(df @ (skew_m @ dg))
    sym = float(df @ (sym_m @ dg))
    return BracketValue(full=skew + sym, skew=skew, sym=sym)


def regularity_scan(field: LDField, samples) -> RegularityReport:
    """Ranks of G and of the codistribution across sample points.

    Uses the raw (unchecked) constraint matrix so rank drops are observed
    rather than raised; a sample is flagged as a jump when its G-rank differs
    from the modal rank of the scan.
    """
    pts = [as_vector(p, field.n, "sample") for p in np.atleast_2d(np.asarray(samples, dtype=float))]
    if not pts:
        raise InputError("regularity_scan needs at least one sample")
    g_ranks = []
    for p in pts:
        s = np.linalg.svd(field.forces.matrix(p), compute_uv=False)
        g_ranks.append(numerical_rank(s, DEFAULT_TOLERANCE.rank_eps))
    counts = {r: g_ranks.count(r) for r in set(g_ranks)}
    modal = max(counts, key=lambda r: (counts[r], -r))
    jumps = tuple(i for i, r in enumerate(g_ranks) if r != modal)
    co_ranks = tuple(field.n - r for r in g_ranks)
    return RegularityReport(tuple(g_ranks), co_ranks, jumps)
