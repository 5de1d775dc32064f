"""Linear Leibniz-Dirac structures on R^n ⊕ R^n*.

A structure is an n-dimensional subspace L of the 2n-dimensional double
R^n ⊕ R^n*, stored in coordinates where the first n components are the vector
factor and the last n the covector factor (duals identified via the dot
product).  L qualifies when it satisfies at least one characteristic
equation:

    forward:   ann(proj_V(L))  = L ∩ V*
    backward:  ann(proj_V*(L)) = L ∩ V

Classification refines this with the pairing flags (dirac, symmetric_dirac,
separable), and structures can be converted to and from representations:
an (A, B) matrix pair with L = span{(A e_i, B e_i)}, or a carrier/map pair
(E, Ω) forward resp. (F, Π) backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (DegenerateRepresentationError, InputError,
                     NotLDStructureError, OrientationError, PreconditionError)
from .subspaces import (DEFAULT_TOLERANCE, Subspace, Tolerance, as_matrix,
                        complement_columns, numerical_rank,
                        orthonormal_columns)

__all__ = [
    "LDFlags",
    "LinearLD",
    "ABRep",
    "PairRep",
    "SplitPairing",
    "from_ab",
    "from_pair",
    "from_subspace",
    "to_pair",
    "classify",
    "classification_residuals",
    "split_pairing",
    "deform",
    "tangent_part",
    "cotangent_part",
]

Orientation = Literal["forward", "backward"]


@dataclass(frozen=True)
class LDFlags:
    """Classification flags of a linear LD structure."""

    forward: bool
    backward: bool
    dirac: bool
    symmetric_dirac: bool
    separable: bool


@dataclass(frozen=True)
class LinearLD:
    """A linear LD structure: its subspace plus cached classification flags.

    Attributes:
        n: dimension of the underlying vector factor; the ambient double has
            dimension 2n and the subspace has dimension n.
        space: the subspace of R^{2n}.
        flags: classification at the tolerance used during construction;
            recompute with :func:`classify` to use a different tolerance.
    """

    n: int
    space: Subspace
    flags: LDFlags

    def __post_init__(self):
        if self.n < 1:
            raise InputError("n must be at least 1")
        if self.space.ambient_dim != 2 * self.n:
            raise InputError("subspace ambient dimension must be 2n")
        if self.space.dim != self.n:
            raise InputError(
                f"an LD structure on R^{self.n} must have dimension "
                f"{self.n}, got {self.space.dim}")


@dataclass(frozen=True)
class ABRep:
    """Matrix-pair representation: L = span{(A e_i, B e_i) : i = 1..n}."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "a")
        b = as_matrix(self.b, "b")
        if a.shape != b.shape or a.shape[0] != a.shape[1]:
            raise InputError(
                f"a and b must be square with equal shape, got {a.shape} "
                f"and {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class PairRep:
    """Carrier/map representation of an oriented structure.

    Forward: carrier E ⊆ V with map Ω giving L = {(v, Ω v + μ) : v ∈ E,
    μ ∈ ann(E)}.  Backward: carrier F ⊆ V* with map Π giving
    L = {(Π η + w, η) : η ∈ F, w ∈ ann(F)}.  The map matrix is expressed in
    the carrier's orthonormal coordinates (k×k); components of the map's
    output outside the carrier are absorbed by the annihilator summand, so
    nothing is lost by the compression.
    """

    orientation: Orientation
    carrier: Subspace
    matrix: np.ndarray

    def __post_init__(self):
        if self.orientation not in ("forward", "backward"):
            raise InputError(f"unknown orientation {self.orientation!r}")
        m = as_matrix(self.matrix, "map matrix")
        k = self.carrier.dim
        if m.shape != (k, k):
            raise InputError(
                f"map matrix must be {k}x{k} for a {k}-dimensional carrier, "
                f"got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SplitPairing:
    """Gram matrix and signature of the split pairing adapted to a structure."""

    gram: np.ndarray
    signature: tuple[int, int]


def _halves(space: Subspace) -> tuple[np.ndarray, np.ndarray]:
    n = space.ambient_dim // 2
    return space.basis[:n, :], space.basis[n:, :]


def _meet(range_half: np.ndarray, other_half: np.ndarray,
          tol: Tolerance) -> np.ndarray:
    """Basis of L ∩ V* from (qv, qeta) or L ∩ V from (qeta, qv), orthonormal
    to within rank_eps ** 2: L's orthonormal basis makes other_half an
    isometry on ker(range_half), its rank cut at rank_eps in absolute terms."""
    _, s, vt = np.linalg.svd(range_half)
    return other_half @ vt[numerical_rank(s, tol.rank_eps, scale=1.0):].T


def classification_residuals(space: Subspace,
                             tol: Tolerance = DEFAULT_TOLERANCE) -> dict:
    """Numerical residuals of the characteristic equations and pairings.

    Returns a dict with keys forward, backward, dirac, symmetric_dirac and
    separable; a flag holds when its residual is at most tol.residual_eps.
    The forward residual measures how far L ∩ V* is from being orthogonal to
    proj_V(L) (equality of an inclusion whose dimensions already match when
    dim L = n), and symmetrically for backward.
    """
    if space.ambient_dim % 2 != 0:
        raise InputError("the double must have even dimension")
    qv, qeta = _halves(space)

    def equation_residual(range_half: np.ndarray,
                          other_half: np.ndarray) -> float:
        if space.dim == 0:
            return 0.0
        w = _meet(range_half, other_half, tol)
        if w.shape[1] == 0:
            # trivial intersection; the annihilator side must then be full
            # rank on range_half, which holds by dimension count.
            return 0.0
        return float(np.abs(range_half.T @ w).max())

    forward_res = equation_residual(qv, qeta)
    backward_res = equation_residual(qeta, qv)

    cross = qv.T @ qeta          # entries <eta_j | v_i> on basis columns
    dirac_res = float(np.abs(0.5 * (cross + cross.T)).max(initial=0.0))
    symmetric_res = float(np.abs(0.5 * (cross.T - cross)).max(initial=0.0))
    separable_res = float(np.abs(cross).max(initial=0.0))
    return {
        "forward": forward_res,
        "backward": backward_res,
        "dirac": dirac_res,
        "symmetric_dirac": symmetric_res,
        "separable": separable_res,
    }


def _flags_from_residuals(res: dict, tol: Tolerance) -> LDFlags:
    eps = tol.residual_eps
    return LDFlags(
        forward=res["forward"] <= eps,
        backward=res["backward"] <= eps,
        dirac=res["dirac"] <= eps,
        symmetric_dirac=res["symmetric_dirac"] <= eps,
        separable=res["separable"] <= eps,
    )


def classify(l: LinearLD, tol: Tolerance = DEFAULT_TOLERANCE) -> LDFlags:
    """Recompute the classification flags of ``l`` at the given tolerance."""
    return _flags_from_residuals(classification_residuals(l.space, tol), tol)


def from_subspace(space: Subspace, tol: Tolerance = DEFAULT_TOLERANCE) -> LinearLD:
    """Validate an n-dimensional subspace of R^{2n} as an LD structure.

    Raises NotLDStructureError when neither characteristic equation holds at
    the tolerance.
    """
    if space.ambient_dim % 2 != 0:
        raise InputError("the double must have even dimension")
    n = space.ambient_dim // 2
    if space.dim != n:
        raise InputError(
            f"an LD structure on R^{n} must have dimension {n}, "
            f"got {space.dim}")
    res = classification_residuals(space, tol)
    flags = _flags_from_residuals(res, tol)
    if not (flags.forward or flags.backward):
        raise NotLDStructureError(
            "subspace satisfies neither characteristic equation "
            f"(forward residual {res['forward']:.3e}, backward residual "
            f"{res['backward']:.3e} > {tol.residual_eps:.1e})",
            forward_residual=res["forward"],
            backward_residual=res["backward"])
    return LinearLD(n, space, flags)


def from_ab(rep: ABRep, tol: Tolerance = DEFAULT_TOLERANCE) -> LinearLD:
    """Build a structure from an (A, B) matrix pair.

    Raises DegenerateRepresentationError when ker A ∩ ker B != {0} (the span
    then has dimension < n) and NotLDStructureError when the span satisfies
    neither characteristic equation.
    """
    stacked = np.vstack([rep.a, rep.b])
    basis = orthonormal_columns(stacked, tol.rank_eps)
    rank = basis.shape[1]
    if rank < rep.n:
        raise DegenerateRepresentationError(
            f"degenerate representation: ker A ∩ ker B has dimension "
            f"{rep.n - rank}; the pair spans only a {rank}-dimensional "
            f"subspace")
    return from_subspace(Subspace(2 * rep.n, basis), tol)


def from_pair(rep: PairRep, tol: Tolerance = DEFAULT_TOLERANCE) -> LinearLD:
    """Build a structure from a carrier/map pair.

    Forward (E, Ω): L = {(v, Ω v + μ) : v ∈ E, μ ∈ ann(E)}; backward (F, Π):
    L = {(Π η + w, η) : η ∈ F, w ∈ ann(F)}.  The result always carries the
    requested orientation flag.
    """
    n = rep.carrier.ambient_dim
    k = rep.carrier.dim
    qc = rep.carrier.basis
    qa = complement_columns(qc, k)
    mapped = qc @ rep.matrix
    if rep.orientation == "forward":
        top = np.hstack([qc, np.zeros((n, n - k))])
        bottom = np.hstack([mapped, qa])
    else:
        top = np.hstack([mapped, qa])
        bottom = np.hstack([qc, np.zeros((n, n - k))])
    space = Subspace(2 * n, orthonormal_columns(np.vstack([top, bottom]),
                                                tol.rank_eps))
    ld = from_subspace(space, tol)
    want = ld.flags.forward if rep.orientation == "forward" else ld.flags.backward
    if not want:
        # cannot happen for exact arithmetic; guards against pathological input
        raise NotLDStructureError(
            f"pair construction lost the {rep.orientation} property")
    return ld


def to_pair(l: LinearLD, orientation: Orientation,
            tol: Tolerance = DEFAULT_TOLERANCE) -> PairRep:
    """Extract the carrier/map representation in the requested orientation.

    Raises OrientationError when ``l`` does not carry that orientation flag.
    """
    if orientation == "forward":
        if not l.flags.forward:
            raise OrientationError(
                "structure is not forward; no (carrier, map) representation "
                "with a vector-space carrier exists")
        range_half, other_half = _halves(l.space)
    elif orientation == "backward":
        if not l.flags.backward:
            raise OrientationError(
                "structure is not backward; no (carrier, map) representation "
                "with a covector-space carrier exists")
        other_half, range_half = _halves(l.space)
    else:
        raise InputError(f"unknown orientation {orientation!r}")

    # range_half = U S Vᵀ maps the combination v_i / s_i to carrier vector u_i
    u, s, vt = np.linalg.svd(range_half)
    rank = numerical_rank(s, tol.rank_eps, scale=1.0)
    if rank == 0:
        return PairRep(orientation, Subspace.zero(l.n), np.zeros((0, 0)))
    matrix = u[:, :rank].T @ (other_half @ (vt[:rank].T / s[:rank]))
    return PairRep(orientation, Subspace(l.n, u[:, :rank]), matrix)


def split_pairing(l: LinearLD, orientation: Orientation,
                  tol: Tolerance = DEFAULT_TOLERANCE) -> SplitPairing:
    """Gram matrix of the split pairing adapted to ``l`` on R^{2n}.

    Forward: <<x1, x2>> = <eta1|v2> + <eta2|v1> - 2 Psi(v1, v2) with Psi the
    symmetrized quadratic form of the (zero-extended) carrier map; backward
    replaces Psi by the analogous form Phi on covectors.  The structure is
    isotropic for the returned Gram matrix, and the signature is (n, n).
    """
    rep = to_pair(l, orientation, tol)
    n = l.n
    qc = rep.carrier.basis
    extended = qc @ rep.matrix @ qc.T
    sym = 0.5 * (extended + extended.T)
    gram = np.zeros((2 * n, 2 * n))
    gram[:n, n:] = gram[n:, :n] = np.eye(n)
    half = slice(None, n) if orientation == "forward" else slice(n, None)
    gram[half, half] = -2.0 * sym
    eigs = np.linalg.eigvalsh(gram)
    cutoff = tol.rank_eps * float(np.abs(eigs).max())
    pos = int(np.count_nonzero(eigs > cutoff))
    neg = int(np.count_nonzero(eigs < -cutoff))
    return SplitPairing(gram, (pos, neg))


def deform(l: LinearLD, form, direction: Orientation,
           tol: Tolerance = DEFAULT_TOLERANCE) -> LinearLD:
    """Deform a Dirac structure by a symmetric bilinear form.

    direction "forward" shears covectors, (v, η) -> (v, η + ψ v), and yields
    a forward structure; "backward" shears vectors, (v, η) -> (v + φ η, η),
    and yields a backward structure.  The zero form returns ``l`` unchanged
    as a subspace.
    """
    if direction not in ("forward", "backward"):
        raise InputError(f"unknown direction {direction!r}")
    if not l.flags.dirac:
        raise PreconditionError("deformation requires a Dirac structure")
    psi = as_matrix(form, "form")
    if psi.shape != (l.n, l.n):
        raise InputError(f"form must be {l.n}x{l.n}, got {psi.shape}")
    scale = max(1.0, float(np.abs(psi).max()))
    if float(np.abs(psi - psi.T).max()) > tol.residual_eps * scale:
        raise InputError("form must be symmetric")
    qv, qeta = _halves(l.space)
    if direction == "forward":
        stacked = np.vstack([qv, qeta + psi @ qv])
    else:
        stacked = np.vstack([qv + psi @ qeta, qeta])
    space = Subspace(2 * l.n, orthonormal_columns(stacked, tol.rank_eps))
    return from_subspace(space, tol)


def tangent_part(l: LinearLD, tol: Tolerance = DEFAULT_TOLERANCE) -> Subspace:
    """L ∩ V as a subspace of R^n (vectors paired with the zero covector)."""
    qv, qeta = _halves(l.space)
    return Subspace(l.n, orthonormal_columns(_meet(qeta, qv, tol),
                                             tol.rank_eps))


def cotangent_part(l: LinearLD, tol: Tolerance = DEFAULT_TOLERANCE) -> Subspace:
    """L ∩ V* as a subspace of R^n (covectors paired with the zero vector)."""
    qv, qeta = _halves(l.space)
    return Subspace(l.n, orthonormal_columns(_meet(qv, qeta, tol),
                                             tol.rank_eps))
