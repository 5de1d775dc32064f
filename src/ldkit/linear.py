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

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Literal

import numpy as np

from .errors import (DegenerateRepresentationError, InputError,
                     NotLDStructureError, OrientationError, PreconditionError)
from .subspaces import (DEFAULT_TOLERANCE, Subspace, Tolerance, as_matrix,
                        complement_columns, float_rule, is_symmetric,
                        numerical_rank, orthonormal_columns, sym_part,
                        sym_skew)

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
    """A linear LD structure: an n-dimensional subspace of R^{2n}, n >= 1,
    classified once by :func:`classification_residuals` at ``tol``;
    ``dataclasses.replace(l, tol=t)`` classifies it again at ``t``.

    Attributes:
        space: the subspace of R^{2n}.
        tol: the tolerance of the classification; every result derived
            from the structure (``to_pair``, ``split_pairing``, ``deform``,
            ``tangent_part``, ``cotangent_part``) decides at it.
        n: dimension of the underlying vector factor.
        residuals: the five residuals, keyed by the ``LDFlags`` names;
            read-only.
        flags: each residual at most ``tol.residual_eps``.

    The classification's SVD of each half of the basis is kept, read-only,
    so that the results derived from the structure factor nothing again.
    A pickled or copied structure is classified again from its ``space``
    and ``tol``, which gives the same residuals and factors.

    Raises NotLDStructureError when neither characteristic equation holds.
    """

    space: Subspace
    tol: Tolerance = DEFAULT_TOLERANCE
    n: int = field(init=False)
    residuals: Mapping[str, float] = field(init=False)
    flags: LDFlags = field(init=False)
    _svd: Mapping[str, tuple] = field(init=False, repr=False, compare=False)

    @float_rule
    def __post_init__(self):
        n, odd = divmod(self.space.ambient_dim, 2)
        if odd or n < 1:
            raise InputError("subspace ambient dimension must be 2n, n >= 1")
        if self.space.dim != n:
            raise InputError(f"an LD structure on R^{n} must have dimension "
                             f"{n}, got {self.space.dim}")
        res, svd = _classify(self.space, self.tol)
        res = MappingProxyType(res)
        eps = self.tol.residual_eps
        flags = LDFlags(**{name: value <= eps for name, value in res.items()})
        if not (flags.forward or flags.backward):
            raise NotLDStructureError(
                "subspace satisfies neither characteristic equation "
                f"(forward residual {res['forward']:.3e}, backward residual "
                f"{res['backward']:.3e} > {eps:.1e})",
                forward_residual=res["forward"],
                backward_residual=res["backward"])
        for factors in svd.values():
            for array in factors:
                array.setflags(write=False)
        for name, value in (("n", n), ("residuals", res), ("flags", flags),
                            ("_svd", MappingProxyType(svd))):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return LinearLD, (self.space, self.tol)


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


def _oriented(orientation: Orientation, vector_part, covector_part) -> tuple:
    """(range part, other part) from (vector part, covector part), and back:
    a forward structure's range lies in V, a backward one's in V*."""
    if orientation == "forward":
        return vector_part, covector_part
    return covector_part, vector_part


def _halves(space: Subspace, orientation: Orientation) -> tuple:
    """(range half, other half) of the rows of L's orthonormal basis."""
    n = space.ambient_dim // 2
    return _oriented(orientation, space.basis[:n, :], space.basis[n:, :])


def _meet(svd: tuple, other_half: np.ndarray, rank_eps: float) -> np.ndarray:
    """Basis of L ∩ V* from the forward halves or L ∩ V from the backward
    ones, given the SVD of the range half, orthonormal to within
    rank_eps ** 2: L's orthonormal basis makes other_half an isometry on
    ker(range_half), its rank cut at rank_eps in absolute terms."""
    _, s, vt = svd
    return other_half @ vt[numerical_rank(s, rank_eps, scale=1.0):].T


def _classify(space: Subspace, tol: Tolerance) -> tuple[dict, dict]:
    """The residuals of :func:`classification_residuals`, and the SVD
    (u, s, vt) of each orientation's range half, by orientation (none for
    the zero subspace)."""
    if space.ambient_dim % 2 != 0:
        raise InputError("the double must have even dimension")
    factors = {}

    def equation_residual(orientation: Orientation) -> float:
        if space.dim == 0:
            return 0.0
        range_half, other_half = _halves(space, orientation)
        svd = np.linalg.svd(range_half)
        factors[orientation] = svd
        w = _meet(svd, other_half, tol.rank_eps)
        if w.shape[1] == 0:
            # trivial intersection; the annihilator side must then be full
            # rank on range_half, which holds by dimension count.
            return 0.0
        return float(np.abs(range_half.T @ w).max())

    forward_res = equation_residual("forward")
    backward_res = equation_residual("backward")

    qv, qeta = _halves(space, "forward")
    cross = qv.T @ qeta          # entries <eta_j | v_i> on basis columns
    sym, skew = sym_skew(cross)
    dirac_res = float(np.abs(sym).max(initial=0.0))
    symmetric_res = float(np.abs(skew).max(initial=0.0))
    separable_res = float(np.abs(cross).max(initial=0.0))
    return {
        "forward": forward_res,
        "backward": backward_res,
        "dirac": dirac_res,
        "symmetric_dirac": symmetric_res,
        "separable": separable_res,
    }, factors


@float_rule
def classification_residuals(space: Subspace,
                             tol: Tolerance = DEFAULT_TOLERANCE) -> dict:
    """Numerical residuals of the characteristic equations and pairings.

    Returns a dict with keys forward, backward, dirac, symmetric_dirac and
    separable; a flag holds when its residual is at most tol.residual_eps.
    The forward residual measures how far L ∩ V* is from being orthogonal to
    proj_V(L) (equality of an inclusion whose dimensions already match when
    dim L = n), and symmetrically for backward.
    """
    return _classify(space, tol)[0]


@float_rule
def from_subspace(space: Subspace, tol: Tolerance = DEFAULT_TOLERANCE) -> LinearLD:
    """``LinearLD(space, tol)``: ``space`` as an LD structure classified at
    ``tol``, or NotLDStructureError when neither equation holds there."""
    return LinearLD(space, tol)


@float_rule
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
    return LinearLD(Subspace._trusted(2 * rep.n, basis), tol)


def _spanned(stacked: np.ndarray, what: str) -> Subspace:
    """The span of the 2n×n matrix ``stacked``, of full column rank by
    construction: all n left singular vectors, at any size of its entries.
    Raises InputError when an entry overflowed while ``stacked`` was
    formed from finite input."""
    basis = np.linalg.svd(as_matrix(stacked, what), full_matrices=False)[0]
    return Subspace._trusted(stacked.shape[0], basis)


@float_rule
def from_pair(rep: PairRep, tol: Tolerance = DEFAULT_TOLERANCE) -> LinearLD:
    """Build a structure from a carrier/map pair.

    Forward (E, Ω): L = {(v, Ω v + μ) : v ∈ E, μ ∈ ann(E)}; backward (F, Π):
    L = {(Π η + w, η) : η ∈ F, w ∈ ann(F)}.  The result always carries the
    requested orientation flag.  The pair spans n dimensions at any size
    of the map; InputError when the map applied to the carrier overflows.
    """
    n = rep.carrier.ambient_dim
    k = rep.carrier.dim
    qc = rep.carrier.basis
    range_half = np.hstack([qc, np.zeros((n, n - k))])
    other_half = np.hstack([qc @ rep.matrix, complement_columns(qc, k)])
    stacked = np.vstack(_oriented(rep.orientation, range_half, other_half))
    ld = LinearLD(_spanned(stacked, "the map applied to the carrier"), tol)
    if not getattr(ld.flags, rep.orientation):
        # cannot happen for exact arithmetic; guards against pathological input
        raise NotLDStructureError(
            f"pair construction lost the {rep.orientation} property")
    return ld


def _carrier_map(l: LinearLD, orientation: Orientation) -> tuple:
    """(carrier basis, map matrix) of ``l`` in ``orientation``, from the
    stored SVD of its range half, the rank decided at ``l.tol``."""
    if orientation not in ("forward", "backward"):
        raise InputError(f"unknown orientation {orientation!r}")
    if not getattr(l.flags, orientation):
        factor = "vector" if orientation == "forward" else "covector"
        raise OrientationError(
            f"structure is not {orientation}; no (carrier, map) "
            f"representation with a {factor}-space carrier exists")
    other_half = _halves(l.space, orientation)[1]
    # range_half = U S Vᵀ maps the combination v_i / s_i to carrier vector u_i
    u, s, vt = l._svd[orientation]
    rank = numerical_rank(s, l.tol.rank_eps, scale=1.0)
    matrix = u[:, :rank].T @ (other_half @ (vt[:rank].T / s[:rank]))
    return np.ascontiguousarray(u[:, :rank]), matrix


@float_rule
def to_pair(l: LinearLD, orientation: Orientation) -> PairRep:
    """Extract the carrier/map representation in the requested orientation,
    its rank decided at ``l.tol``.

    Raises OrientationError when ``l`` does not carry that orientation flag.
    """
    carrier, matrix = _carrier_map(l, orientation)
    return PairRep(orientation, Subspace._trusted(l.n, carrier), matrix)


@float_rule
def split_pairing(l: LinearLD, orientation: Orientation) -> SplitPairing:
    """Gram matrix of the split pairing adapted to ``l`` on R^{2n}.

    Forward: <<x1, x2>> = <eta1|v2> + <eta2|v1> - 2 Psi(v1, v2) with Psi the
    symmetrized quadratic form of the (zero-extended) carrier map; backward
    replaces Psi by the analogous form Phi on covectors.  The structure is
    isotropic for the returned Gram matrix, and the signature is (n, n),
    counted by sign: the shear (v, eta) -> (v, eta + Psi v) takes the Gram
    matrix to [[0, I], [I, 0]], so no eigenvalue is zero.
    """
    qc, matrix = _carrier_map(l, orientation)
    n = l.n
    gram = np.zeros((2 * n, 2 * n))
    gram[:n, n:] = gram[n:, :n] = np.eye(n)
    half = slice(None, n) if orientation == "forward" else slice(n, None)
    gram[half, half] = -2.0 * sym_part(qc @ matrix @ qc.T)
    eigs = np.linalg.eigvalsh(gram)
    pos = int(np.count_nonzero(eigs > 0.0))
    neg = int(np.count_nonzero(eigs < 0.0))
    return SplitPairing(gram, (pos, neg))


@float_rule
def deform(l: LinearLD, form, direction: Orientation) -> LinearLD:
    """Deform a Dirac structure by a symmetric bilinear form.

    direction "forward" shears covectors, (v, η) -> (v, η + ψ v), and yields
    a forward structure; "backward" shears vectors, (v, η) -> (v + φ η, η),
    and yields a backward structure.  The zero form returns ``l`` unchanged
    as a subspace.  The shear is invertible, so the sheared basis keeps all
    n columns at any size of the form; InputError when the sheared basis
    overflows.  The result is classified at ``l.tol``.
    """
    if direction not in ("forward", "backward"):
        raise InputError(f"unknown direction {direction!r}")
    if not l.flags.dirac:
        raise PreconditionError("deformation requires a Dirac structure")
    psi = as_matrix(form, "form")
    if psi.shape != (l.n, l.n):
        raise InputError(f"form must be {l.n}x{l.n}, got {psi.shape}")
    if not is_symmetric(psi):
        raise InputError("form must be symmetric")
    range_half, other_half = _halves(l.space, direction)
    stacked = np.vstack(_oriented(direction, range_half,
                                  other_half + psi @ range_half))
    return LinearLD(_spanned(stacked, "the sheared basis"), l.tol)


def _stored_meet(l: LinearLD, orientation: Orientation) -> Subspace:
    """L ∩ V* (forward) or L ∩ V (backward) as a subspace of R^n, from the
    kept SVD of the range half, its rank decided at ``l.tol``."""
    eps = l.tol.rank_eps
    return Subspace._trusted(l.n, orthonormal_columns(
        _meet(l._svd[orientation], _halves(l.space, orientation)[1], eps),
        eps))


@float_rule
def tangent_part(l: LinearLD) -> Subspace:
    """L ∩ V as a subspace of R^n (vectors paired with the zero covector),
    its rank decided at ``l.tol``."""
    return _stored_meet(l, "backward")


@float_rule
def cotangent_part(l: LinearLD) -> Subspace:
    """L ∩ V* as a subspace of R^n (covectors paired with the zero vector),
    its rank decided at ``l.tol``."""
    return _stored_meet(l, "forward")
