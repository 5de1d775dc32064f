"""Tolerance-aware subspace linear algebra over R^m.

Subspaces are stored as orthonormal column bases produced by a rank-revealing
SVD.  Every rank decision uses a cutoff relative to the largest singular
value, so decisions are stable under uniform rescaling of the data, and every
membership or equality check is a residual test against an explicit bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .errors import InputError

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "Subspace",
    "rank_kernel",
    "annihilator",
    "intersect",
    "project_factor",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical cutoffs shared by all rank and residual decisions.

    Attributes:
        rank_eps: relative singular-value cutoff for rank decisions.
        residual_eps: bound on membership / equation residuals.
    """

    rank_eps: float = 1e-9
    residual_eps: float = 1e-8

    def __post_init__(self):
        if not (self.rank_eps > 0.0 and self.residual_eps > 0.0):
            raise InputError("tolerance cutoffs must be strictly positive")


DEFAULT_TOLERANCE = Tolerance()


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a float 2-d array, rejecting non-finite entries."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise InputError(f"{name} has non-finite entries")
    return arr


def as_vector(v, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce ``v`` to a finite float 1-d array, optionally of length ``dim``."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise InputError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise InputError(f"{name} has non-finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise InputError(f"{name} must have length {dim}, got {arr.shape[0]}")
    return arr


def numerical_rank(s: np.ndarray, rank_eps: float,
                   scale: float | None = None) -> int:
    """The package's rank rule: how many singular values exceed the cutoff.

    ``s`` is in descending order, as numpy's SVD returns it; the cutoff is
    ``rank_eps`` relative to ``scale``, by default the largest singular
    value.  An empty or all-zero spectrum has rank 0.
    """
    if s.size == 0 or s[0] <= 0.0:
        return 0
    cutoff = rank_eps * (s[0] if scale is None else scale)
    return int(np.count_nonzero(s > cutoff))


def orthonormal_columns(m: np.ndarray, rank_eps: float,
                        scale: float | None = None) -> np.ndarray:
    """Orthonormal basis for the column space of ``m``.

    Args:
        m: any (rows, cols) matrix; cols may be 0.
        rank_eps: singular-value cutoff, relative to ``scale``.
        scale: reference magnitude for the cutoff.  Defaults to the largest
            singular value of ``m`` itself; pass an explicit scale when the
            input is a block of a unit-scale object (e.g. rows of an
            orthonormal basis), where an all-noise block must not be mistaken
            for a low-rank one.

    Returns:
        (rows, r) matrix with orthonormal columns spanning col(m), where r is
        the numerical rank of m.
    """
    if m.size == 0:
        return np.zeros((m.shape[0], 0))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :numerical_rank(s, rank_eps, scale)]


def complement_columns(m: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal (rows, rows - rank) basis of the complement of col(m).

    ``rank`` is the numerical rank of ``m``, already decided by the caller;
    rank 0 and full row rank are answered without an SVD.
    """
    rows = m.shape[0]
    if rank == 0:
        return np.eye(rows)
    if rank == rows:
        return np.zeros((rows, 0))
    u, _, _ = np.linalg.svd(m, full_matrices=True)
    return u[:, rank:]


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^m held as an orthonormal column basis.

    Attributes:
        ambient_dim: the m of the ambient R^m.
        basis: (m, k) matrix with orthonormal columns; k = dim of subspace.
            Every entry of basisᵀ basis - I must be at most 1e-8 in
            absolute value; there is no relative allowance.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise InputError("ambient dimension must be nonnegative")
        b = as_matrix(self.basis, "basis")
        if b.shape[0] != self.ambient_dim:
            raise InputError(
                f"basis rows {b.shape[0]} do not match ambient dimension "
                f"{self.ambient_dim}")
        if b.shape[1] > self.ambient_dim:
            raise InputError("basis has more columns than the ambient dimension")
        if b.shape[1]:
            gram = b.T @ b
            gram.flat[::b.shape[1] + 1] -= 1.0
            if not np.abs(gram).max() <= 1e-8:
                raise InputError("basis columns are not orthonormal")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_spanning(cls, vectors, tol: Tolerance = DEFAULT_TOLERANCE,
                      ambient_dim: int | None = None) -> "Subspace":
        """Subspace spanned by the columns of ``vectors``.

        ``vectors`` may also be an iterable of 1-d vectors, which are taken
        as the spanning set.
        """
        if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
            m = as_matrix(vectors, "spanning set")
        else:
            vecs = [as_vector(v, name="spanning vector") for v in vectors]
            if not vecs:
                if ambient_dim is None:
                    raise InputError(
                        "empty spanning set needs an explicit ambient_dim")
                m = np.zeros((ambient_dim, 0))
            else:
                m = np.column_stack(vecs)
        if ambient_dim is not None and m.shape[0] != ambient_dim:
            raise InputError("spanning vectors do not match ambient_dim")
        return cls(m.shape[0], orthonormal_columns(m, tol.rank_eps))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim))

    # -- queries -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace."""
        return self.basis @ self.basis.T

    def membership_residual(self, v) -> float:
        """Relative distance of ``v`` from the subspace (0 for v = 0)."""
        vec = as_vector(v, self.ambient_dim)
        scale = float(np.linalg.norm(vec))
        if scale == 0.0:
            return 0.0
        resid = vec - self.basis @ (self.basis.T @ vec)
        return float(np.linalg.norm(resid)) / scale

    def contains(self, v, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        return self.membership_residual(v) <= tol.residual_eps

    def contains_subspace(self, other: "Subspace",
                          tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        """True when every basis vector of ``other`` lies in ``self``."""
        if other.ambient_dim != self.ambient_dim:
            raise InputError("subspaces live in different ambient spaces")
        if other.dim == 0:
            return True
        resid = other.basis - self.basis @ (self.basis.T @ other.basis)
        return float(np.abs(resid).max(initial=0.0)) <= tol.residual_eps

    def equals(self, other: "Subspace",
               tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        """Mutual-inclusion equality test at the residual tolerance."""
        return (self.dim == other.dim
                and self.contains_subspace(other, tol)
                and other.contains_subspace(self, tol))

    def __repr__(self) -> str:  # keep reprs short; bases can be large
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dim})"


def rank_kernel(m, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[int, Subspace]:
    """Numerical rank and kernel of a matrix.

    Args:
        m: (rows, cols) matrix with rows, cols >= 1.
        tol: rank cutoff is tol.rank_eps relative to the top singular value.

    Returns:
        (rank, kernel) with kernel a Subspace of R^cols; rank + kernel.dim
        equals cols, and every kernel basis column z satisfies
        |m z| <= tol.residual_eps * |m|.
    """
    arr = as_matrix(m)
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InputError("rank_kernel needs a nonempty matrix")
    _, s, vt = np.linalg.svd(arr)
    rank = numerical_rank(s, tol.rank_eps)
    kernel = Subspace(arr.shape[1], vt[rank:].T)
    return rank, kernel


def annihilator(w: Subspace) -> Subspace:
    """Annihilator of ``w`` under the dot-product identification of duals.

    Returns the orthogonal complement; its dimension is ambient_dim - dim(w).
    """
    return Subspace(w.ambient_dim, complement_columns(w.basis, w.dim))


def intersect(a: Subspace, b: Subspace,
              tol: Tolerance = DEFAULT_TOLERANCE) -> Subspace:
    """Intersection of two subspaces of the same ambient space.

    Computed from the kernel of the stacked basis [Qa | -Qb]: a kernel vector
    (u, v) certifies Qa u = Qb v, and the intersection is spanned by the
    corresponding Qa u.
    """
    if a.ambient_dim != b.ambient_dim:
        raise InputError("subspaces live in different ambient spaces")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    stacked = np.hstack([a.basis, -b.basis])
    _, kernel = rank_kernel(stacked, tol)
    if kernel.dim == 0:
        return Subspace.zero(a.ambient_dim)
    combo = a.basis @ kernel.basis[: a.dim, :]
    return Subspace(a.ambient_dim,
                    orthonormal_columns(combo, tol.rank_eps))


def project_factor(l: Subspace, which: Literal["first", "second"],
                   tol: Tolerance = DEFAULT_TOLERANCE) -> Subspace:
    """Image of a subspace of R^n ⊕ R^n under a factor projection.

    Args:
        l: subspace of an even-dimensional ambient space R^{2n}, coordinates
            split as first n / last n.
        which: "first" projects onto the leading factor, "second" onto the
            trailing factor.

    Returns:
        Subspace of R^n spanned by the chosen half of the basis rows.
    """
    if l.ambient_dim % 2 != 0:
        raise InputError("project_factor needs an even ambient dimension")
    n = l.ambient_dim // 2
    if which == "first":
        rows = l.basis[:n, :]
    elif which == "second":
        rows = l.basis[n:, :]
    else:
        raise InputError(f"unknown factor {which!r}; use 'first' or 'second'")
    # the basis columns are unit vectors, so singular values of a half block
    # below rank_eps are projection noise, not genuine image directions
    return Subspace(n, orthonormal_columns(rows, tol.rank_eps, scale=1.0))
