"""Shared random generators and closed-form oracles for the test suite.

The structure generator mixes every supported construction path (carrier/map
pairs in both orientations, graphs through matrix pairs, and K ⊕ ann(K)
sums) and reports enough metadata to predict the classification flags
independently of the library's own pairing-residual computation.
"""

from __future__ import annotations

import numpy as np

from ldkit import (ABRep, PairRep, ScalarField, Subspace, annihilator,
                   from_ab, from_pair, from_subspace)

MAP_KINDS = ("generic", "skew", "sym", "zero")


def random_orthonormal(rng, n: int, k: int) -> np.ndarray:
    if k == 0:
        return np.zeros((n, 0))
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q[:, :k]


def random_subspace(rng, ambient: int, dim: int) -> Subspace:
    return Subspace(ambient, random_orthonormal(rng, ambient, dim))


def planted_rank(rng, rows: int, cols: int, rank: int) -> np.ndarray:
    """A (rows, cols) matrix of exact rank ``rank`` whose nonzero singular
    values lie in [0.5, 2], far from any rank cutoff."""
    s = rng.uniform(0.5, 2.0, size=rank)
    return (random_orthonormal(rng, rows, rank) @ np.diag(s)
            @ random_orthonormal(rng, cols, rank).T)


def random_map(rng, k: int, kind: str) -> np.ndarray:
    m = rng.standard_normal((k, k))
    if kind == "skew":
        return 0.5 * (m - m.T)
    if kind == "sym":
        return 0.5 * (m + m.T)
    if kind == "zero":
        return np.zeros((k, k))
    return m


def sum_with_annihilator(k_basis: np.ndarray) -> Subspace:
    """The subspace K ⊕ ann(K) of R^{2n} for K given by orthonormal columns."""
    n = k_basis.shape[0]
    ann = annihilator(Subspace(n, k_basis)).basis
    top = np.hstack([k_basis, np.zeros((n, ann.shape[1]))])
    bottom = np.hstack([np.zeros((n, k_basis.shape[1])), ann])
    return Subspace(2 * n, np.vstack([top, bottom]))


def random_structure(rng):
    """Draw one structure; returns (LinearLD, info dict).

    info keys: n, source ("pair" | "ab" | "ksum"), orientation (an
    orientation guaranteed by the construction), map (the generating map in
    construction coordinates; zeros for ksum), k (carrier dimension).
    """
    n = int(rng.integers(1, 7))
    source = ("pair", "pair", "ab", "ksum")[int(rng.integers(0, 4))]
    kind = MAP_KINDS[int(rng.integers(0, len(MAP_KINDS)))]
    if source == "pair":
        orientation = "forward" if rng.integers(0, 2) else "backward"
        k = int(rng.integers(0, n + 1))
        carrier = random_subspace(rng, n, k)
        mapping = random_map(rng, k, kind)
        ld = from_pair(PairRep(orientation, carrier, mapping))
        return ld, {"n": n, "source": source, "orientation": orientation,
                    "map": mapping, "k": k}
    if source == "ab":
        # graph of a full-carrier map through an orthogonal change of basis
        mapping = random_map(rng, n, kind)
        q = random_orthonormal(rng, n, n)
        if rng.integers(0, 2):
            ld = from_ab(ABRep(q, mapping @ q))
            orientation = "forward"
        else:
            ld = from_ab(ABRep(mapping @ q, q))
            orientation = "backward"
        return ld, {"n": n, "source": source, "orientation": orientation,
                    "map": mapping, "k": n}
    k = int(rng.integers(0, n + 1))
    space = sum_with_annihilator(random_orthonormal(rng, n, k))
    ld = from_subspace(space)
    return ld, {"n": n, "source": source, "orientation": "forward",
                "map": np.zeros((k, k)), "k": k}


def random_dirac(rng):
    """A random Dirac structure (skew generating map or K ⊕ ann(K))."""
    n = int(rng.integers(1, 7))
    choice = int(rng.integers(0, 3))
    if choice == 0:
        orientation = "forward" if rng.integers(0, 2) else "backward"
        k = int(rng.integers(0, n + 1))
        rep = PairRep(orientation, random_subspace(rng, n, k),
                      random_map(rng, k, "skew"))
        return from_pair(rep), n
    if choice == 1:
        omega = random_map(rng, n, "skew")
        return from_ab(ABRep(np.eye(n), omega)), n
    k = int(rng.integers(0, n + 1))
    return from_subspace(sum_with_annihilator(random_orthonormal(rng, n, k))), n


def subspace_residual(a: Subspace, b: Subspace) -> float:
    """Max mutual membership residual; 0 means equal subspaces."""
    worst = 0.0
    for col in a.basis.T:
        worst = max(worst, b.membership_residual(col))
    for col in b.basis.T:
        worst = max(worst, a.membership_residual(col))
    return worst


def random_quadratic(rng, n: int) -> ScalarField:
    """A random quadratic polynomial with its exact gradient."""
    c0 = float(rng.standard_normal())
    c1 = rng.standard_normal(n)
    q = rng.standard_normal((n, n))
    q = 0.5 * (q + q.T)

    def value(x, c0=c0, c1=c1, q=q):
        return c0 + c1 @ x + 0.5 * (x @ q @ x)

    def gradient(x, c1=c1, q=q):
        return c1 + q @ x

    return ScalarField(n, value, gradient)


def product_field(f: ScalarField, g: ScalarField) -> ScalarField:
    """The pointwise product fg with the exact product-rule gradient."""
    return ScalarField(
        f.dim,
        value=lambda x: f(x) * g(x),
        gradient=lambda x: f(x) * g.grad(x) + g(x) * f.grad(x))


# ---------------------------------------------------------------------------
# closed-form oracles for the constrained particle (state (x, y, z, px, py, pz),
# friction mu = (mu1, mu2, mu3), constraint y*px - pz = 0)

def particle_multiplier(state, mu) -> float:
    """Differentiate y*px - pz once along the flow and solve for lambda."""
    _, y, _, px, py, pz = state
    mu1, _, mu3 = mu
    return (mu1 * y * px - px * py - mu3 * pz) / (1.0 + y * y)


def particle_rhs(state, mu) -> np.ndarray:
    _, _, _, px, py, pz = state
    mu1, mu2, mu3 = mu
    lam = particle_multiplier(state, mu)
    return np.array([px, py, pz,
                     -mu1 * px + lam * _get_y(state),
                     -mu2 * py,
                     -mu3 * pz - lam])


def _get_y(state) -> float:
    return state[1]


def particle_consistent_state(rng) -> np.ndarray:
    """A random state on the constraint surface pz = y * px."""
    x, y, z, px, py = rng.standard_normal(5)
    return np.array([x, y, z, px, py, y * px])
