"""Tolerance-aware subspace algebra: ranks, kernels, annihilators, factors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import (planted_rank, random_orthonormal, random_subspace,
                  subspace_residual)
from ldkit import (InputError, Subspace, Tolerance, annihilator, intersect,
                   project_factor, rank_kernel)
from ldkit.subspaces import (complement_columns, numerical_rank,
                             orthonormal_columns)

E1_3 = np.array([1.0, 0.0, 0.0])
E2_3 = np.array([0.0, 1.0, 0.0])
E3_3 = np.array([0.0, 0.0, 1.0])


def span(*vectors):
    return Subspace.from_spanning(np.array(vectors, dtype=float).T)


# ---------------------------------------------------------------------------
# Tolerance and Subspace construction


def test_tolerance_requires_positive_entries():
    with pytest.raises(InputError):
        Tolerance(rank_eps=0.0, residual_eps=1e-8)
    with pytest.raises(InputError):
        Tolerance(rank_eps=1e-9, residual_eps=-1.0)


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(InputError):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("basis", [
    np.diag([1.0 + 4e-6, 1.0]),            # Gram diagonal entry 1 + 8e-6
    np.array([[1.0, 2e-8], [0.0, 1.0]]),   # off-diagonal Gram entry 2e-8
], ids=["norm", "angle"])
def test_subspace_orthonormality_has_no_relative_allowance(basis):
    with pytest.raises(InputError, match="orthonormal"):
        Subspace(2, basis)


@given(seed=st.integers(0, 10_000), ambient=st.integers(1, 8))
def test_subspace_accepts_a_basis_within_the_absolute_bound(seed, ambient):
    # columns moved by at most 3e-9 in norm (so every entry by at most
    # 3e-9) move each entry of the Gram matrix by at most 6e-9 + 9e-18
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, ambient + 1))
    basis = random_orthonormal(rng, ambient, dim)
    push = rng.standard_normal((ambient, dim))
    push *= 3e-9 * rng.uniform(0.0, 1.0, dim) / np.linalg.norm(push, axis=0)
    assert Subspace(ambient, basis + push).dim == dim
    # one column longer by a factor 1 + 1e-8 puts a diagonal entry 2e-8 off
    basis[:, int(rng.integers(0, dim))] *= 1.0 + 1e-8
    with pytest.raises(InputError, match="orthonormal"):
        Subspace(ambient, basis)


def test_subspace_rejects_non_finite_entries():
    with pytest.raises(InputError):
        Subspace(2, np.array([[np.nan], [0.0]]))


def test_from_spanning_orthonormalizes_redundant_columns():
    s = Subspace.from_spanning(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert s.dim == 1
    assert s.contains([3.0, 3.0])
    assert not s.contains([1.0, -1.0])


def test_membership_residual_is_relative_and_zero_vector_belongs():
    s = span(E1_3)
    assert s.membership_residual(np.zeros(3)) == 0.0
    assert s.membership_residual(1e8 * E2_3) == pytest.approx(1.0)
    assert s.membership_residual(1e-8 * E1_3) == pytest.approx(0.0, abs=1e-12)


def test_projector_is_idempotent_and_symmetric():
    rng = np.random.default_rng(5)
    s = random_subspace(rng, 5, 2)
    p = s.projector
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.allclose(p, p.T, atol=1e-12)


def test_equals_ignores_basis_order_and_sign():
    a = span(E1_3, E2_3)
    b = span(-E2_3, E1_3)
    assert a.equals(b)
    assert not a.equals(span(E1_3, E3_3))
    assert not a.equals(span(E1_3))


# ---------------------------------------------------------------------------
# rank_kernel


def test_rank_kernel_identity_has_trivial_kernel():
    rank, kernel = rank_kernel(np.eye(3))
    assert rank == 3
    assert kernel.dim == 0


def test_rank_kernel_zero_matrix_has_full_kernel():
    rank, kernel = rank_kernel(np.zeros((2, 3)))
    assert rank == 0
    assert kernel.equals(Subspace.full(3))


def test_rank_kernel_rank_one_matrix():
    rank, kernel = rank_kernel(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert rank == 1
    assert kernel.equals(span([1.0, -1.0]))


def test_rank_kernel_columns_satisfy_residual_bound():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 6))
    m[:, 3] = m[:, 0] + m[:, 1]
    rank, kernel = rank_kernel(m)
    assert rank + kernel.dim == 6
    scale = np.linalg.norm(m)
    for z in kernel.basis.T:
        assert np.linalg.norm(m @ z) <= 1e-8 * scale


def test_rank_kernel_rejects_empty_and_non_finite():
    with pytest.raises(InputError):
        rank_kernel(np.zeros((0, 0)))
    with pytest.raises(InputError):
        rank_kernel(np.array([[np.inf, 0.0]]))


# ---------------------------------------------------------------------------
# annihilator


def test_annihilator_of_coordinate_plane():
    assert annihilator(span(E1_3, E2_3)).equals(span(E3_3))


def test_annihilator_of_zero_is_everything():
    assert annihilator(Subspace.zero(2)).equals(Subspace.full(2))


def test_annihilator_of_diagonal_line():
    assert annihilator(span([1.0, 1.0])).equals(span([1.0, -1.0]))


# ---------------------------------------------------------------------------
# intersect


def test_intersect_coordinate_planes():
    a = span(E1_3, E2_3)
    b = span(E2_3, E3_3)
    assert intersect(a, b).equals(span(E2_3))


def test_intersect_with_itself_is_identity():
    rng = np.random.default_rng(2)
    a = random_subspace(rng, 6, 3)
    assert intersect(a, a).equals(a)


def test_intersect_transverse_lines_is_zero():
    a = span([1.0, 0.0])
    b = span([0.0, 1.0])
    assert intersect(a, b).dim == 0


def test_intersect_requires_matching_ambient():
    with pytest.raises(InputError):
        intersect(span([1.0, 0.0]), span(E1_3))


def test_intersect_result_is_contained_in_both():
    rng = np.random.default_rng(3)
    shared = random_orthonormal(rng, 7, 2)
    a = Subspace.from_spanning(np.hstack([shared, rng.standard_normal((7, 2))]))
    b = Subspace.from_spanning(np.hstack([shared, rng.standard_normal((7, 2))]))
    both = intersect(a, b)
    assert both.dim == 2
    assert a.contains_subspace(both)
    assert b.contains_subspace(both)


# ---------------------------------------------------------------------------
# project_factor


def test_project_factor_graph_of_identity_fills_both_factors():
    graph = span([1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0])
    assert project_factor(graph, "first").equals(Subspace.full(2))
    assert project_factor(graph, "second").equals(Subspace.full(2))


def test_project_factor_pure_second_factor():
    n = 3
    basis = np.vstack([np.zeros((n, n)), np.eye(n)])
    l = Subspace(2 * n, basis)
    assert project_factor(l, "first").dim == 0
    assert project_factor(l, "second").equals(Subspace.full(n))


def test_project_factor_mixed_span():
    l = span([1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0])
    assert project_factor(l, "first").equals(span([1.0, 0.0]))
    assert project_factor(l, "second").equals(Subspace.full(2))


def test_project_factor_rejects_odd_ambient():
    with pytest.raises(InputError):
        project_factor(span(E1_3), "first")


def test_numerical_rank_closed_forms():
    assert numerical_rank(np.zeros(0), 1e-9) == 0
    assert numerical_rank(np.zeros(3), 1e-9) == 0
    # an explicit scale replaces the top singular value as the reference
    assert numerical_rank(np.array([1e-3, 1e-11]), 1e-9) == 2
    assert numerical_rank(np.array([1e-3, 1e-11]), 1e-9, scale=1.0) == 1
    assert numerical_rank(np.array([1e-10]), 1e-9, scale=1.0) == 0


def test_complement_columns_closed_forms_at_rank_zero_partial_and_full():
    assert np.array_equal(complement_columns(np.zeros((3, 2)), 0), np.eye(3))
    assert np.array_equal(complement_columns(np.zeros((3, 0)), 0), np.eye(3))
    assert complement_columns(np.eye(3), 3).shape == (3, 0)
    line = np.array([[1.0], [1.0], [0.0]])
    perp = Subspace(3, complement_columns(line, 1))
    assert perp.equals(span([1.0, -1.0, 0.0], E3_3))


# ---------------------------------------------------------------------------
# properties


@given(seed=st.integers(0, 10_000), n=st.integers(1, 4),
       dim=st.integers(0, 8))
def test_dimension_identities_for_factor_projections(seed, n, dim):
    # dim(L ∩ V) + dim(proj_second(L)) = dim(L), and the mirrored identity,
    # as exact integer equalities of computed ranks.
    dim = min(dim, 2 * n)
    rng = np.random.default_rng(seed)
    # mix pure-factor and generic directions so the intersections are often
    # nontrivial
    columns = []
    for _ in range(dim):
        kind = rng.integers(0, 3)
        col = rng.standard_normal(2 * n)
        if kind == 0:
            col[n:] = 0.0
        elif kind == 1:
            col[:n] = 0.0
        columns.append(col)
    l = Subspace.from_spanning(np.array(columns).T if columns
                               else np.zeros((2 * n, 0)))
    v = Subspace(2 * n, np.vstack([np.eye(n), np.zeros((n, n))]))
    v_star = Subspace(2 * n, np.vstack([np.zeros((n, n)), np.eye(n)]))
    assert intersect(l, v).dim + project_factor(l, "second").dim == l.dim
    assert intersect(l, v_star).dim + project_factor(l, "first").dim == l.dim


@given(seed=st.integers(0, 10_000), ambient=st.integers(1, 8))
def test_double_annihilator_returns_the_original_subspace(seed, ambient):
    rng = np.random.default_rng(seed)
    w = random_subspace(rng, ambient, int(rng.integers(0, ambient + 1)))
    again = annihilator(annihilator(w))
    assert again.equals(w)
    assert subspace_residual(again, w) <= 1e-8


@given(seed=st.integers(0, 10_000), rows=st.integers(1, 6),
       cols=st.integers(1, 6), rank=st.integers(0, 6))
def test_rank_is_stable_under_column_scaling(seed, rows, cols, rank):
    rank = min(rank, rows, cols)
    rng = np.random.default_rng(seed)
    # well-separated singular values, then column scales across six decades
    u = random_orthonormal(rng, rows, rank)
    vt = random_orthonormal(rng, cols, rank).T
    s = rng.uniform(0.5, 2.0, size=rank)
    m = u @ np.diag(s) @ vt if rank else np.zeros((rows, cols))
    scales = 10.0 ** rng.uniform(-3, 3, size=cols)
    assert rank_kernel(m)[0] == rank
    assert rank_kernel(m * scales)[0] == rank


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50)
def test_annihilator_dimension_and_orthogonality(seed):
    rng = np.random.default_rng(seed)
    ambient = int(rng.integers(1, 9))
    w = random_subspace(rng, ambient, int(rng.integers(0, ambient + 1)))
    perp = annihilator(w)
    assert perp.dim == ambient - w.dim
    if w.dim and perp.dim:
        assert np.abs(w.basis.T @ perp.basis).max() <= 1e-10


@given(seed=st.integers(0, 10_000), rows=st.integers(1, 6),
       cols=st.integers(1, 6), rank=st.integers(0, 6),
       factor=st.floats(1e-6, 1e6))
def test_numerical_rank_is_scale_invariant_and_shared_by_rank_routines(
        seed, rows, cols, rank, factor):
    rank = min(rank, rows, cols)
    m = planted_rank(np.random.default_rng(seed), rows, cols, rank)
    s = np.linalg.svd(m, compute_uv=False)
    assert numerical_rank(s, 1e-9) == rank
    assert numerical_rank(np.linalg.svd(factor * m, compute_uv=False),
                          1e-9) == rank
    assert orthonormal_columns(m, 1e-9).shape[1] == rank
    assert rank_kernel(m)[0] == rank


@given(seed=st.integers(0, 10_000), rows=st.integers(1, 7),
       cols=st.integers(0, 7), rank=st.integers(0, 7))
def test_complement_columns_is_an_orthonormal_complement(seed, rows, cols,
                                                         rank):
    rank = min(rank, rows, cols)
    m = planted_rank(np.random.default_rng(seed), rows, cols, rank)
    c = complement_columns(m, rank)
    assert c.shape == (rows, rows - rank)
    assert np.allclose(c.T @ c, np.eye(rows - rank), atol=1e-10)
    assert float(np.abs(m.T @ c).max(initial=0.0)) <= 1e-10
