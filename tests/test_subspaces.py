"""Tolerance-aware subspace algebra: ranks, kernels, annihilators, factors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import (planted_rank, random_orthonormal, random_subspace,
                  subspace_residual)
from ldkit import (InputError, Subspace, Tolerance, annihilator, intersect,
                   project_factor, rank_kernel)
from ldkit.subspaces import (DEFAULT_TOLERANCE, as_vector,
                             complement_columns, is_symmetric, numerical_rank,
                             orthonormal_columns, sym_part, sym_skew)

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
    # finite too, and rank_eps below 1: at 1 or above the relative cutoff
    # reaches the top singular value and every rank is 0
    for rank_eps, residual_eps in [(math.inf, 1e-8), (math.nan, 1e-8),
                                   (1.0, 1e-8), (2.0, 1e-8),
                                   (1e-9, math.inf), (1e-9, math.nan)]:
        with pytest.raises(InputError, match="finite"):
            Tolerance(rank_eps=rank_eps, residual_eps=residual_eps)
    assert Tolerance(rank_eps=0.5, residual_eps=1e300).rank_eps == 0.5


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


@pytest.mark.parametrize("ambient, basis, message", [
    (-1, np.zeros((0, 0)), "nonnegative"),
    (3, np.eye(2), "do not match"),
    (1, np.zeros((1, 2)), "more columns")],
    ids=["negative ambient", "mismatched rows", "too many columns"])
def test_subspace_rejects_a_basis_of_the_wrong_shape(ambient, basis, message):
    with pytest.raises(InputError, match=message):
        Subspace(ambient, basis)


def test_as_vector_rejects_a_matrix():
    with pytest.raises(InputError, match="1-dimensional"):
        as_vector(np.zeros((2, 1)), 2)


def test_contains_subspace_requires_matching_ambient():
    with pytest.raises(InputError, match="different ambient"):
        span(E1_3).contains_subspace(Subspace.full(2))


def test_subspace_rejects_non_finite_entries():
    with pytest.raises(InputError):
        Subspace(2, np.array([[np.nan], [0.0]]))


def test_from_spanning_orthonormalizes_redundant_columns():
    s = Subspace.from_spanning(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert s.dim == 1
    assert s.contains([3.0, 3.0])
    assert not s.contains([1.0, -1.0])


def test_from_spanning_reads_a_nested_list_by_columns_as_an_array():
    # two rows of length 3: two columns in R^2, whatever the container
    data = [[1, 0, 0], [0, 1, 0]]
    from_list = Subspace.from_spanning(data)
    from_array = Subspace.from_spanning(np.array(data))
    assert from_list.ambient_dim == from_array.ambient_dim == 2
    assert from_list.dim == from_array.dim == 2
    assert np.array_equal(from_list.basis, from_array.basis)
    assert Subspace.from_spanning(np.zeros((3, 0))).equals(Subspace.zero(3))
    with pytest.raises(InputError, match="2-dimensional"):
        Subspace.from_spanning([1.0, 0.0])


def test_membership_residual_is_relative_and_zero_vector_belongs():
    s = span(E1_3)
    assert s.membership_residual(np.zeros(3)) == 0.0
    assert s.membership_residual(1e8 * E2_3) == pytest.approx(1.0)
    assert s.membership_residual(1e-8 * E1_3) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-320, 1e-300, 1e-160, 1.0, 1e154, 1e200,
                                   1e300, 1.7e308])
def test_membership_residual_does_not_depend_on_the_scale(scale):
    # |v|² overflows above 1e154 and underflows below 1e-154; at the
    # parent (1e200, 1e200) gave inf / inf = nan
    s = Subspace(2, [[1.0], [0.0]])
    assert s.membership_residual([scale, scale]) == \
        s.membership_residual([1.0, 1.0]) == pytest.approx(math.sqrt(0.5))


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


def test_project_factor_rejects_an_unknown_factor():
    with pytest.raises(InputError, match="unknown factor"):
        project_factor(Subspace.full(4), "third")


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


# ---------------------------------------------------------------------------
# the sym/skew split and the symmetry test

SPLIT_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e308, -1.7976931348623157e308, 5e-324,
                     -1e-310, 2.2250738585072014e-308]),
    st.floats(allow_nan=False, allow_infinity=False))


@given(entries=st.lists(SPLIT_FLOATS, min_size=9, max_size=9),
       n=st.integers(1, 3))
def test_the_split_is_finite_and_exactly_sym_and_skew(entries, n):
    m = np.array(entries[:n * n]).reshape(n, n)
    with np.errstate(all="ignore"):
        sym, skew = sym_skew(m)
        assert sym_part(m).tobytes() == sym.tobytes()
    assert np.isfinite(sym).all() and np.isfinite(skew).all()
    assert np.array_equal(sym, sym.T) and np.array_equal(skew, -skew.T)
    # away from overflow and subnormals it is (m ± mᵀ)/2 bit for bit
    if np.all((np.abs(m) < 1e300) & ((m == 0.0) | (np.abs(m) > 1e-300))):
        assert sym.tobytes() == (0.5 * (m + m.T)).tobytes()
        assert skew.tobytes() == (0.5 * (m - m.T)).tobytes()


@given(seed=st.integers(0, 10_000), n=st.integers(1, 5),
       magnitude=st.sampled_from([1e-3, 1.0, 1e6, 1e300]),
       defect=st.floats(0.0, 4.0))
def test_is_symmetric_bounds_the_defect_relative_to_max_1_and_m(
        seed, n, magnitude, defect):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (n, n)) * magnitude
    scale = max(1.0, float(np.abs(a).max()))
    eps = DEFAULT_TOLERANCE.residual_eps
    sym, skew = sym_skew(a)
    assert is_symmetric(sym) and is_symmetric(skew, skew=True)
    if n == 1:
        return
    # one off-diagonal pair off by defect times the bound
    for base, flag in ((sym, False), (skew, True)):
        m = base.copy()
        m[0, 1] += defect * eps * scale
        delta = abs(m[0, 1] - (-1.0 if flag else 1.0) * m[1, 0])
        with np.errstate(over="ignore"):
            bound = eps * max(1.0, float(np.abs(m).max()))
        assert is_symmetric(m, skew=flag) == (delta <= bound)


def test_is_symmetric_holds_near_the_float_maximum():
    big = 1.7976931348623157e308
    # m - mᵀ and m + mᵀ overflow here; halves do not
    assert is_symmetric(np.array([[big, big], [big, -big]]))
    assert not is_symmetric(np.array([[0.0, big], [-big, 0.0]]))
    assert is_symmetric(np.array([[0.0, big], [-big, 0.0]]), skew=True)
    assert not is_symmetric(np.array([[big, 0.0], [0.0, 0.0]]), skew=True)
    assert is_symmetric(np.array([[-1e-310, 5e-324], [5e-324, 0.0]]))
