"""Linear structures on R^n ⊕ R^n*: construction, classification, pairing,
deformation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import (planted_rank, random_dirac, random_map, random_structure,
                  random_subspace, subspace_residual, sum_with_annihilator)
from ldkit import (ABRep, DegenerateRepresentationError, InputError,
                   NotLDStructureError, OrientationError, PairRep,
                   PreconditionError, Subspace, Tolerance,
                   classification_residuals, classify, cotangent_part,
                   deform, from_ab, from_pair, from_subspace, rank_kernel,
                   split_pairing, tangent_part, to_pair)

POISSON_2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def span(*vectors):
    return Subspace.from_spanning(np.array(vectors, dtype=float).T)


def extended_map(pair: PairRep) -> np.ndarray:
    """Carrier map conjugated back to ambient coordinates (basis-free)."""
    q = pair.carrier.basis
    return q @ pair.matrix @ q.T


# ---------------------------------------------------------------------------
# from_ab


def test_from_ab_skew_graph_is_dirac_both_orientations():
    ld = from_ab(ABRep(np.eye(2), POISSON_2))
    assert ld.n == 2
    assert ld.flags.forward and ld.flags.backward
    assert ld.flags.dirac
    assert not ld.flags.symmetric_dirac


def test_from_ab_negative_identity_graph_is_symmetric():
    ld = from_ab(ABRep(np.eye(2), -np.eye(2)))
    assert ld.flags.symmetric_dirac
    assert not ld.flags.dirac
    assert not ld.flags.separable


def test_from_ab_invertible_asymmetric_graph_is_neither_pairing_type():
    ld = from_ab(ABRep(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])))
    assert ld.flags.forward and ld.flags.backward
    assert not ld.flags.dirac
    assert not ld.flags.symmetric_dirac


def test_from_ab_rejects_common_kernel():
    a = np.diag([1.0, 0.0])
    with pytest.raises(DegenerateRepresentationError):
        from_ab(ABRep(a, a.copy()))


def test_from_ab_rejects_subspace_with_neither_characteristic_equation():
    # span{(e1, 0), (0, e1*)}: the annihilator identities fail on both sides
    a = np.diag([1.0, 0.0])
    b = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotLDStructureError) as err:
        from_ab(ABRep(a, b))
    assert err.value.forward_residual > 1e-8
    assert err.value.backward_residual > 1e-8


def test_from_ab_rejects_shape_mismatch():
    with pytest.raises(InputError):
        ABRep(np.eye(2), np.eye(3))
    with pytest.raises(InputError):
        ABRep(np.ones((2, 3)), np.ones((2, 3)))


# ---------------------------------------------------------------------------
# from_pair


def test_from_pair_full_carrier_skew_map_matches_graph():
    pair = PairRep("forward", Subspace.full(2), POISSON_2)
    ld = from_pair(pair)
    graph = from_ab(ABRep(np.eye(2), POISSON_2))
    assert ld.flags.dirac
    assert ld.space.equals(graph.space)


def test_from_pair_partial_forward_carrier():
    pair = PairRep("forward", span([1.0, 0.0]), np.array([[1.0]]))
    ld = from_pair(pair)
    expected = span([1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0])
    assert ld.space.equals(expected)
    assert ld.flags.forward
    # covector part of L is exactly the annihilator of the carrier
    assert cotangent_part(ld).equals(span([0.0, 1.0]))


def test_from_pair_partial_backward_carrier():
    pair = PairRep("backward", span([1.0, 0.0]), np.array([[0.0]]))
    ld = from_pair(pair)
    expected = span([0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0])
    assert ld.space.equals(expected)
    assert ld.flags.backward
    assert tangent_part(ld).equals(span([0.0, 1.0]))


def test_from_pair_zero_carrier_gives_pure_annihilator_summand():
    ld = from_pair(PairRep("forward", Subspace.zero(3), np.zeros((0, 0))))
    assert ld.space.equals(Subspace(6, np.vstack([np.zeros((3, 3)),
                                                  np.eye(3)])))
    assert ld.flags.separable


def test_from_pair_rejects_map_shape_mismatch():
    with pytest.raises(InputError):
        PairRep("forward", span([1.0, 0.0]), np.eye(2))
    with pytest.raises(InputError):
        PairRep("sideways", span([1.0, 0.0]), np.eye(1))


# ---------------------------------------------------------------------------
# to_pair


def test_to_pair_inverts_full_carrier_graph():
    ld = from_ab(ABRep(np.eye(2), POISSON_2))
    pair = to_pair(ld, "forward")
    assert pair.carrier.equals(Subspace.full(2))
    assert np.allclose(extended_map(pair), POISSON_2, atol=1e-12)


def test_to_pair_recovers_partial_carrier_and_map():
    ld = from_pair(PairRep("forward", span([1.0, 0.0]), np.array([[1.0]])))
    pair = to_pair(ld, "forward")
    assert pair.carrier.equals(span([1.0, 0.0]))
    assert np.allclose(extended_map(pair), np.diag([1.0, 0.0]), atol=1e-12)


def test_to_pair_zero_poisson_graph_backward_has_empty_carrier():
    # V ⊕ {0} is the backward structure of the zero map on a zero carrier's
    # complement: its covector projection is trivial
    basis = np.vstack([np.eye(2), np.zeros((2, 2))])
    ld = from_subspace(Subspace(4, basis))
    pair = to_pair(ld, "backward")
    assert pair.carrier.dim == 0
    assert pair.matrix.shape == (0, 0)


def test_to_pair_raises_for_unavailable_orientation():
    # forward-only: span{(e1, e1*), (e2, e1*)}
    ld = from_ab(ABRep(np.eye(2), np.array([[1.0, 1.0], [0.0, 0.0]])))
    assert ld.flags.forward and not ld.flags.backward
    with pytest.raises(OrientationError):
        to_pair(ld, "backward")


def test_to_pair_from_pair_round_trip_preserves_subspace():
    rng = np.random.default_rng(7)
    for _ in range(25):
        ld, info = random_structure(rng)
        pair = to_pair(ld, info["orientation"])
        again = from_pair(pair)
        assert again.space.equals(ld.space)
        assert subspace_residual(again.space, ld.space) <= 1e-8


# ---------------------------------------------------------------------------
# classify


def test_classify_separable_sum_sets_all_pairing_flags():
    ld = from_subspace(sum_with_annihilator(np.array([[1.0], [0.0]])))
    assert ld.flags.separable
    assert ld.flags.dirac and ld.flags.symmetric_dirac
    assert ld.flags.forward and ld.flags.backward


def test_classify_identity_graph_is_symmetric_not_dirac():
    ld = from_ab(ABRep(np.eye(2), np.eye(2)))
    assert ld.flags.symmetric_dirac
    assert not ld.flags.dirac


def test_classification_residuals_reports_all_five_keys():
    ld = from_ab(ABRep(np.eye(2), POISSON_2))
    res = classification_residuals(ld.space)
    assert set(res) == {"forward", "backward", "dirac", "symmetric_dirac",
                        "separable"}
    assert res["forward"] <= 1e-12
    assert res["backward"] <= 1e-12
    assert res["dirac"] <= 1e-12
    assert res["separable"] >= 0.4  # graph pairing <eta|v> is far from zero


def test_classify_recomputes_with_caller_tolerance():
    ld = from_ab(ABRep(np.eye(2), 1e-6 * np.eye(2)))
    assert not ld.flags.dirac  # sym residual ~1e-6 above default 1e-8
    loose = classify(ld, Tolerance(rank_eps=1e-9, residual_eps=1e-3))
    assert loose.dirac and loose.symmetric_dirac


def test_from_subspace_rejects_non_structure_with_residuals():
    bad = span([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])
    with pytest.raises(NotLDStructureError) as err:
        from_subspace(bad)
    assert err.value.forward_residual > 0.0
    assert err.value.backward_residual > 0.0


def test_from_subspace_rejects_wrong_dimension():
    with pytest.raises(InputError):
        from_subspace(span([1.0, 0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# split_pairing


def test_split_pairing_scalar_symmetric_graph():
    ld = from_ab(ABRep(np.eye(1), np.eye(1)))
    pairing = split_pairing(ld, "forward")
    assert np.allclose(pairing.gram, np.array([[-2.0, 1.0], [1.0, 0.0]]))
    assert pairing.signature == (1, 1)
    basis = ld.space.basis
    assert np.abs(basis.T @ pairing.gram @ basis).max() <= 1e-12


def test_split_pairing_dirac_structure_reduces_to_standard_pairing():
    ld = from_ab(ABRep(np.eye(2), POISSON_2))
    pairing = split_pairing(ld, "forward")
    std = np.block([[np.zeros((2, 2)), np.eye(2)],
                    [np.eye(2), np.zeros((2, 2))]])
    assert np.allclose(pairing.gram, std, atol=1e-12)
    assert pairing.signature == (2, 2)


def test_split_pairing_signature_and_isotropy_on_random_structures():
    rng = np.random.default_rng(13)
    for _ in range(40):
        ld, info = random_structure(rng)
        pairing = split_pairing(ld, info["orientation"])
        assert pairing.signature == (info["n"], info["n"])
        basis = ld.space.basis
        assert np.abs(basis.T @ pairing.gram @ basis).max() <= 1e-8


def test_split_pairing_requires_available_orientation():
    ld = from_ab(ABRep(np.eye(2), np.array([[1.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(OrientationError):
        split_pairing(ld, "backward")


# ---------------------------------------------------------------------------
# deform


def test_deform_by_zero_form_is_identity_both_directions():
    ld = from_ab(ABRep(np.eye(2), POISSON_2))
    zero = np.zeros((2, 2))
    assert subspace_residual(deform(ld, zero, "forward").space,
                             ld.space) <= 1e-10
    assert subspace_residual(deform(ld, zero, "backward").space,
                             ld.space) <= 1e-10


def test_deform_forward_shifts_the_graph_map():
    ld = from_ab(ABRep(np.eye(2), POISSON_2))
    shifted = deform(ld, np.eye(2), "forward")
    expected = from_ab(ABRep(np.eye(2), POISSON_2 + np.eye(2)))
    assert shifted.space.equals(expected.space)
    assert shifted.flags.forward
    assert not shifted.flags.dirac


def test_deform_backward_shifts_the_covector_graph_map():
    # backward graph {(B eta, eta)} of the canonical skew map
    ld = from_pair(PairRep("backward", Subspace.full(2), POISSON_2))
    shifted = deform(ld, np.eye(2), "backward")
    expected = from_pair(PairRep("backward", Subspace.full(2),
                                 POISSON_2 + np.eye(2)))
    assert shifted.space.equals(expected.space)
    assert shifted.flags.backward
    assert np.allclose(extended_map(to_pair(shifted, "backward")),
                       np.array([[1.0, 1.0], [-1.0, 1.0]]), atol=1e-12)


def test_deform_rejects_asymmetric_form():
    ld = from_ab(ABRep(np.eye(2), POISSON_2))
    with pytest.raises(InputError):
        deform(ld, np.array([[0.0, 1.0], [0.0, 0.0]]), "forward")


def test_deform_requires_a_dirac_structure():
    ld = from_ab(ABRep(np.eye(2), np.eye(2)))
    with pytest.raises(PreconditionError):
        deform(ld, np.eye(2), "forward")


# ---------------------------------------------------------------------------
# properties


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60)
def test_every_structure_has_dimension_n(seed):
    rng = np.random.default_rng(seed)
    ld, info = random_structure(rng)
    assert ld.space.dim == ld.n == info["n"]


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60)
def test_pair_construction_guarantees_its_orientation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    k = int(rng.integers(0, n + 1))
    carrier = random_subspace(rng, n, k)
    mapping = rng.standard_normal((k, k))
    forward = from_pair(PairRep("forward", carrier, mapping))
    backward = from_pair(PairRep("backward", carrier, mapping))
    assert forward.flags.forward
    assert backward.flags.backward


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60)
def test_pairing_flags_match_symmetry_of_the_extracted_map(seed):
    rng = np.random.default_rng(seed)
    ld, info = random_structure(rng)
    pair = to_pair(ld, info["orientation"])
    m = pair.matrix
    sym_mag = float(np.abs(0.5 * (m + m.T)).max(initial=0.0))
    skew_mag = float(np.abs(0.5 * (m - m.T)).max(initial=0.0))
    assert ld.flags.dirac == (sym_mag <= 1e-8)
    assert ld.flags.symmetric_dirac == (skew_mag <= 1e-8)
    assert ld.flags.separable == (ld.flags.dirac and ld.flags.symmetric_dirac)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40)
def test_deformations_preserve_their_target_orientation(seed):
    rng = np.random.default_rng(seed)
    ld, n = random_dirac(rng)
    psi = random_map(rng, n, "sym")
    assert deform(ld, psi, "forward").flags.forward
    assert deform(ld, psi, "backward").flags.backward


@given(seed=st.integers(0, 10_000), n=st.integers(1, 6),
       rank=st.integers(0, 6))
@settings(max_examples=60)
def test_graph_parts_are_the_kernel_of_the_graph_map(seed, n, rank):
    # L = {(v, B v)} meets V in ker B; L = {(A eta, eta)} meets V* in ker A
    rank = min(rank, n)
    m = planted_rank(np.random.default_rng(seed), n, n, rank)
    kernel = rank_kernel(m)[1]
    tangent = tangent_part(from_ab(ABRep(np.eye(n), m)))
    cotangent = cotangent_part(from_ab(ABRep(m, np.eye(n))))
    assert tangent.dim == cotangent.dim == n - rank
    assert tangent.equals(kernel)
    assert cotangent.equals(kernel)


@pytest.mark.parametrize("part", [tangent_part, cotangent_part])
def test_parts_have_orthonormal_bases_at_a_coarse_rank_tolerance(part):
    # at rank_eps = 1e-2 the entry 6e-3 of the graph map counts as zero, so
    # L meets the factor along the first axis; the kernel vector's image in
    # the other half then has norm 1 only to within 6e-3 squared
    coarse = Tolerance(rank_eps=1e-2)
    small = np.diag([6e-3, 1.0])
    rep = (ABRep(np.eye(2), small) if part is tangent_part
           else ABRep(small, np.eye(2)))
    meet = part(from_ab(rep, coarse), coarse)
    assert meet.equals(span([1.0, 0.0]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_zero_map_backward_pair_on_a_full_carrier_is_the_covector_factor(n):
    # L = V*: its vector half is pure roundoff, which a cutoff relative to
    # that half's own top singular value would count as rank
    carrier = Subspace.from_spanning(
        np.random.default_rng(n).standard_normal((n, n)))
    ld = from_pair(PairRep("backward", carrier, np.zeros((n, n))))
    assert cotangent_part(ld).dim == n
    assert tangent_part(ld).dim == 0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60)
def test_carrier_and_meet_split_the_dimension(seed):
    # forward: E = proj_V L and L ∩ V* = ann E; backward: F = proj_V* L and
    # L ∩ V = ann F
    ld, _ = random_structure(np.random.default_rng(seed))
    if ld.flags.forward:
        assert (to_pair(ld, "forward").carrier.dim
                + cotangent_part(ld).dim == ld.n)
    if ld.flags.backward:
        assert (to_pair(ld, "backward").carrier.dim
                + tangent_part(ld).dim == ld.n)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60)
def test_to_pair_operator_matches_a_pseudo_inverse_reference(seed):
    # with range half R and other half O of L's basis, the carrier map is
    # O R^+ compressed to range(R); R^+ cuts singular values at rank_eps
    # in absolute terms, as a block of a unit-scale basis
    ld, _ = random_structure(np.random.default_rng(seed))
    n = ld.n
    qv, qeta = ld.space.basis[:n], ld.space.basis[n:]
    for orientation, r, o in (("forward", qv, qeta), ("backward", qeta, qv)):
        if not getattr(ld.flags, orientation):
            continue
        top = np.linalg.svd(r, compute_uv=False)[0]
        pinv = (np.linalg.pinv(r, rcond=1e-9 / top) if top > 1e-9
                else np.zeros((n, n)))
        reference = r @ pinv @ o @ pinv
        operator = extended_map(to_pair(ld, orientation))
        scale = max(1.0, float(np.abs(operator).max()))
        assert np.abs(operator - reference).max() <= 1e-12 * scale


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60)
def test_split_pairing_gram_equals_a_block_assembled_reference(seed):
    ld, _ = random_structure(np.random.default_rng(seed))
    eye, zero = np.eye(ld.n), np.zeros((ld.n, ld.n))
    for orientation in ("forward", "backward"):
        if not getattr(ld.flags, orientation):
            continue
        extended = extended_map(to_pair(ld, orientation))
        psi = -2.0 * (0.5 * (extended + extended.T))
        reference = (np.block([[psi, eye], [eye, zero]])
                     if orientation == "forward"
                     else np.block([[zero, eye], [eye, psi]]))
        assert np.array_equal(split_pairing(ld, orientation).gram, reference)


# ---------------------------------------------------------------------------
# SVD budget: a routine that grows an SVD fails here, not in a benchmark run


def svd_count(monkeypatch, routine, *args):
    calls = []
    svd = np.linalg.svd

    def counted(*a, **kw):
        calls.append(None)
        return svd(*a, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", counted)
        routine(*args)
    return len(calls)


@pytest.mark.parametrize("orientation", ["forward", "backward"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_svd_budget_of_the_linear_routines(monkeypatch, orientation, k):
    rng = np.random.default_rng(k)
    n = 4
    pair = PairRep(orientation, random_subspace(rng, n, k),
                   random_map(rng, k, "generic"))
    ab = ABRep(np.eye(n), random_map(rng, n, "generic"))
    ld = from_pair(pair)
    # to_pair: one SVD of the range half gives carrier and map
    assert svd_count(monkeypatch, to_pair, ld, orientation) == 1
    # classification: one SVD per half, for the two meets
    assert svd_count(monkeypatch, classification_residuals, ld.space) == 2
    # from_ab: orthonormalize the spanning set, then classify
    assert svd_count(monkeypatch, from_ab, ab) == 1 + 2
    # from_pair with 0 < k < n: complement of the carrier, orthonormalize,
    # classify
    assert svd_count(monkeypatch, from_pair, pair) == 1 + 1 + 2
