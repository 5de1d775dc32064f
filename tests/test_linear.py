"""Linear structures on R^n ⊕ R^n*: construction, classification, pairing,
deformation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import (planted_rank, random_dirac, random_map, random_orthonormal,
                  random_structure, random_subspace, subspace_residual,
                  sum_with_annihilator)
from ldkit import (ABRep, DegenerateRepresentationError, InputError,
                   NotLDStructureError, OrientationError, PairRep,
                   PreconditionError, Subspace, Tolerance,
                   classification_residuals, classify, cotangent_part,
                   decompose_map, deform, from_ab, from_pair, from_subspace,
                   rank_kernel, split_pairing, tangent_part, to_pair)

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
# decompose_map


def test_decompose_map_splits_into_symmetric_and_skew_parts():
    sym, skew = decompose_map(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert np.array_equal(sym, np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.array_equal(skew, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_decompose_map_fixed_points():
    s = np.array([[2.0, 5.0], [5.0, -1.0]])
    w = np.array([[0.0, 3.0], [-3.0, 0.0]])
    assert np.array_equal(decompose_map(s)[0], s)
    assert np.array_equal(decompose_map(s)[1], np.zeros((2, 2)))
    assert np.array_equal(decompose_map(w)[0], np.zeros((2, 2)))
    assert np.array_equal(decompose_map(w)[1], w)


def test_decompose_map_rejects_non_square():
    with pytest.raises(InputError):
        decompose_map(np.ones((2, 3)))


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
    sym, skew = decompose_map(pair.matrix)
    sym_mag = float(np.abs(sym).max(initial=0.0))
    skew_mag = float(np.abs(skew).max(initial=0.0))
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
