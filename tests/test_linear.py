"""Linear structures on R^n ⊕ R^n*: construction, classification, pairing,
deformation."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import (planted_rank, random_dirac, random_map, random_structure,
                  random_subspace, same_bits, subspace_residual,
                  sum_with_annihilator)
from ldkit import (DEFAULT_TOLERANCE, ABRep, DegenerateRepresentationError,
                   InputError, LDFlags, LinearLD, NotLDStructureError,
                   OrientationError, PairRep, PreconditionError, Subspace,
                   Tolerance, classification_residuals, cotangent_part,
                   damped_particle, deform, from_ab, from_pair,
                   from_subspace, pointwise, rank_kernel, split_pairing,
                   tangent_part, to_pair)

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


def test_builders_classify_at_the_caller_tolerance():
    rep = ABRep(np.eye(2), 1e-6 * np.eye(2))
    ld = from_ab(rep)
    assert ld.tol == DEFAULT_TOLERANCE
    assert not ld.flags.dirac  # sym residual ~1e-6 above default 1e-8
    with pytest.raises(PreconditionError):
        deform(ld, np.eye(2), "forward")
    tol = Tolerance(rank_eps=1e-9, residual_eps=1e-3)
    loose = from_ab(rep, tol)
    assert loose.tol == tol
    assert loose.residuals == ld.residuals
    assert loose.flags.dirac and loose.flags.symmetric_dirac
    # deform reads the Dirac flag at, and builds its result at, loose.tol
    assert deform(loose, np.eye(2), "forward").tol == tol


# A 1e-5 singular value in the vector half: rank at the default cutoffs,
# roundoff at 1e-3.  Built at 1e-3 the structure is separable, and every
# result derived from it must decide at 1e-3 too.
MARGINAL = ABRep(np.diag([1.0, 1e-5]), np.diag([0.0, 1.0]))
LOOSE = Tolerance(rank_eps=1e-3, residual_eps=1e-3)


def test_flags_are_the_residuals_at_the_build_tolerance():
    ld = from_ab(MARGINAL, LOOSE)
    assert ld.tol == LOOSE
    assert ld.residuals == classification_residuals(ld.space, LOOSE)
    assert ld.flags == LDFlags(**{name: value <= 1e-3
                                  for name, value in ld.residuals.items()})
    assert ld.flags.separable


@pytest.mark.parametrize("orientation", ["forward", "backward"])
def test_pairs_and_pairings_decide_at_the_build_tolerance(orientation):
    ld = from_ab(MARGINAL, LOOSE)
    pair = to_pair(ld, orientation)
    assert pair.carrier.dim == 1
    assert split_pairing(ld, orientation).signature == (2, 2)
    assert from_pair(pair, ld.tol).flags == ld.flags


# The split pairing's Gram matrix is never singular, so no eigenvalue may be
# cut as zero, however large the carrier map: Psi = diag(0, 1e6) at the
# default tolerance, diag(0, 500) at 1e-3.
@pytest.mark.parametrize("small, tol", [(1e-6, DEFAULT_TOLERANCE),
                                        (2e-3, LOOSE)])
@pytest.mark.parametrize("orientation", ["forward", "backward"])
def test_a_large_carrier_map_keeps_the_signature(small, tol, orientation):
    ld = from_ab(ABRep(np.diag([1.0, small]), np.diag([0.0, 1.0])), tol)
    assert split_pairing(ld, orientation).signature == (2, 2)


# The shear is invertible, so a large form must not cost the sheared basis a
# column, at a loose build tolerance or the default one.
@pytest.mark.parametrize("size, tol", [(1e3, LOOSE),
                                       (1e10, DEFAULT_TOLERANCE)])
def test_deform_keeps_every_column_of_a_large_form(size, tol):
    ld = from_ab(ABRep(np.eye(2), np.zeros((2, 2))), tol)
    shifted = deform(ld, np.diag([size, 0.0]), "forward")
    assert shifted.tol == tol
    # the graph of the form: span{(e1, size e1), (e2, 0)}
    graph = np.zeros((4, 2))
    graph[[0, 2], 0] = np.array([1.0, size]) / np.hypot(1.0, size)
    graph[1, 1] = 1.0
    assert shifted.space.equals(Subspace(4, graph))


def test_linear_ld_checks_and_freezes_its_residuals():
    # the structure classifies its own subspace: the residuals are derived,
    # not given, and read-only
    ld = from_ab(ABRep(np.eye(2), POISSON_2))
    assert [f.name for f in dataclasses.fields(LinearLD) if f.init] == \
        ["space", "tol"]
    with pytest.raises(TypeError):
        ld.residuals["forward"] = 1.0
    with pytest.raises(TypeError):
        LinearLD(ld.space, ld.tol, ld.residuals)
    copy = LinearLD(ld.space)
    assert copy.tol == DEFAULT_TOLERANCE and copy.n == 2
    assert copy.flags == ld.flags and copy.residuals == ld.residuals


@pytest.mark.parametrize("space", [
    Subspace.zero(0), Subspace.full(3), Subspace(3, np.eye(3)[:, :1]),
    Subspace.zero(4), Subspace.full(4)],
    ids=["n=0", "odd full", "odd line", "zero in R^4", "all of R^4"])
def test_linear_ld_refuses_a_subspace_of_the_wrong_shape(space):
    with pytest.raises(InputError):
        LinearLD(space)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([DEFAULT_TOLERANCE, LOOSE,
                            Tolerance(rank_eps=1e-12, residual_eps=1e-12)]))
def test_linear_ld_classifies_as_from_subspace(seed, tol):
    space = random_structure(np.random.default_rng(seed))[0].space
    try:
        built = from_subspace(space, tol)
    except NotLDStructureError:
        with pytest.raises(NotLDStructureError):
            LinearLD(space, tol)
        return
    ld = LinearLD(space, tol)
    assert ld.flags == built.flags and ld.tol == tol
    residuals = classification_residuals(space, tol)
    for name in residuals:
        assert same_bits(ld.residuals[name], built.residuals[name])
        assert same_bits(ld.residuals[name], residuals[name])


def test_replacing_the_tolerance_classifies_again():
    ld = dataclasses.replace(from_ab(MARGINAL), tol=LOOSE)
    assert not from_ab(MARGINAL).flags.separable
    assert ld.tol == LOOSE
    assert ld.flags == from_ab(MARGINAL, LOOSE).flags
    assert ld.residuals == classification_residuals(ld.space, LOOSE)
    with pytest.raises(ValueError):
        dataclasses.replace(ld, flags=ld.flags)


def test_from_subspace_rejects_non_structure_with_residuals():
    # span{(e1, 0), (0, e1*)}; LinearLD takes no residuals to trust
    bad = span([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])
    for build in (from_subspace, LinearLD):
        with pytest.raises(NotLDStructureError) as err:
            build(bad)
        assert err.value.forward_residual > 0.0
        assert err.value.backward_residual > 0.0


def test_classification_residuals_need_an_even_double():
    with pytest.raises(InputError, match="even"):
        classification_residuals(Subspace.full(3))


def test_the_zero_subspace_has_zero_residuals():
    # it satisfies every equation vacuously; LinearLD refuses it by
    # dimension, not by residual
    assert classification_residuals(Subspace.zero(4)) == dict.fromkeys(
        ("forward", "backward", "dirac", "symmetric_dirac", "separable"), 0.0)


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


def test_deform_rejects_a_misshapen_form():
    ld = from_ab(ABRep(np.eye(2), POISSON_2))
    with pytest.raises(InputError, match="2x2"):
        deform(ld, np.eye(3), "forward")


def test_pairs_and_deformations_take_only_the_two_orientations():
    ld = from_ab(ABRep(np.eye(2), POISSON_2))
    with pytest.raises(InputError, match="unknown orientation"):
        to_pair(ld, "sideways")
    with pytest.raises(InputError, match="unknown direction"):
        deform(ld, np.eye(2), "sideways")


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


@given(seed=st.integers(0, 10_000),
       eps=st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6, 1e-3]))
@settings(max_examples=60)
def test_a_structure_decides_everything_at_its_own_tolerance(seed, eps):
    drawn, _ = random_structure(np.random.default_rng(seed))
    ld = from_subspace(drawn.space, Tolerance(rank_eps=eps, residual_eps=eps))
    assert ld.flags == LDFlags(**{name: value <= eps
                                  for name, value in ld.residuals.items()})
    meets = {"forward": cotangent_part, "backward": tangent_part}
    for orientation, meet in meets.items():
        if not getattr(ld.flags, orientation):
            continue
        pair = to_pair(ld, orientation)
        assert pair.carrier.dim + meet(ld).dim == ld.n
        assert getattr(from_pair(pair, ld.tol).flags, orientation)
        assert split_pairing(ld, orientation).signature == (ld.n, ld.n)


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
    # to_pair and split_pairing read the SVD the classification kept
    assert svd_count(monkeypatch, to_pair, ld, orientation) == 0
    assert svd_count(monkeypatch, split_pairing, ld, orientation) == 0
    # the meets read it too, and take one SVD to orthonormalize their
    # columns; the annihilator of the carrier is in the meet of its
    # orientation, and an empty meet takes none
    for meet in (tangent_part, cotangent_part):
        assert svd_count(monkeypatch, meet, ld) == int(meet(ld).dim > 0)
    oriented = cotangent_part if orientation == "forward" else tangent_part
    assert oriented(ld).dim == n - k
    # classification: one SVD per half, for the two meets, kept by LinearLD
    assert svd_count(monkeypatch, classification_residuals, ld.space) == 2
    assert svd_count(monkeypatch, LinearLD, ld.space) == 2
    # from_ab: orthonormalize the spanning set, then classify
    assert svd_count(monkeypatch, from_ab, ab) == 1 + 2
    # from_pair with 0 < k < n: complement of the carrier, orthonormalize,
    # classify
    assert svd_count(monkeypatch, from_pair, pair) == 1 + 1 + 2


# ---------------------------------------------------------------------------
# The kept factorization: everything derived from a structure equals what a
# fresh SVD of its half gives


def fresh_pair(ld, orientation):
    """(carrier basis, map) from a fresh SVD of the range half of ld's
    basis, by the formula of to_pair, its rank cut at ld.tol.rank_eps."""
    n = ld.n
    range_half, other_half = ((ld.space.basis[:n], ld.space.basis[n:])
                              if orientation == "forward"
                              else (ld.space.basis[n:], ld.space.basis[:n]))
    u, s, vt = np.linalg.svd(range_half)
    rank = int(np.count_nonzero(s > ld.tol.rank_eps))
    matrix = u[:, :rank].T @ (other_half @ (vt[:rank].T / s[:rank]))
    return np.array(u[:, :rank]), matrix


def fresh_gram(ld, orientation):
    carrier, matrix = fresh_pair(ld, orientation)
    n = ld.n
    extended = carrier @ matrix @ carrier.T
    half = 0.5 * extended
    gram = np.zeros((2 * n, 2 * n))
    gram[:n, n:] = gram[n:, :n] = np.eye(n)
    block = slice(None, n) if orientation == "forward" else slice(n, None)
    gram[block, block] = -2.0 * (half + half.T)
    return gram


def fresh_meet(ld, orientation):
    """L ∩ V* (forward) or L ∩ V (backward) from a fresh SVD of the range
    half, orthonormalized at ld.tol.rank_eps."""
    n = ld.n
    range_half, other_half = ((ld.space.basis[:n], ld.space.basis[n:])
                              if orientation == "forward"
                              else (ld.space.basis[n:], ld.space.basis[:n]))
    _, s, vt = np.linalg.svd(range_half)
    meet = other_half @ vt[int(np.count_nonzero(s > ld.tol.rank_eps)):].T
    if meet.size == 0:
        return np.zeros((n, 0))
    u, s, _ = np.linalg.svd(meet, full_matrices=False)
    return u[:, :int(np.count_nonzero(s > ld.tol.rank_eps * s[0]))]


def assert_derived_from_a_fresh_svd(ld):
    for orientation, meet in (("forward", cotangent_part),
                              ("backward", tangent_part)):
        assert same_bits(meet(ld).basis, fresh_meet(ld, orientation))
        if not getattr(ld.flags, orientation):
            continue
        carrier, matrix = fresh_pair(ld, orientation)
        pair = to_pair(ld, orientation)
        assert pair.carrier.basis.shape == carrier.shape
        assert same_bits(pair.carrier.basis, carrier)
        assert same_bits(pair.matrix, matrix)
        pairing = split_pairing(ld, orientation)
        assert same_bits(pairing.gram, fresh_gram(ld, orientation))
        assert pairing.signature == (ld.n, ld.n)


def marginal_structure(rng, n, small):
    """span{(d_i q_i, c_i q_i)} for an orthogonal q: its vector half has
    the singular value small / hypot(small, 1) and n - 1 near 1, so it is
    forward and backward at the default cutoffs and at LOOSE."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = np.ones(n)
    c = rng.uniform(-2.0, 2.0, size=n)
    d[-1], c[-1] = small, 1.0
    return from_ab(ABRep(q * d, q * c))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_derived_results_equal_a_fresh_svd_of_the_half(seed, n, data):
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(0, n), label="k")
    orientation = data.draw(st.sampled_from(["forward", "backward"]),
                            label="orientation")
    kind = data.draw(st.sampled_from(["generic", "skew", "sym", "zero"]),
                     label="kind")
    ld = from_pair(PairRep(orientation, random_subspace(rng, n, k),
                           random_map(rng, k, kind)))
    assert_derived_from_a_fresh_svd(ld)
    # the factors are kept read-only, and are no part of == or repr
    for u, s, vt in ld._svd.values():
        assert not (u.flags.writeable or s.flags.writeable
                    or vt.flags.writeable)
    with pytest.raises(TypeError):
        ld._svd["forward"] = ld._svd["backward"]
    assert ld == LinearLD(ld.space, ld.tol)
    assert repr(ld) == (f"LinearLD(space={ld.space!r}, tol={ld.tol!r}, "
                        f"n={ld.n!r}, residuals={ld.residuals!r}, "
                        f"flags={ld.flags!r})")
    # re-classified at a looser rank_eps, a singular value between the two
    # cutoffs leaves the rank: the factors and every rank are taken again
    small = data.draw(st.sampled_from([1e-8, 1e-6, 1e-5, 1e-4]),
                      label="small")
    marginal = marginal_structure(rng, n, small)
    loose = dataclasses.replace(marginal, tol=LOOSE)
    assert loose != marginal
    for structure in (marginal, loose):
        assert_derived_from_a_fresh_svd(structure)
    assert to_pair(marginal, "forward").carrier.dim == n
    assert to_pair(loose, "forward").carrier.dim == n - 1


# The stacked basis of a pair has full column rank n by construction, so a
# map far above 1/rank_eps must not cost it the unit-size complement columns.
# At the parent both builds raised InputError("... must have dimension n").
def test_a_pair_with_a_large_map_keeps_every_column():
    ld = from_pair(PairRep("backward", span([1, 0, 0], [0, 1, 0]),
                           1e10 * POISSON_2))
    assert ld.space.dim == 3 and ld.flags.backward
    # L = span{(Pi e1, e1), (Pi e2, e2), (e3, 0)}, orthogonal columns
    exact = np.array([[0, -1e10, 0, 1, 0, 0], [1e10, 0, 0, 0, 1, 0],
                      [0, 0, 1, 0, 0, 0]]).T
    assert ld.space.equals(Subspace(6, exact / np.linalg.norm(exact, axis=0)))
    # the particle with a large friction: the compression of Pi(0) to the
    # 5-dimensional carrier ker G(0)^T holds -1e10
    ld = pointwise(damped_particle((1e10, 1.0, 1.0)).ld, np.zeros(6))
    assert ld.space.dim == 6 and ld.flags.backward


@pytest.mark.parametrize("copy", [lambda ld: pickle.loads(pickle.dumps(ld)),
                                  copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
def test_a_structure_survives_pickling_and_copying(copy):
    ld = from_ab(ABRep(np.eye(3), random_map(np.random.default_rng(5), 3,
                                             "generic")), LOOSE)
    twin = copy(ld)
    assert twin == ld
    assert twin.space == ld.space and twin.tol == ld.tol
    assert twin.flags == ld.flags
    assert dict(twin.residuals) == dict(ld.residuals)
    assert not twin.space.basis.flags.writeable
    for orientation, (u, s, vt) in ld._svd.items():
        for kept, copied in zip((u, s, vt), twin._svd[orientation]):
            assert same_bits(copied, kept) and not copied.flags.writeable
