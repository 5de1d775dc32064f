"""Pointwise structures on R^n: fields, brackets, admissibility, diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import product_field, random_quadratic
from ldkit import (AdmissibilityError, ConstraintField, DIHSystem, InputError,
                   IntegratorConfig, LDField, RegularityError, ScalarField,
                   Subspace, TensorField, bracket, carrier_at,
                   damped_particle, energy_rate, kernel_form, pointwise,
                   regularity_scan, simulate, tangent_part)

CANONICAL_2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def coordinate(dim: int, i: int) -> ScalarField:
    e = np.zeros(dim)
    e[i] = 1.0
    return ScalarField(dim, value=lambda x, e=e: float(e @ x),
                       gradient=lambda x, e=e: e.copy())


def poisson_field(n: int = 2) -> LDField:
    half = n // 2
    p = np.block([[np.zeros((half, half)), np.eye(half)],
                  [-np.eye(half), np.zeros((half, half))]])
    return LDField(TensorField.constant(p), ConstraintField.none(n))


def metric_field(diag) -> LDField:
    g = np.diag(np.asarray(diag, dtype=float))
    return LDField(TensorField.constant(-g), ConstraintField.none(len(diag)))


# ---------------------------------------------------------------------------
# field types


def test_scalar_field_finite_difference_gradient_matches_analytic():
    f = ScalarField(2, value=lambda x: float(np.sin(x[0]) * x[1] ** 2))
    x = np.array([0.3, -1.2])
    expected = np.array([np.cos(0.3) * 1.44, np.sin(0.3) * -2.4])
    assert np.allclose(f.grad(x), expected, atol=1e-8)


def test_scalar_field_check_gradient_flags_a_wrong_analytic_gradient():
    good = ScalarField(1, value=lambda x: float(x[0] ** 2),
                       gradient=lambda x: 2.0 * x)
    bad = ScalarField(1, value=lambda x: float(x[0] ** 2),
                      gradient=lambda x: 3.0 * x)
    good.check_gradient([np.array([0.7])])
    with pytest.raises(InputError):
        bad.check_gradient([np.array([0.7])])


def test_scalar_field_rejects_non_finite_value():
    f = ScalarField(1, value=lambda x: float("nan"))
    with pytest.raises(InputError):
        f(np.array([0.0]))


@pytest.mark.parametrize("value", [lambda x: x.copy(), lambda x: None],
                         ids=["array", "none"])
def test_scalar_field_rejects_a_value_that_is_not_a_scalar(value):
    f = ScalarField(2, value=value)
    with pytest.raises(InputError, match="scalar field"):
        f(np.array([1.0, 2.0]))


def test_finite_difference_gradient_rejects_a_value_that_is_not_a_scalar():
    f = ScalarField(2, value=lambda x: x.copy())
    with pytest.raises(InputError, match="scalar field"):
        f.grad(np.ones(2))


def test_check_gradient_rejects_a_value_that_is_not_a_scalar():
    f = ScalarField(2, value=lambda x: x.copy(), gradient=lambda x: x.copy())
    with pytest.raises(InputError, match="scalar field"):
        f.check_gradient([np.ones(2)])


def test_tensor_field_validates_shape_and_finiteness():
    bad_shape = TensorField(2, evaluate=lambda x: np.zeros((2, 3)))
    with pytest.raises(InputError):
        bad_shape(np.zeros(2))
    bad_value = TensorField(1, evaluate=lambda x: np.array([[np.inf]]))
    with pytest.raises(InputError):
        bad_value(np.zeros(1))


def test_constraint_field_rank_check_fires_at_rank_drop():
    g = ConstraintField(1, 1, evaluate=lambda x: np.array([[x[0]]]))
    assert g(np.array([2.0])).shape == (1, 1)
    with pytest.raises(RegularityError):
        g(np.array([0.0]))
    # raw access skips the check
    assert g.matrix(np.array([0.0])) == np.zeros((1, 1))


def test_constraint_field_rejects_more_columns_than_dimensions():
    # a 2x3 G can never have full column rank
    with pytest.raises(InputError):
        ConstraintField(2, 3, evaluate=lambda x: np.ones((2, 3)))
    with pytest.raises(InputError):
        ConstraintField.constant(np.eye(2, 3))


def test_constraint_field_none_has_no_columns():
    g = ConstraintField.none(3)
    assert g.k == 0
    assert g(np.zeros(3)).shape == (3, 0)


def test_ld_field_requires_matching_dimensions():
    with pytest.raises(InputError):
        LDField(TensorField.constant(np.eye(2)), ConstraintField.none(3))


# ---------------------------------------------------------------------------
# pointwise


def test_pointwise_canonical_tensor_is_dirac():
    ld = pointwise(poisson_field(2), np.zeros(2))
    assert ld.flags.dirac
    assert ld.flags.backward


def test_pointwise_negative_identity_tensor_is_symmetric_dirac():
    field = LDField(TensorField.constant(-np.eye(2)), ConstraintField.none(2))
    ld = pointwise(field, np.zeros(2))
    assert ld.flags.symmetric_dirac
    assert not ld.flags.dirac


def test_pointwise_particle_tangent_part_is_the_constraint_image():
    sys = damped_particle()
    at_origin = pointwise(sys.ld, np.zeros(6))
    e6 = np.zeros(6)
    e6[5] = 1.0
    assert tangent_part(at_origin).equals(Subspace.from_spanning(e6[:, None]))
    x = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    column = np.array([0.0, 0.0, 0.0, 1.0, 0.0, -1.0])
    at_x = pointwise(sys.ld, x)
    assert tangent_part(at_x).equals(Subspace.from_spanning(column[:, None]))


def test_pointwise_raises_when_constraint_loses_rank():
    field = LDField(
        TensorField.constant(np.zeros((1, 1))),
        ConstraintField(1, 1, evaluate=lambda x: np.array([[x[0]]])))
    with pytest.raises(RegularityError):
        pointwise(field, np.zeros(1))


def test_carrier_at_is_the_kernel_of_the_transposed_constraint():
    sys = damped_particle()
    x = np.array([0.0, 0.5, 0.0, 1.0, 0.0, 0.5])
    carrier = carrier_at(sys.ld, x)
    assert carrier.dim == 5
    g = sys.ld.forces.matrix(x)
    assert np.abs(g.T @ carrier.basis).max() <= 1e-12
    # the mixed covector direction dp_x + y dp_z lies in the carrier
    mixed = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.5])
    assert carrier.contains(mixed)


# ---------------------------------------------------------------------------
# bracket


def test_bracket_canonical_coordinates():
    field = poisson_field(2)
    q, p = coordinate(2, 0), coordinate(2, 1)
    val = bracket(field, q, p, np.zeros(2))
    assert val.full == pytest.approx(1.0)
    assert val.skew == pytest.approx(1.0)
    assert val.sym == pytest.approx(0.0, abs=1e-15)
    assert bracket(field, p, q, np.zeros(2)).full == pytest.approx(-1.0)


def test_bracket_pure_metric_is_negative_gradient_inner_product():
    field = metric_field([1.0, 1.0])
    f = ScalarField(2, value=lambda x: float(x[0] * x[1]),
                    gradient=lambda x: np.array([x[1], x[0]]))
    g = ScalarField(2, value=lambda x: float(x[0] + x[1]),
                    gradient=lambda x: np.ones(2))
    x = np.array([2.0, 3.0])
    val = bracket(field, f, g, x)
    assert val.full == pytest.approx(-(3.0 + 2.0))
    assert val.skew == pytest.approx(0.0, abs=1e-15)
    assert val.sym == pytest.approx(val.full)


def test_bracket_particle_momentum_table():
    # symmetric part [p_i, p_j] = -delta_ij * mu_i; skew part {q_i, p_j} =
    # delta_ij, tabulated on the field with the particle's Pi and no
    # constraint, whose every function is admissible
    mu = (2.0, 1.0, 0.5)
    sys = damped_particle(mu)
    table = LDField(sys.ld.pi, ConstraintField.none(6))
    x = np.array([0.1, 0.4, -0.2, 0.3, 0.8, -0.5])
    for i in range(3):
        for j in range(3):
            p_i = coordinate(6, 3 + i)
            p_j = coordinate(6, 3 + j)
            val = bracket(table, p_i, p_j, x)
            expected = -mu[i] if i == j else 0.0
            assert val.sym == pytest.approx(expected, abs=1e-12)
            q_i = coordinate(6, i)
            qp = bracket(table, q_i, p_j, x)
            assert qp.skew == pytest.approx(1.0 if i == j else 0.0,
                                            abs=1e-12)
            assert qp.sym == pytest.approx(0.0, abs=1e-12)


def test_bracket_full_equals_skew_plus_sym_exactly():
    rng = np.random.default_rng(23)
    field = LDField(TensorField.constant(rng.standard_normal((3, 3))),
                    ConstraintField.none(3))
    f, g = random_quadratic(rng, 3), random_quadratic(rng, 3)
    for _ in range(10):
        val = bracket(field, f, g, rng.standard_normal(3))
        assert val.full == val.skew + val.sym


def test_bracket_rejects_inadmissible_function():
    sys = damped_particle()
    x = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    p_z = coordinate(6, 5)
    h = ScalarField(6, value=lambda x: 0.5 * float(x[3:] @ x[3:]),
                    gradient=lambda x: np.concatenate([np.zeros(3), x[3:]]))
    with pytest.raises(AdmissibilityError) as err:
        bracket(sys.ld, p_z, h, x)
    assert err.value.component == 0
    assert err.value.residual > 0.1


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_the_admissibility_gate_does_not_depend_on_the_scale_of_df(scale):
    # df = scale * e4 against the particle's column (0, 0, 0, 1, 0, -1): the
    # norm of df overflows at 1e160 and underflows to 0 at 1e-170, yet the
    # normalized violation is 1/sqrt(2) at every scale, as at scale 1
    sys = damped_particle()
    x = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    e4 = np.eye(6)[3]
    f = ScalarField(6, value=lambda y: scale * float(y[3]),
                    gradient=lambda y: scale * e4)
    h = sys.hamiltonian
    with pytest.raises(AdmissibilityError) as unit:
        bracket(sys.ld, coordinate(6, 3), h, x)
    with pytest.raises(AdmissibilityError) as err:
        bracket(sys.ld, f, h, x)
    assert err.value.component == unit.value.component == 0
    assert err.value.residual == unit.value.residual == pytest.approx(
        2.0 ** -0.5, rel=1e-15)


def test_bracket_admissible_directions_pass_the_gate():
    sys = damped_particle()
    x = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    # p_x + y p_z differentiates to dp_x + y dp_z, which annihilates the
    # constraint column (0,0,0,y,0,-1) at fixed y
    u = ScalarField(6, value=lambda x: float(x[3] + x[1] * x[5]),
                    gradient=None)
    y_coord = coordinate(6, 1)
    val = bracket(sys.ld, y_coord, u, x)
    assert np.isfinite(val.full)


def test_bracket_leibniz_identity_on_the_canonical_field():
    rng = np.random.default_rng(31)
    field = poisson_field(4)
    f, g, h = (random_quadratic(rng, 4) for _ in range(3))
    fg = product_field(f, g)
    for _ in range(5):
        x = rng.standard_normal(4)
        lhs = bracket(field, fg, h, x).full
        rhs = (f(x) * bracket(field, g, h, x).full
               + g(x) * bracket(field, f, h, x).full)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_bracket_product_of_admissible_functions_stays_admissible():
    sys = damped_particle()
    x = np.array([0.2, 0.7, -0.1, 0.5, 0.3, 0.35])
    f = ScalarField(6, value=lambda x: float(x[0] * x[4]))
    g = ScalarField(6, value=lambda x: float(x[3] + x[1] * x[5]))
    fg = product_field(ScalarField(6, f.value), ScalarField(6, g.value))
    carrier = carrier_at(sys.ld, x)
    assert carrier.membership_residual(fg.grad(x)) <= 1e-6


# ---------------------------------------------------------------------------
# regularity diagnostics


def test_regularity_scan_unconstrained_field_has_constant_ranks():
    report = regularity_scan(poisson_field(2), [np.zeros(2), np.ones(2)])
    assert report.constant_rank
    assert not report.jumps
    assert tuple(report.g_ranks) == (0, 0)
    assert tuple(report.codistribution_ranks) == (2, 2)


def test_regularity_scan_flags_a_rank_drop():
    field = LDField(
        TensorField.constant(np.zeros((1, 1))),
        ConstraintField(1, 1, evaluate=lambda x: np.array([[x[0]]])))
    report = regularity_scan(field, [np.array([-1.0]), np.array([0.0]),
                                     np.array([1.0])])
    assert not report.constant_rank
    assert tuple(report.g_ranks) == (1, 0, 1)
    assert 1 in report.jumps


@pytest.mark.parametrize("samples", [[], np.zeros((0, 2))],
                         ids=["empty list", "no rows"])
def test_regularity_scan_needs_a_sample(samples):
    with pytest.raises(InputError):
        regularity_scan(poisson_field(2), samples)


def test_field_constructors_refuse_malformed_parts():
    with pytest.raises(InputError, match="square"):
        TensorField.constant(np.zeros((2, 3)))
    with pytest.raises(InputError, match="needs a callable"):
        ConstraintField(2, 1)


def test_check_gradient_without_an_analytic_gradient_is_a_no_op():
    # not even the probe points are read
    f = ScalarField(2, value=lambda x: float(x @ x))
    assert f.check_gradient([[1.0, 2.0, 3.0], [np.nan]]) is None


def test_bracket_with_a_zero_differential_is_zero_and_admissible():
    # the admissibility gate scales by |df|; with df = 0 it has nothing to
    # check, and no 0 / 0 is formed
    sys = damped_particle()
    zero = ScalarField(6, value=lambda x: 0.0, gradient=lambda x: np.zeros(6))
    with np.errstate(all="raise"):
        value = bracket(sys.ld, zero, sys.hamiltonian,
                        [0.0, 0.3, 0.0, 1.0, 0.5, 0.3])
    assert value == (0.0, 0.0, 0.0)


def test_regularity_scan_particle_ranks_are_constant():
    rng = np.random.default_rng(3)
    sys = damped_particle()
    samples = [rng.standard_normal(6) for _ in range(20)]
    report = regularity_scan(sys.ld, samples)
    assert report.constant_rank
    assert set(report.g_ranks) == {1}
    assert set(report.codistribution_ranks) == {5}


# ---------------------------------------------------------------------------
# properties


@given(seed=st.integers(0, 5_000))
@settings(max_examples=40)
def test_bracket_symmetry_split_on_random_tensors(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    field = LDField(TensorField.constant(rng.standard_normal((n, n))),
                    ConstraintField.none(n))
    f, g = random_quadratic(rng, n), random_quadratic(rng, n)
    x = rng.standard_normal(n)
    fg = bracket(field, f, g, x)
    gf = bracket(field, g, f, x)
    scale = max(1.0, abs(fg.skew), abs(fg.sym))
    assert abs(fg.skew + gf.skew) <= 1e-12 * scale
    assert abs(fg.sym - gf.sym) <= 1e-12 * scale


def test_bracket_of_a_friction_near_the_float_maximum_is_finite():
    # Pi_44 = -1e308 and Pi_14 = -Pi_41 = 1: (Pi + Pi^T)/2 overflowed to
    # -inf, Pi/2 + Pi^T/2 does not, and sym is the [H, H] of energy_rate
    sys = damped_particle((1e308, 1.0, 1.0))
    h = sys.hamiltonian
    x0 = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    value = bracket(LDField(sys.ld.pi, ConstraintField.none(6)), h, h, x0)
    assert value == (-1e308, 0.0, -1e308)
    assert value.sym == energy_rate(sys, x0)


# ---------------------------------------------------------------------------
# the fixed cutoffs: one rank rule for G, one admissibility bound


def graded_system(sigma: float) -> DIHSystem:
    """A system on R^3 whose constant G has singular values 1 and sigma;
    (0, 0, 1) is consistent, and x3 is admissible there."""
    g = np.array([[1.0, 0.0], [0.0, sigma], [0.0, 0.0]])
    h = ScalarField(3, value=lambda x: 0.5 * float(x @ x),
                    gradient=lambda x: x.copy())
    return DIHSystem(3, LDField(TensorField.constant(np.zeros((3, 3))),
                                ConstraintField.constant(g)), h)


RANK_CHECKS = {
    "ConstraintField.__call__": lambda sys, x: sys.ld.forces(x),
    "carrier_at": lambda sys, x: carrier_at(sys.ld, x),
    "pointwise": lambda sys, x: pointwise(sys.ld, x),
    "kernel_form": lambda sys, x: kernel_form(sys, x),
    "bracket": lambda sys, x: bracket(sys.ld, coordinate(3, 2),
                                      sys.hamiltonian, x),
    "simulate set-up": lambda sys, x: simulate(
        sys, x, IntegratorConfig(dt=0.1, t_end=0.0)),
}


@pytest.mark.parametrize("check", RANK_CHECKS.values(), ids=RANK_CHECKS)
def test_g_has_full_rank_down_to_1e_9_of_its_largest_singular_value(check):
    x = np.array([0.0, 0.0, 1.0])
    check(graded_system(2e-9), x)
    with pytest.raises(RegularityError):
        check(graded_system(5e-10), x)


def test_regularity_scan_uses_the_same_rank_rule():
    field = LDField(TensorField.constant(np.zeros((3, 3))), ConstraintField(
        3, 2, lambda x: np.array([[1.0, 0.0], [0.0, x[0]], [0.0, 0.0]])))
    report = regularity_scan(field, [[2e-9, 0.0, 0.0], [2e-9, 0.0, 0.0],
                                     [5e-10, 0.0, 0.0]])
    assert report.g_ranks == (2, 2, 1)
    assert report.jumps == (2,)


@pytest.mark.parametrize("violation", [5e-9, 2e-8])
def test_bracket_admits_a_normalized_violation_up_to_1e_8(violation):
    # df = (v, 1) against G = e1: the normalized violation is
    # v / |(v, 1)|, which is v to within 1e-16 relative
    field = LDField(TensorField.constant(CANONICAL_2),
                    ConstraintField.constant([[1.0], [0.0]]))
    f = ScalarField(2, value=lambda x: float(violation * x[0] + x[1]),
                    gradient=lambda x: np.array([violation, 1.0]))
    x = np.array([0.3, -0.2])
    if violation < 1e-8:
        assert bracket(field, f, f, x).skew == 0.0
        return
    with pytest.raises(AdmissibilityError) as err:
        bracket(field, f, f, x)
    assert err.value.component == 0
    assert err.value.residual == pytest.approx(violation, rel=1e-12)
