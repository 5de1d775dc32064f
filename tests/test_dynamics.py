"""Constrained dissipative integration: multipliers, kernel form, simulation,
energy audits."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import (particle_consistent_state, particle_multiplier,
                  particle_rhs)
from ldkit import (ConsistencyError, ConstraintField, DegenerateMultiplierError,
                   DIHSystem, InputError, IntegratorConfig, LDField,
                   ScalarField, StepFailureError, Subspace, TensorField,
                   check_consistency, damped_particle, energy_audit,
                   energy_rate, kernel_form, multipliers, oracle_simulate,
                   rhs, simulate)


def harmonic_system() -> DIHSystem:
    h = ScalarField(2, value=lambda x: 0.5 * float(x @ x),
                    gradient=lambda x: x.copy())
    field = LDField(TensorField.constant(np.array([[0.0, 1.0], [-1.0, 0.0]])),
                    ConstraintField.none(2))
    return DIHSystem(2, field, h)


def gradient_flow_system() -> DIHSystem:
    s = ScalarField(2, value=lambda x: 0.5 * float(x @ x),
                    gradient=lambda x: x.copy())
    field = LDField(TensorField.constant(-np.eye(2)), ConstraintField.none(2))
    return DIHSystem(2, field, s)


# ---------------------------------------------------------------------------
# configuration


def test_integrator_config_validates_inputs():
    with pytest.raises(InputError):
        IntegratorConfig(dt=0.0, t_end=1.0)
    with pytest.raises(InputError):
        IntegratorConfig(dt=1e-3, t_end=-1.0)
    with pytest.raises(InputError):
        IntegratorConfig(dt=1e-3, t_end=1.0, projection_tol=0.0)
    with pytest.raises(InputError):
        IntegratorConfig(dt=1e-3, t_end=1.0, max_projection_iters=0)
    assert IntegratorConfig(dt=1e-3, t_end=0.0).steps == 0


def test_integrator_config_step_count_uses_floor_with_guard():
    assert IntegratorConfig(dt=1e-3, t_end=10.0).steps == 10_000
    assert IntegratorConfig(dt=0.01, t_end=0.0995).steps == 9
    assert IntegratorConfig(dt=0.1, t_end=0.3).steps == 3


# ---------------------------------------------------------------------------
# multipliers


def test_multipliers_unconstrained_system_returns_empty():
    lam, resid = multipliers(harmonic_system(), np.array([1.0, 0.0]))
    assert lam.shape == (0,)
    assert resid == 0.0


def test_multipliers_particle_at_rest_frame_vanishes():
    sys = damped_particle((1.0, 1.0, 1.0))
    lam, resid = multipliers(sys, np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
    assert lam == pytest.approx([0.0], abs=1e-12)
    assert resid <= 1e-12


def test_multipliers_particle_mixed_friction_point():
    sys = damped_particle((2.0, 1.0, 0.0))
    lam, _ = multipliers(sys, np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]))
    assert lam == pytest.approx([1.0], abs=1e-10)


def test_multipliers_match_hand_derived_formula_on_random_states():
    mu = (1.3, 0.7, 2.1)
    sys = damped_particle(mu)
    rng = np.random.default_rng(17)
    for _ in range(25):
        x = particle_consistent_state(rng)
        lam, resid = multipliers(sys, x)
        assert lam[0] == pytest.approx(particle_multiplier(x, mu), abs=1e-9)
        assert resid <= 1e-10


def test_multipliers_finite_difference_jacobian_agrees_with_analytic():
    mu = (2.0, 1.0, 0.0)
    analytic = damped_particle(mu)
    fd = dataclasses.replace(analytic, constraint_jacobian=None)
    x = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    lam_a, _ = multipliers(analytic, x)
    lam_fd, _ = multipliers(fd, x)
    assert lam_fd[0] == pytest.approx(lam_a[0], abs=1e-6)


def test_multipliers_reject_state_off_the_constraint_surface():
    sys = damped_particle()
    with pytest.raises(ConsistencyError) as err:
        multipliers(sys, np.array([0.0, 0.0, 0.0, 1.0, 0.0, 1.0]))
    assert "chi_c" in str(err.value)


def test_multipliers_degenerate_reduced_system_raises():
    # constraint direction e1 with H = x1*x2 makes the reduced matrix J@G
    # exactly zero while the constraint still drifts: no multiplier can keep
    # the flow on the surface
    h = ScalarField(2, value=lambda x: float(x[0] * x[1]),
                    gradient=lambda x: np.array([x[1], x[0]]))
    field = LDField(TensorField.constant(np.ones((2, 2))),
                    ConstraintField.constant(np.array([[1.0], [0.0]])))
    sys = DIHSystem(2, field, h)
    with pytest.raises(DegenerateMultiplierError) as err:
        multipliers(sys, np.array([2.0, 0.0]))
    assert err.value.ls_residual > 1.0


def test_multipliers_degenerate_but_consistent_direction_yields_min_norm():
    # constraint e2 with H independent of x2: the constraint holds
    # identically, J = 0, and the minimum-norm multiplier is zero
    s = ScalarField(2, value=lambda x: 0.5 * float(x[0] ** 2),
                    gradient=lambda x: np.array([x[0], 0.0]))
    field = LDField(TensorField.constant(-np.eye(2)),
                    ConstraintField.constant(np.array([[0.0], [1.0]])))
    sys = DIHSystem(2, field, s)
    lam, resid = multipliers(sys, np.array([1.0, 3.0]))
    assert lam == pytest.approx([0.0], abs=1e-12)
    assert resid <= 1e-12


# ---------------------------------------------------------------------------
# rhs and consistency


def test_rhs_harmonic_oscillator():
    out = rhs(harmonic_system(), np.array([0.3, -0.4]))
    assert out == pytest.approx([-0.4, -0.3])


def test_rhs_gradient_flow_is_negative_state():
    out = rhs(gradient_flow_system(), np.array([1.0, -2.0]))
    assert out == pytest.approx([-1.0, 2.0])


def test_rhs_particle_initial_motion():
    sys = damped_particle((1.0, 1.0, 1.0))
    out = rhs(sys, np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
    assert out == pytest.approx([1.0, 0.0, 0.0, -1.0, 0.0, 0.0], abs=1e-12)


def test_rhs_matches_hand_derived_vector_field_on_random_states():
    mu = (0.9, 1.4, 0.3)
    sys = damped_particle(mu)
    rng = np.random.default_rng(29)
    for _ in range(25):
        x = particle_consistent_state(rng)
        assert np.allclose(rhs(sys, x), particle_rhs(x, mu), atol=1e-9)


def test_rhs_keeps_the_constraint_stationary_to_first_order():
    sys = damped_particle((1.0, 2.0, 0.5))
    rng = np.random.default_rng(41)
    for _ in range(10):
        x = particle_consistent_state(rng)
        velocity = rhs(sys, x)
        jac = sys.constraint_jacobian(x)
        assert np.abs(jac @ velocity).max() <= 1e-9


def test_check_consistency_reports_membership():
    sys = damped_particle()
    good = check_consistency(sys, np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]))
    bad = check_consistency(sys, np.array([0.0, 0.0, 0.0, 1.0, 0.0, 1.0]))
    assert good.in_chi_c and good.residual <= 1e-12
    assert not bad.in_chi_c and bad.residual == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# kernel form


def test_kernel_form_unconstrained_is_the_plain_tensor_equation():
    sys = harmonic_system()
    x = np.array([0.5, 0.2])
    form = kernel_form(sys, x)
    assert np.array_equal(form.k_matrix, np.eye(2))
    assert form.reduced_rhs == pytest.approx(rhs(sys, x))


def test_kernel_form_constant_last_coordinate_constraint():
    n = 3
    s = ScalarField(n, value=lambda x: 0.5 * float(x[0] ** 2 + x[1] ** 2),
                    gradient=lambda x: np.array([x[0], x[1], 0.0]))
    g = np.zeros((n, 1))
    g[-1, 0] = 1.0
    field = LDField(TensorField.constant(-np.eye(n)),
                    ConstraintField.constant(g))
    sys = DIHSystem(n, field, s)
    form = kernel_form(sys, np.array([1.0, 1.0, 0.0]))
    assert form.k_matrix.shape == (2, 3)
    assert np.abs(form.k_matrix @ g).max() <= 1e-12
    spanned = Subspace.from_spanning(form.k_matrix.T)
    first_two = Subspace.from_spanning(np.eye(3)[:, :2])
    assert spanned.equals(first_two)


def test_kernel_form_particle_annihilates_constraint_and_matches_rhs():
    sys = damped_particle((1.0, 1.0, 1.0))
    x = np.array([0.0, 0.7, 0.2, 0.5, -0.1, 0.35])
    form = kernel_form(sys, x)
    g = sys.ld.forces.matrix(x)
    assert form.k_matrix.shape == (5, 6)
    assert np.abs(form.k_matrix @ g).max() <= 1e-12
    velocity = rhs(sys, x)
    assert np.allclose(form.reduced_lhs @ velocity, form.reduced_rhs,
                       atol=1e-9)


# ---------------------------------------------------------------------------
# energy rate


def test_energy_rate_skew_tensor_is_exactly_zero():
    sys = harmonic_system()
    assert energy_rate(sys, np.array([3.0, 4.0])) == 0.0


def test_energy_rate_gradient_flow_is_negative_squared_gradient():
    sys = gradient_flow_system()
    x = np.array([1.0, 2.0])
    assert energy_rate(sys, x) == pytest.approx(-5.0)


def test_energy_rate_particle_is_weighted_momentum_dissipation():
    mu = (2.0, 0.5, 1.0)
    sys = damped_particle(mu)
    x = np.array([0.0, 0.3, 0.1, 1.0, -2.0, 0.3])
    expected = -(mu[0] * 1.0 + mu[1] * 4.0 + mu[2] * 0.09)
    assert energy_rate(sys, x) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_harmonic_conserves_energy():
    sys = harmonic_system()
    traj = simulate(sys, np.array([1.0, 0.0]),
                    IntegratorConfig(dt=1e-3, t_end=10.0))
    assert traj.times.shape == (10_001,)
    drift = np.abs(traj.energies - traj.energies[0]).max()
    assert drift <= 1e-8
    assert np.allclose(np.diff(traj.times), 1e-3)


def test_simulate_harmonic_matches_the_closed_form_flow():
    sys = harmonic_system()
    traj = simulate(sys, np.array([1.0, 0.0]),
                    IntegratorConfig(dt=1e-3, t_end=2.0))
    exact = np.column_stack([np.cos(traj.times), -np.sin(traj.times)])
    assert np.abs(traj.states - exact).max() <= 1e-9


def test_simulate_gradient_flow_matches_exponential_decay():
    sys = gradient_flow_system()
    traj = simulate(sys, np.array([1.0, 1.0]),
                    IntegratorConfig(dt=1e-3, t_end=1.0))
    expected = np.exp(-1.0)
    assert traj.states[-1] == pytest.approx([expected, expected], abs=1e-6)


def test_simulate_zero_horizon_records_only_the_initial_state():
    traj = simulate(harmonic_system(), np.array([1.0, 0.0]),
                    IntegratorConfig(dt=1e-3, t_end=0.0))
    assert traj.times.shape == (1,)
    assert traj.states[0] == pytest.approx([1.0, 0.0])


def test_simulate_particle_keeps_residuals_under_projection_tol():
    sys = damped_particle((1.0, 2.0, 0.5))
    x0 = np.array([0.0, 0.5, 0.0, 1.0, 0.3, 0.5])
    traj = simulate(sys, x0, IntegratorConfig(dt=1e-3, t_end=2.0))
    assert traj.residuals.max() <= 1e-10
    assert traj.multipliers.shape == (2001, 1)
    assert np.all(np.diff(traj.energies) <= 1e-10)


def test_simulate_rejects_inconsistent_initial_state():
    sys = damped_particle()
    with pytest.raises(ConsistencyError):
        simulate(sys, np.array([0.0, 0.0, 0.0, 1.0, 0.0, 1.0]),
                 IntegratorConfig(dt=1e-3, t_end=1.0))


def test_simulate_step_failure_carries_time_state_and_partial_run():
    # cubic constraint residual: the projection converges too slowly for the
    # allotted iterations at an unreachable tolerance
    h = ScalarField(2, value=lambda x: float(x[0] ** 3 + x[1]),
                    gradient=lambda x: np.array([3.0 * x[0] ** 2, 1.0]))
    field = LDField(TensorField.constant(np.array([[0.0, 1.0], [-1.0, 0.0]])),
                    ConstraintField.constant(np.array([[1.0], [0.0]])))
    sys = DIHSystem(2, field, h)
    config = IntegratorConfig(dt=1e-3, t_end=1.0, projection_tol=1e-30,
                              max_projection_iters=2)
    with pytest.raises(StepFailureError) as err:
        simulate(sys, np.zeros(2), config)
    assert err.value.time == 0.0  # last valid sample
    assert err.value.state == pytest.approx([0.0, 0.0])
    assert err.value.partial.times.shape == (1,)
    assert "0.001" in str(err.value)


def test_simulate_checks_the_tensor_field_shape_up_front():
    h = ScalarField(2, value=lambda x: 0.5 * float(x @ x),
                    gradient=lambda x: x.copy())
    vector_pi = TensorField(2, evaluate=lambda x: np.array([x[1], -x[0]]))
    sys = DIHSystem(2, LDField(vector_pi, ConstraintField.none(2)), h)
    config = IntegratorConfig(dt=1e-3, t_end=0.01)
    with pytest.raises(InputError, match="tensor field"):
        simulate(sys, np.array([1.0, 0.0]), config)


@pytest.mark.parametrize("jacobian", [lambda x: np.ones(6),
                                      lambda x: np.full((1, 6), np.nan)],
                         ids=["wrong-shape", "non-finite"])
def test_simulate_checks_the_constraint_jacobian_up_front(jacobian):
    sys = dataclasses.replace(damped_particle(), constraint_jacobian=jacobian)
    with pytest.raises(InputError, match="constraint Jacobian"):
        simulate(sys, np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]),
                 IntegratorConfig(dt=1e-3, t_end=0.01))


def test_simulate_multiplier_columns_track_the_hand_formula():
    mu = (1.0, 1.0, 1.0)
    sys = damped_particle(mu)
    x0 = np.array([0.0, 0.5, 0.0, 1.0, 0.3, 0.5])
    traj = simulate(sys, x0, IntegratorConfig(dt=1e-2, t_end=0.5))
    for row, lam in zip(traj.states, traj.multipliers):
        assert lam[0] == pytest.approx(particle_multiplier(row, mu),
                                       abs=1e-8)


# ---------------------------------------------------------------------------
# oracle integrator


def test_oracle_matches_simulate_on_the_harmonic_oscillator():
    sys = harmonic_system()
    x0 = np.array([1.0, 0.0])
    a = simulate(sys, x0, IntegratorConfig(dt=1e-2, t_end=10.0))
    b = oracle_simulate(sys, x0, dt=1e-2, t_end=10.0)
    assert np.array_equal(a.times, b.times)
    assert np.abs(a.states - b.states).max() <= 1e-8


def test_oracle_matches_exponential_decay():
    sys = gradient_flow_system()
    traj = oracle_simulate(sys, np.array([1.0, 1.0]), dt=1e-2, t_end=1.0)
    exact = np.exp(-traj.times)
    assert np.abs(traj.states - np.column_stack([exact, exact])).max() <= 1e-7


def test_oracle_is_fourth_order_on_the_harmonic_oscillator():
    sys = harmonic_system()
    x0 = np.array([1.0, 0.0])

    def error(dt):
        traj = oracle_simulate(sys, x0, dt=dt, t_end=5.0)
        exact = np.column_stack([np.cos(traj.times), -np.sin(traj.times)])
        return np.abs(traj.states - exact).max()

    assert error(0.2) / error(0.1) >= 8.0


# ---------------------------------------------------------------------------
# energy audit


def test_energy_audit_conservative_run_is_flat():
    sys = harmonic_system()
    traj = simulate(sys, np.array([1.0, 0.0]),
                    IntegratorConfig(dt=1e-2, t_end=2.0))
    audit = energy_audit(sys, traj)
    assert audit.n_samples == 201
    assert audit.max_rate == 0.0
    assert audit.rates_nonpositive
    assert abs(audit.energy_drift) <= 1e-10
    assert audit.max_rate_deviation <= 2.0 * 1e-2 ** 2


def test_energy_audit_gradient_flow_dissipates_monotonically():
    sys = gradient_flow_system()
    traj = simulate(sys, np.array([1.0, 1.0]),
                    IntegratorConfig(dt=1e-2, t_end=2.0))
    audit = energy_audit(sys, traj)
    assert audit.energy_drift < 0.0
    assert audit.rates_nonpositive
    assert audit.energy_monotone
    assert audit.max_rate_deviation <= 5.0 * 1e-2 ** 2


def test_energy_audit_matches_rate_column_against_finite_differences():
    sys = damped_particle((1.0, 1.0, 1.0))
    x0 = np.array([0.0, 0.5, 0.0, 1.0, 0.3, 0.5])
    traj = simulate(sys, x0, IntegratorConfig(dt=1e-2, t_end=2.0))
    audit = energy_audit(sys, traj)
    assert audit.rates_nonpositive
    assert audit.energy_monotone
    assert audit.max_rate_deviation <= 5.0 * 1e-2 ** 2


def test_skew_component_does_no_work():
    rng = np.random.default_rng(53)
    p = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for _ in range(50):
        grad = rng.standard_normal(2)
        assert abs(grad @ (p @ grad)) <= 1e-12


# ---------------------------------------------------------------------------
# properties


@given(seed=st.integers(0, 2_000))
@settings(max_examples=25)
def test_particle_multiplier_formula_property(seed):
    rng = np.random.default_rng(seed)
    mu = tuple(rng.uniform(0.0, 3.0, size=3))
    sys = damped_particle(mu)
    x = particle_consistent_state(rng)
    lam, _ = multipliers(sys, x)
    assert lam[0] == pytest.approx(particle_multiplier(x, mu), abs=1e-8)


@given(seed=st.integers(0, 2_000))
@settings(max_examples=10)
def test_short_runs_stay_on_the_constraint_surface(seed):
    rng = np.random.default_rng(seed)
    sys = damped_particle((1.0, 1.0, 1.0))
    x0 = particle_consistent_state(rng)
    traj = simulate(sys, x0, IntegratorConfig(dt=1e-2, t_end=0.2))
    assert traj.residuals.max() <= 1e-10
    assert np.all(np.diff(traj.energies) <= 1e-10)
