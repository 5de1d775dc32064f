"""Constrained dissipative integration: multipliers, kernel form, simulation,
energy audits."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _gen import (linear_constraint, particle_consistent_state,
                  particle_multiplier, particle_rhs)
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


def quadratic_system(rng, n: int, k: int):
    """Constant G (n×k), H = x^T Q x / 2 and a random constant Pi, with the
    analytic constraint Jacobian G^T Q; returns the system and a state on
    its constraint set G^T Q x = 0."""
    g, q = linear_constraint(rng, n, k)
    h = ScalarField(n, value=lambda x: 0.5 * float(x @ (q @ x)),
                    gradient=lambda x: q @ x)
    field = LDField(TensorField.constant(rng.standard_normal((n, n))),
                    ConstraintField.constant(g))
    jac = g.T @ q
    sys = DIHSystem(n, field, h, constraint_jacobian=lambda x: jac)
    kernel = np.linalg.svd(jac)[2][k:].T
    return sys, kernel @ rng.standard_normal(n - k)


def counting_forces(sys: DIHSystem):
    """``sys`` with its G callable wrapped; returns (system, call counter)."""
    calls = [0]
    evaluate = sys.ld.forces.evaluate

    def counted(x):
        calls[0] += 1
        return evaluate(x)

    forces = dataclasses.replace(sys.ld.forces, evaluate=counted)
    return dataclasses.replace(sys, ld=LDField(sys.ld.pi, forces)), calls


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
    assert IntegratorConfig(dt=1e-3, t_end=0.0).steps == 0


def test_integrator_config_needs_a_whole_number_of_steps():
    assert IntegratorConfig(dt=1e-3, t_end=10.0).steps == 10_000
    assert IntegratorConfig(dt=0.1, t_end=0.3).steps == 3
    with pytest.raises(InputError, match="nearest is 0.1$"):
        IntegratorConfig(dt=0.01, t_end=0.0995)
    with pytest.raises(InputError, match="nearest is 0.9$"):
        IntegratorConfig(dt=0.3, t_end=1.0)


@pytest.mark.parametrize("dt,t_end", [(1e-300, 1e300), (5e-324, 1.0)])
def test_integrator_config_rejects_an_overflowing_step_count(dt, t_end):
    with pytest.raises(InputError, match="overflows"):
        IntegratorConfig(dt=dt, t_end=t_end)


@pytest.mark.parametrize("dt,t_end", [(1.0, 1e300), (1e-3, 1e9),
                                      (1.0, 1e8 + 1.0)])
def test_integrator_config_rejects_more_steps_than_the_ceiling(dt, t_end):
    # configs only: a run this long would exhaust memory
    with pytest.raises(InputError, match="ceiling of 100,000,000 steps"):
        IntegratorConfig(dt=dt, t_end=t_end)
    assert IntegratorConfig(dt=1.0, t_end=1e8).steps == 10**8


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


def test_finite_difference_multipliers_and_rhs_match_analytic_on_random_states():
    mu = (1.3, 0.7, 2.1)
    analytic = damped_particle(mu)
    fd = dataclasses.replace(analytic, constraint_jacobian=None)
    rng = np.random.default_rng(61)
    for _ in range(25):
        x = particle_consistent_state(rng)
        lam_a, _ = multipliers(analytic, x)
        lam_fd, resid = multipliers(fd, x)
        assert lam_fd == pytest.approx(lam_a, abs=1e-6)
        assert resid <= 1e-10
        assert np.abs(rhs(fd, x) - rhs(analytic, x)).max() <= 1e-6


@pytest.mark.parametrize("k", [1, 2, 3])
def test_finite_difference_multipliers_match_analytic_for_k_constraints(k):
    rng = np.random.default_rng(70 + k)
    n = 5
    sys, x = quadratic_system(rng, n, k)
    fd = dataclasses.replace(sys, constraint_jacobian=None)
    lam_a, _ = multipliers(sys, x)
    lam_fd, _ = multipliers(fd, x)
    assert lam_fd.shape == (k,)
    assert np.abs(lam_fd - lam_a).max() <= 1e-6 * max(1.0, np.abs(lam_a).max())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_multipliers_without_jacobian_cost_two_g_evaluations_per_column(k):
    # J G and J Pi grad H are k + 1 central directional differences
    sys, x = quadratic_system(np.random.default_rng(80 + k), 5, k)
    analytic, a_calls = counting_forces(sys)
    fd, fd_calls = counting_forces(
        dataclasses.replace(sys, constraint_jacobian=None))
    multipliers(analytic, x)
    multipliers(fd, x)
    assert fd_calls[0] - a_calls[0] == 2 * (k + 1)


def test_finite_difference_simulate_costs_at_most_20_g_evaluations_per_step():
    # RK4 solves for the multiplier 4 times a step at 4 G evaluations each,
    # plus 3 stage evaluations and the projection's residual check
    fd, calls = counting_forces(
        dataclasses.replace(damped_particle(), constraint_jacobian=None))
    x0 = np.array([0.0, 0.5, 0.0, 1.0, 0.3, 0.5])
    simulate(fd, x0, IntegratorConfig(dt=1e-3, t_end=0.0))
    setup, calls[0] = calls[0], 0
    traj = simulate(fd, x0, IntegratorConfig(dt=1e-3, t_end=0.2))
    steps = traj.times.shape[0] - 1
    assert steps == 200
    assert (calls[0] - setup) / steps <= 20.0


def counting_callables(sys: DIHSystem):
    """``sys`` with H, grad H, Pi, G and J wrapped; returns (system,
    counts)."""
    counts = dict.fromkeys(("H", "grad H", "Pi", "G", "J"), 0)

    def counted(name, fn):
        def wrapper(x):
            counts[name] += 1
            return fn(x)
        return wrapper

    ham = dataclasses.replace(
        sys.hamiltonian, value=counted("H", sys.hamiltonian.value),
        gradient=counted("grad H", sys.hamiltonian.gradient))
    pi = dataclasses.replace(sys.ld.pi, evaluate=counted("Pi", sys.ld.pi.evaluate))
    forces = dataclasses.replace(sys.ld.forces,
                                 evaluate=counted("G", sys.ld.forces.evaluate))
    return dataclasses.replace(
        sys, ld=LDField(pi, forces), hamiltonian=ham,
        constraint_jacobian=counted("J", sys.constraint_jacobian)), counts


@pytest.mark.parametrize("call", [
    lambda sys, x: simulate(sys, x, IntegratorConfig(dt=1e-3, t_end=0.0)),
    multipliers, rhs], ids=["simulate", "multipliers", "rhs"])
def test_set_up_evaluates_each_callable_once(call):
    sys, counts = counting_callables(damped_particle())
    call(sys, np.array([0.0, 0.5, 0.0, 1.0, 0.3, 0.5]))
    assert counts == {"H": 1, "grad H": 1, "Pi": 1, "G": 1, "J": 1}


def test_simulate_reads_h_once_per_recorded_sample():
    sys, counts = counting_callables(damped_particle())
    traj = simulate(sys, np.array([0.0, 0.5, 0.0, 1.0, 0.3, 0.5]),
                    IntegratorConfig(dt=1e-3, t_end=5e-3))
    assert traj.times.shape == (6,)
    assert counts["H"] == 6


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


@given(seed=st.integers(0, 2_000), offset=st.floats(0.0, 2e-10))
@example(seed=0, offset=1e-10)
@settings(max_examples=40)
def test_check_consistency_agrees_with_the_run_set_up(seed, offset):
    # one tolerance decides both: a state check_consistency admits starts a
    # run, and one it refuses raises ConsistencyError
    x0 = particle_consistent_state(np.random.default_rng(seed))
    x0[5] += offset
    sys = damped_particle()
    report = check_consistency(sys, x0)
    try:
        simulate(sys, x0, IntegratorConfig(dt=1e-3, t_end=5e-3))
    except ConsistencyError:
        assert not report.in_chi_c
    else:
        assert report.in_chi_c


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
    # H = x0^3/3 + x0 x1^2 + x1 with G = e1: the residual x0^2 + x1^2 has
    # no root along span G once the first step moves x1 off 0, so the
    # projection stalls at x1^2 > 1e-10
    h = ScalarField(
        2, value=lambda x: float(x[0] ** 3 / 3.0 + x[0] * x[1] ** 2 + x[1]),
        gradient=lambda x: np.array([x[0] ** 2 + x[1] ** 2,
                                     2.0 * x[0] * x[1] + 1.0]))
    field = LDField(TensorField.constant(np.array([[0.0, 1.0], [-1.0, 0.0]])),
                    ConstraintField.constant(np.array([[1.0], [0.0]])))
    sys = DIHSystem(2, field, h)
    with pytest.raises(StepFailureError) as err:
        simulate(sys, np.zeros(2), IntegratorConfig(dt=0.1, t_end=1.0))
    assert err.value.time == 0.0  # last valid sample
    assert err.value.state == pytest.approx([0.0, 0.0])
    assert err.value.partial.times.shape == (1,)
    assert "t = 0.1 " in str(err.value)
    assert "projection stalled" in str(err.value)


def test_simulate_checks_the_tensor_field_shape_up_front():
    h = ScalarField(2, value=lambda x: 0.5 * float(x @ x),
                    gradient=lambda x: x.copy())
    vector_pi = TensorField(2, evaluate=lambda x: np.array([x[1], -x[0]]))
    sys = DIHSystem(2, LDField(vector_pi, ConstraintField.none(2)), h)
    config = IntegratorConfig(dt=1e-3, t_end=0.01)
    with pytest.raises(InputError, match="tensor field"):
        simulate(sys, np.array([1.0, 0.0]), config)


def test_simulate_wraps_a_callable_that_goes_bad_mid_run():
    # Pi is well formed at x0 and passes the up-front check, but returns a
    # vector once x[0] < 0.5; numpy then raises ValueError deep in a step
    h = ScalarField(2, value=lambda x: 0.5 * float(x @ x),
                    gradient=lambda x: x.copy())
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def pi_eval(x):
        return rot if x[0] >= 0.5 else np.array([x[1], -x[0]])

    sys = DIHSystem(2, LDField(TensorField(2, pi_eval),
                               ConstraintField.none(2)), h)
    with pytest.raises(StepFailureError) as err:
        simulate(sys, np.array([1.0, 0.0]),
                 IntegratorConfig(dt=1e-2, t_end=2.0))
    partial = err.value.partial
    assert isinstance(err.value.__cause__, ValueError)
    assert partial.times.shape[0] > 1
    assert err.value.time == partial.times[-1]
    assert np.array_equal(err.value.state, partial.states[-1])
    assert partial.states[-1][0] >= 0.5


@pytest.mark.parametrize("gradient", [lambda x: x.copy(), None],
                         ids=["analytic-gradient", "finite-difference-gradient"])
def test_simulate_wraps_a_hamiltonian_that_stops_returning_a_scalar(gradient):
    # H is a scalar at x0 and passes the up-front check, but returns the
    # state once x[0] <= 0.5; the recorder reads H at every accepted state,
    # and the finite-difference gradient at every stage
    def value(x):
        return 0.5 * float(x @ x) if x[0] > 0.5 else x.copy()

    h = ScalarField(2, value=value, gradient=gradient)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sys = DIHSystem(2, LDField(TensorField.constant(rot),
                               ConstraintField.none(2)), h)
    with pytest.raises(StepFailureError) as err:
        simulate(sys, np.array([1.0, 0.0]),
                 IntegratorConfig(dt=1e-2, t_end=2.0))
    partial = err.value.partial
    assert isinstance(err.value.__cause__, ValueError)
    assert partial.times.shape[0] > 1
    assert partial.states[-1][0] > 0.5
    assert partial.energies.shape == partial.times.shape


@pytest.mark.parametrize("value", [lambda x: x.copy(),
                                   lambda x: float("nan")],
                         ids=["array", "non-finite"])
def test_simulate_checks_the_hamiltonian_value_up_front(value):
    h = ScalarField(2, value=value, gradient=lambda x: x.copy())
    sys = DIHSystem(2, LDField(TensorField.constant(np.zeros((2, 2))),
                               ConstraintField.none(2)), h)
    with pytest.raises(InputError, match="scalar field"):
        simulate(sys, np.array([1.0, 0.0]),
                 IntegratorConfig(dt=1e-3, t_end=0.01))


@pytest.mark.parametrize("analytic_jacobian", [True, False],
                         ids=["analytic-J", "finite-difference-J"])
def test_simulate_wraps_a_constraint_field_that_goes_bad_mid_run(
        analytic_jacobian):
    # G drops to a 1-d vector once y > 0.6, after the up-front checks
    def g_eval(x):
        column = np.array([[0.0, 0.0, 0.0, x[1], 0.0, -1.0]]).T
        return column if x[1] <= 0.6 else column[:, 0]

    sys = damped_particle()
    sys = dataclasses.replace(
        sys, ld=LDField(sys.ld.pi, ConstraintField(6, 1, g_eval)))
    if not analytic_jacobian:
        sys = dataclasses.replace(sys, constraint_jacobian=None)
    with pytest.raises(StepFailureError) as err:
        simulate(sys, np.array([0.0, 0.5, 0.0, 1.0, 0.3, 0.5]),
                 IntegratorConfig(dt=1e-2, t_end=2.0))
    partial = err.value.partial
    assert isinstance(err.value.__cause__, ValueError)
    assert partial.times.shape[0] > 1
    assert partial.states[-1][1] <= 0.6
    assert partial.multipliers.shape == (partial.times.shape[0], 1)


@pytest.mark.parametrize("part", ["Pi", "grad H"])
def test_simulate_fails_a_step_whose_rk4_stage_meets_a_malformed_result(part):
    # the result is malformed only on a thin shell around the unit circle
    # that the first RK4 stage point (radius^2 = 1 + dt^2/4) reaches and the
    # accepted states (radius 1) do not; numpy would broadcast it into the
    # stage, and the run would bend off its orbit or fail far from the cause
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def on_shell(x):
        return 1.0024 < float(np.sum(x * x)) < 1.0026

    def pi_eval(x):
        return np.array([x[1], -x[0]]) if part == "Pi" and on_shell(x) else rot

    def gradient(x):
        return x[:, None] if part == "grad H" and on_shell(x) else x.copy()

    h = ScalarField(2, value=lambda x: 0.5 * float(np.sum(x * x)),
                    gradient=gradient)
    sys = DIHSystem(2, LDField(TensorField(2, pi_eval),
                               ConstraintField.none(2)), h)
    with pytest.raises(StepFailureError, match=f"{part} returned shape") as err:
        simulate(sys, np.array([1.0, 0.0]),
                 IntegratorConfig(dt=0.1, t_end=1.0))
    assert err.value.partial.times.shape[0] == 1


MALFORMED = {
    "grad H": lambda v: v[:, None],
    "Pi": lambda m: m[:, :-1],
    "G": lambda m: np.column_stack([m, m]),
    "G vector": lambda m: m[:, 0],
    "J": lambda m: np.vstack([m, m]),
}


def spoil_one_call(sys: DIHSystem, part: str):
    """``sys`` with the callable ``part`` wrapped so that its call number
    ``bad[0]`` returns a malformed result; returns (system, calls, bad)."""
    calls, bad = [0], [0]

    def spoil(fn):
        def wrapped(x):
            calls[0] += 1
            out = np.asarray(fn(x), dtype=float)
            return MALFORMED[part](out) if calls[0] == bad[0] else out
        return wrapped

    if part == "grad H":
        ham = dataclasses.replace(sys.hamiltonian,
                                  gradient=spoil(sys.hamiltonian.gradient))
        return dataclasses.replace(sys, hamiltonian=ham), calls, bad
    if part == "Pi":
        pi = dataclasses.replace(sys.ld.pi, evaluate=spoil(sys.ld.pi.evaluate))
        return dataclasses.replace(sys, ld=LDField(pi, sys.ld.forces)), calls, bad
    if part.startswith("G"):
        forces = dataclasses.replace(sys.ld.forces,
                                     evaluate=spoil(sys.ld.forces.evaluate))
        return dataclasses.replace(sys, ld=LDField(sys.ld.pi, forces)), calls, bad
    return dataclasses.replace(
        sys, constraint_jacobian=spoil(sys.constraint_jacobian)), calls, bad


@pytest.mark.parametrize("part,analytic_jacobian",
                         [("grad H", True), ("grad H", False), ("Pi", True),
                          ("Pi", False), ("G", True), ("G", False),
                          ("G vector", True), ("G vector", False),
                          ("J", True)])
def test_any_malformed_evaluation_within_a_step_fails_that_step(
        part, analytic_jacobian):
    # every evaluation of the step, stage, projection or difference probe,
    # is spoiled in turn; none may be absorbed by numpy broadcasting.  The
    # step is long enough that the projection takes Newton steps.
    sys = damped_particle()
    if not analytic_jacobian:
        sys = dataclasses.replace(sys, constraint_jacobian=None)
    sys, calls, bad = spoil_one_call(sys, part)
    x0 = np.array([0.0, 0.5, 0.0, 1.0, 0.3, 0.5])
    simulate(sys, x0, IntegratorConfig(dt=5e-2, t_end=0.0))
    setup, calls[0] = calls[0], 0
    simulate(sys, x0, IntegratorConfig(dt=5e-2, t_end=5e-2))
    per_step = calls[0] - setup
    assert per_step >= 4
    for j in range(setup + 1, setup + per_step + 1):
        calls[0], bad[0] = 0, j
        with pytest.raises(StepFailureError) as err:
            simulate(sys, x0, IntegratorConfig(dt=5e-2, t_end=5e-2))
        assert isinstance(err.value.__cause__, ValueError)
        assert err.value.partial.times.shape[0] == 1


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
    audit = energy_audit(traj)
    assert audit.n_samples == 201
    assert audit.max_rate == 0.0
    assert audit.rates_nonpositive
    assert abs(audit.energy_drift) <= 1e-10
    assert audit.max_rate_deviation <= 2.0 * 1e-2 ** 2


def test_energy_audit_gradient_flow_dissipates_monotonically():
    sys = gradient_flow_system()
    traj = simulate(sys, np.array([1.0, 1.0]),
                    IntegratorConfig(dt=1e-2, t_end=2.0))
    audit = energy_audit(traj)
    assert audit.energy_drift < 0.0
    assert audit.rates_nonpositive
    assert audit.energy_monotone
    assert audit.max_rate_deviation <= 5.0 * 1e-2 ** 2


def test_energy_audit_matches_rate_column_against_finite_differences():
    sys = damped_particle((1.0, 1.0, 1.0))
    x0 = np.array([0.0, 0.5, 0.0, 1.0, 0.3, 0.5])
    traj = simulate(sys, x0, IntegratorConfig(dt=1e-2, t_end=2.0))
    audit = energy_audit(traj)
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
