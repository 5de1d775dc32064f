"""Constrained dissipative integration: multipliers, kernel form, simulation,
energy audits."""

import dataclasses
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _gen import (linear_constraint, particle_consistent_state,
                  particle_multiplier, particle_rhs, reference_directional,
                  same_bits)
import ldkit
from ldkit import (ConsistencyError, ConstraintField, DegenerateMultiplierError,
                   DIHSystem, InputError, IntegratorConfig, LDField,
                   ScalarField, StepFailureError, Subspace, SystemSpec,
                   TensorField, audit_series, build_system, check_consistency,
                   damped_particle, dynamics, energy_audit, energy_rate,
                   fields, kernel_form, multipliers, oracle_simulate, rhs,
                   simulate)
from ldkit.dynamics import RATE_TOL
from ldkit.numdiff import central_directional


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


@pytest.mark.parametrize("steps", [0, 100])
@pytest.mark.parametrize("run,per_step", [
    (lambda sys, x0, t_end: simulate(sys, x0, IntegratorConfig(1e-3, t_end)),
     4),
    (lambda sys, x0, t_end: oracle_simulate(sys, x0, 1e-3, t_end), 14)],
    ids=["simulate", "oracle_simulate"])
def test_an_analytic_jacobian_run_evaluates_each_callable_exactly(
        run, per_step, steps):
    # one evaluation at set-up, then one per RK4 stage (4) or per GBS
    # evaluation of the two half steps (2 x 7); H once per recorded row
    sys, counts = counting_callables(damped_particle())
    run(sys, np.array([0.0, 0.3, 0.0, 1.0, 0.5, 0.3]), steps * 1e-3)
    each = per_step * steps + 1
    assert counts == {"H": steps + 1, "grad H": each, "Pi": each, "G": each,
                      "J": each}


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


def constrained_linear(rng) -> tuple[DIHSystem, np.ndarray, np.ndarray,
                                     np.ndarray]:
    """n = 6, k = 2: constant Pi = S - 0.1 B B^T (S skew), H = |x|^2 / 2 and
    a constant G with orthonormal columns and a zero last row, so that e6
    is exactly orthogonal to G; J = G^T.  Returns the system, G, Pi and a
    state with G^T x = 0."""
    a, b = rng.standard_normal((2, 6, 6))
    pi = a - a.T - 0.1 * b @ b.T
    g = np.vstack([np.linalg.qr(rng.standard_normal((5, 2)))[0],
                   np.zeros((1, 2))])
    h = ScalarField(6, value=lambda x: 0.5 * float(x @ x),
                    gradient=lambda x: x.copy())
    field = LDField(TensorField.constant(pi), ConstraintField.constant(g))
    sys = DIHSystem(6, field, h, constraint_jacobian=lambda x: g.T)
    v = rng.standard_normal(6)
    return sys, g, pi, v - g @ (g.T @ v)


@pytest.mark.parametrize("analytic", [True, False],
                         ids=["analytic J", "directional J"])
def test_k2_multipliers_have_the_closed_form(analytic):
    # J G = G^T G is regular: lambda = -(G^T G)^-1 G^T Pi grad H
    sys, g, pi, x = constrained_linear(np.random.default_rng(11))
    if not analytic:
        sys = dataclasses.replace(sys, constraint_jacobian=None)
    lam, resid = multipliers(sys, x)
    exact = -np.linalg.solve(g.T @ g, g.T @ (pi @ x))
    assert np.abs(lam - exact).max() <= (1e-13 if analytic else 1e-8)
    assert resid <= 1e-13


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("seed", range(20))
def test_directional_multipliers_take_the_directions_as_column_stack_does(
        order, seed):
    # the reference builds [G, Pi grad H] by np.column_stack; the
    # directional differences give the same bits for directions in either
    # memory order, so lambda must match it for G in C and in F order
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    k = int(rng.integers(2, n))
    g = np.linalg.qr(rng.standard_normal((n, k)))[0]
    g = np.asfortranarray(g) if order == "F" else np.ascontiguousarray(g)
    a = rng.standard_normal((n, n))
    h = ScalarField(n, value=lambda x: 0.5 * float(x @ x),
                    gradient=lambda x: x.copy())
    sys = DIHSystem(n, LDField(TensorField.constant(a - a.T - 0.1 * a @ a.T),
                               ConstraintField(n, k, lambda x: g)), h)
    v = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    x = v - g @ (g.T @ v)
    c = dynamics._Compiled(sys, x)
    point, grad, g_x, pi = c.start[:4]
    pi_grad = pi.dot(grad)
    jv = central_directional(c.residual, point,
                             np.column_stack([g_x, pi_grad]).T, k)
    expected = np.linalg.lstsq(jv[:, :-1], -jv[:, -1], rcond=None)[0]
    assert same_bits(multipliers(sys, x)[0], expected)


@given(seed=st.integers(0, 10_000), k=st.integers(1, 3),
       order=st.sampled_from("CF"),
       column=st.sampled_from(["plain", "zero", "tiny"]))
@settings(max_examples=150, deadline=None)
def test_multipliers_and_rhs_without_j_match_the_matrix_assembled_reference(
        seed, k, order, column):
    # G depends on x and comes in C or F order.  "zero" starts at x = 0,
    # where the direction Pi grad H is zero; "tiny" scales G to about
    # 1e-316, where every step s along G overflows: those columns of J·V
    # are 0
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k + 1, 7))
    g0 = rng.standard_normal((n, k)) * (1e-316 if column == "tiny" else 1.0)
    arrange = np.asfortranarray if order == "F" else np.ascontiguousarray

    def g_eval(x):
        return arrange(g0 * (1.0 + 0.25 * np.tanh(x[0])))

    a = rng.standard_normal((n, n))
    q = np.eye(n) + a @ a.T / n
    h = ScalarField(n, value=lambda x: 0.5 * float(x @ (q @ x)),
                    gradient=lambda x: q @ x)
    pi = a - a.T - 0.1 * a @ a.T
    sys = DIHSystem(n, LDField(TensorField.constant(pi),
                               ConstraintField(n, k, g_eval)), h)
    x = rng.standard_normal(n)
    if column == "zero":
        x = np.zeros(n)
    elif column == "plain":  # onto the constraint set G^T Q x = 0
        qg = q @ g0
        x = x - qg @ np.linalg.lstsq(qg, x, rcond=None)[0]
    grad, g = q @ x, g_eval(x)

    def reference(pi_grad):
        jv = reference_directional(
            lambda y: np.asarray(g_eval(y)).T.dot(q @ y), x,
            np.concatenate((g, pi_grad[:, None]), axis=1), k)
        return dynamics._solve_constraint(jv[:, :-1], jv[:, -1])

    # multipliers and rhs both read the set-up, which forms Pi grad H with
    # .dot; at these n >= 2 the reference's @ gives the same bits (only at
    # n = 1 may the two differ, in the sign of a zero)
    lam_ref, resid_ref = reference(pi @ grad)
    pi_grad = pi.dot(grad)
    rhs_ref = pi_grad + g.dot(reference(pi_grad)[0])
    try:
        lam, resid = multipliers(sys, x)
    except DegenerateMultiplierError as err:
        assert resid_ref > 0.0 and same_bits(err.ls_residual, resid_ref)
        with pytest.raises(DegenerateMultiplierError):
            rhs(sys, x)
    else:
        assert same_bits(lam, lam_ref) and same_bits(resid, resid_ref)
        assert same_bits(rhs(sys, x), rhs_ref)


def test_k2_singular_consistent_multipliers_are_the_min_norm_solution():
    # rows u^T and 2 u^T: J G has rank 1 exactly and -J Pi grad H lies in
    # its range, so every lambda with r . lambda = -u^T Pi x solves it
    # (r = G^T u); the least-squares branch returns the shortest
    sys, g, pi, x = constrained_linear(np.random.default_rng(12))
    u = np.random.default_rng(13).standard_normal(6)
    jac = np.vstack([u, 2.0 * u])
    lam, resid = multipliers(
        dataclasses.replace(sys, constraint_jacobian=lambda y: jac), x)
    r = g.T @ u
    assert np.abs(lam - (-(u @ (pi @ x)) / (r @ r)) * r).max() <= 1e-13
    assert resid <= 1e-13


def test_k2_singular_inconsistent_multipliers_raise():
    # the second row adds e6, which is orthogonal to G: J G keeps rank 1,
    # while -J Pi grad H gains (Pi x)_6 outside its range
    sys, g, pi, x = constrained_linear(np.random.default_rng(12))
    u = np.random.default_rng(13).standard_normal(6)
    jac = np.vstack([u, 2.0 * u + np.eye(6)[5]])
    assert abs((pi @ x)[5]) > 0.1
    with pytest.raises(DegenerateMultiplierError) as err:
        multipliers(dataclasses.replace(sys, constraint_jacobian=lambda y: jac),
                    x)
    assert err.value.ls_residual > 1e-3


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


def test_a_non_finite_state_fails_its_step_without_naming_the_projection():
    # H = x0^4 + x1^2 from x0 = (1e4, 0): the first step and its row stay
    # finite, the second step overflows; k = 0, so there is no projection
    # to blame
    h = ScalarField(2, value=lambda x: float(x[0] ** 4 + x[1] ** 2),
                    gradient=lambda x: np.array([4.0 * x[0] ** 3, 2.0 * x[1]]))
    field = LDField(TensorField.constant(np.array([[0.0, 1.0], [-1.0, 0.0]])),
                    ConstraintField.none(2))
    with np.errstate(all="ignore"), pytest.raises(StepFailureError) as err:
        simulate(DIHSystem(2, field, h), np.array([1e4, 0.0]),
                 IntegratorConfig(dt=1.0, t_end=3.0))
    message = str(err.value)
    assert message.startswith("step to t = 2 failed: the step reached the "
                              "non-finite state [")
    assert "projection" not in message
    assert isinstance(err.value.__cause__, ValueError)
    assert err.value.partial.times.tolist() == [0.0, 1.0]
    assert np.isfinite(err.value.partial.energies).all()
    assert err.value.time == 1.0


def test_simulate_checks_the_tensor_field_shape_up_front():
    h = ScalarField(2, value=lambda x: 0.5 * float(x @ x),
                    gradient=lambda x: x.copy())
    vector_pi = TensorField(2, evaluate=lambda x: np.array([x[1], -x[0]]))
    sys = DIHSystem(2, LDField(vector_pi, ConstraintField.none(2)), h)
    config = IntegratorConfig(dt=1e-3, t_end=0.01)
    with pytest.raises(InputError, match="tensor field"):
        simulate(sys, np.array([1.0, 0.0]), config)


def rotation_that_goes_bad(threshold: float) -> DIHSystem:
    # the rotation x = (cos t, -sin t) from (1, 0); Pi is well formed at x0
    # and passes the up-front check, but returns a vector once
    # x[0] < threshold, and numpy then raises ValueError deep in a step
    h = ScalarField(2, value=lambda x: 0.5 * float(x @ x),
                    gradient=lambda x: x.copy())
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def pi_eval(x):
        return rot if x[0] >= threshold else np.array([x[1], -x[0]])

    return DIHSystem(2, LDField(TensorField(2, pi_eval),
                                ConstraintField.none(2)), h)


def test_simulate_wraps_a_callable_that_goes_bad_mid_run():
    with pytest.raises(StepFailureError) as err:
        simulate(rotation_that_goes_bad(0.5), np.array([1.0, 0.0]),
                 IntegratorConfig(dt=1e-2, t_end=2.0))
    partial = err.value.partial
    assert isinstance(err.value.__cause__, ValueError)
    assert partial.times.shape[0] > 1
    assert err.value.time == partial.times[-1]
    assert np.array_equal(err.value.state, partial.states[-1])
    assert partial.states[-1][0] >= 0.5


TRAJECTORY_FIELDS = ("times", "states", "multipliers", "residuals",
                     "energies", "energy_rates")


def test_a_failed_run_keeps_copies_of_its_recorded_rows_only():
    # the recorder allocates 201 rows; the partial trajectory and the state
    # must not be views that keep that allocation alive
    with pytest.raises(StepFailureError) as err:
        simulate(rotation_that_goes_bad(0.5), np.array([1.0, 0.0]),
                 IntegratorConfig(dt=1e-2, t_end=2.0))
    partial = err.value.partial
    m = partial.times.shape[0]
    assert 1 < m < 201
    for name in TRAJECTORY_FIELDS:
        array = getattr(partial, name)
        assert array.shape[0] == m, name
        assert array.base is None and array.flags.owndata, name
    assert partial.multipliers.shape == (m, 0)
    state = err.value.state
    assert state.base is None and state.flags.owndata
    assert state.tobytes() == partial.states[-1].tobytes()


@given(bad=st.integers(1, 59), oracle=st.booleans())
@settings(max_examples=30)
def test_a_run_that_goes_bad_at_step_m_records_m_rows_on_the_grid(bad,
                                                                  oracle):
    # Pi goes bad between the accepted states of steps bad - 1 and bad
    # (x[0] = cos t is monotone on the run's [0, 3]), so step ``bad`` fails
    dt = 0.05
    system = rotation_that_goes_bad(math.cos((bad - 0.5) * dt))
    x0 = np.array([1.0, 0.0])
    with pytest.raises(StepFailureError) as err:
        if oracle:
            oracle_simulate(system, x0, dt, 3.0)
        else:
            simulate(system, x0, IntegratorConfig(dt=dt, t_end=3.0))
    partial = err.value.partial
    assert partial.times.tobytes() == (dt * np.arange(bad)).tobytes()
    assert partial.states.shape == (bad, 2)
    assert err.value.time == partial.times[-1]


@pytest.mark.parametrize("name, integrate, bound", [
    ("damped_particle", "simulate", 100),
    ("damped_particle", "oracle_simulate", 100),
    ("harmonic_oscillator", "simulate", 60),
])
def test_a_run_peaks_near_the_bytes_its_trajectory_holds(name, integrate,
                                                          bound):
    # the six arrays hold 8(n + k + 4) B per row: 88 for the particle
    # (n = 6, k = 1), 48 for the oscillator (n = 2, k = 0)
    system, x0 = build_system(SystemSpec(name))
    tracemalloc.start()
    try:
        if integrate == "simulate":
            traj = simulate(system, x0, IntegratorConfig(dt=1e-3, t_end=10.0))
        else:
            traj = oracle_simulate(system, x0, 1e-3, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.times.shape == (10_001,)
    assert peak / 10_001 <= bound


@pytest.mark.parametrize("integrate", ["simulate", "oracle_simulate"])
def test_a_trajectory_too_big_to_allocate_fails_before_the_first_step(
        monkeypatch, integrate):
    empty = np.empty

    def no_memory(shape, *args, **kwargs):
        # only the recorder asks for rows of the whole 10,001-row run
        if (shape if isinstance(shape, int) else shape[0]) == 10_001:
            raise MemoryError
        return empty(shape, *args, **kwargs)

    def no_step(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(dynamics, "_rk4_step", no_step)
    monkeypatch.setattr(dynamics, "_gbs_step", no_step)
    monkeypatch.setattr(dynamics.np, "empty", no_memory)
    x0 = np.array([1.0, 0.0])
    # 10,001 rows of 8 (n + k + 4) = 48 B
    with pytest.raises(InputError, match=r"10,001 rows of 48 B need "
                                         r"480,048 bytes"):
        if integrate == "simulate":
            simulate(harmonic_system(), x0,
                     IntegratorConfig(dt=1e-3, t_end=10.0))
        else:
            oracle_simulate(harmonic_system(), x0, 1e-3, 10.0)


@pytest.mark.parametrize("gradient", [lambda x: x.copy(), None],
                         ids=["analytic-gradient", "finite-difference-gradient"])
def test_simulate_wraps_a_hamiltonian_that_stops_returning_a_scalar(gradient):
    # H is a finite scalar at x0 and passes the up-front check, but returns
    # the state, or nan, once x[0] <= 0.5; the recorder reads H at every
    # accepted state, and the finite-difference gradient at every stage.
    # The run fails there and records no row with a non-finite H or [H, H]
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for bad in (lambda x: x.copy(), lambda x: float("nan")):
        def value(x, bad=bad):
            return 0.5 * float(x @ x) if x[0] > 0.5 else bad(x)

        h = ScalarField(2, value=value, gradient=gradient)
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
        assert np.isfinite(partial.energies).all()
        assert np.isfinite(partial.energy_rates).all()


def test_simulate_rejects_a_non_finite_bracket_at_the_start():
    # H and grad H are finite at x0, but [H, H] = -|grad H|^2 overflows
    h = ScalarField(2, value=lambda x: 1e200 * float(x[0]),
                    gradient=lambda x: np.array([1e200, 0.0]))
    sys = DIHSystem(2, LDField(TensorField.constant(-np.eye(2)),
                               ConstraintField.none(2)), h)
    with np.errstate(all="ignore"), pytest.raises(InputError,
                                                  match="not both finite"):
        simulate(sys, np.array([1.0, 0.0]),
                 IntegratorConfig(dt=1e-3, t_end=0.01))


@pytest.mark.parametrize("call", [
    lambda sys, x: simulate(sys, x, IntegratorConfig(dt=1e-3, t_end=1e-3)),
    lambda sys, x: oracle_simulate(sys, x, 1e-3, 1e-3),
    multipliers, rhs], ids=["simulate", "oracle_simulate", "multipliers",
                            "rhs"])
@pytest.mark.parametrize("part", ["G", "grad H"])
def test_a_callable_that_fails_only_at_a_difference_probe_is_an_input_error(
        call, part):
    # without J the set-up probes G and grad H at x0 +- s v; there G
    # returns two columns for one constraint, or grad H raises as it would
    # under a raising errstate of its own
    particle = damped_particle()
    x0 = np.array([0.0, 0.3, 0.0, 1.0, 0.5, 0.3])
    forces = particle.ld.forces.evaluate
    gradient = particle.hamiltonian.gradient

    def g_eval(x):
        g = forces(x)
        probe = not np.array_equal(x, x0)
        return np.hstack([g, g]) if part == "G" and probe else g

    def grad_eval(x):
        if part == "grad H" and not np.array_equal(x, x0):
            raise FloatingPointError("overflow encountered in multiply")
        return gradient(x)

    sys = dataclasses.replace(
        particle, constraint_jacobian=None,
        ld=LDField(particle.ld.pi, ConstraintField(6, 1, g_eval)),
        hamiltonian=dataclasses.replace(particle.hamiltonian,
                                        gradient=grad_eval))
    with pytest.raises(InputError,
                       match="initial state cannot be evaluated") as err:
        call(sys, x0)
    assert isinstance(err.value.__cause__,
                      ValueError if part == "G" else FloatingPointError)


@pytest.mark.parametrize("run", [
    lambda sys, x: simulate(sys, x, IntegratorConfig(dt=1e-3, t_end=1e-3)),
    lambda sys, x: oracle_simulate(sys, x, 1e-3, 1e-3)],
    ids=["simulate", "oracle_simulate"])
def test_a_start_whose_constraint_residual_is_nan_is_refused_at_inf(run):
    # G^T grad H = 1e400 - 1e400 is inf - inf; check_consistency reads the
    # nan as inf, and a run refuses the start with that residual
    n = 16
    g = np.zeros((n, 1))
    g[:2, 0] = 1e200
    grad = np.zeros(n)
    grad[:2] = (1e200, -1e200)
    sys = DIHSystem(n, LDField(TensorField.constant(np.zeros((n, n))),
                               ConstraintField.constant(g)),
                    ScalarField(n, value=lambda x: 0.0,
                                gradient=lambda x: grad.copy()))
    report = check_consistency(sys, np.zeros(n))
    assert not report.in_chi_c and report.residual == math.inf
    with pytest.raises(ConsistencyError) as err:
        run(sys, np.zeros(n))
    assert err.value.residual == report.residual


@pytest.mark.parametrize("p, g, q", [
    (p, g, q) for p in (-1.5, 2.0) for g in (-0.5, 3.0) for q in (-2.0, 1.0)])
def test_one_dimensional_multipliers_equal_row_0_of_a_run_bit_for_bit(p, g, q):
    # n = k = 1 at x = 0: grad H = 0, so Pi grad H is a signed zero, and
    # lambda = -(J Pi grad H) / (J G) keeps its sign
    h = ScalarField(1, value=lambda x: 0.5 * q * float(x[0]) ** 2,
                    gradient=lambda x: q * x.copy())
    sys = DIHSystem(1, LDField(TensorField.constant([[p]]),
                               ConstraintField.constant([[g]])), h,
                    constraint_jacobian=lambda x: np.array([[g * q]]))
    x = np.zeros(1)
    traj = simulate(sys, x, IntegratorConfig(dt=1e-3, t_end=0.0))
    assert same_bits(multipliers(sys, x)[0], traj.multipliers[0])


@pytest.mark.parametrize("params, rate", [({"mu1": 1e308}, -1e308),
                                          ({"mu1": 1e300, "mu2": 1e308},
                                           -1e300)])
def test_the_energy_rate_stays_finite_for_friction_near_the_float_maximum(
        params, rate):
    # Pi + Pi^T overflows here; sym(Pi) halves each term first
    sys, x0 = build_system(SystemSpec("damped_particle", params, None))
    with np.errstate(all="raise"):
        assert energy_rate(sys, x0) == rate
        traj = simulate(sys, x0, IntegratorConfig(dt=1e-3, t_end=0.0))
    assert traj.energy_rates.tolist() == [rate]


def test_a_run_whose_difference_offset_underflows_ignores_the_errstate():
    # s v = 1e-206 * (1e200, 1e-200) underflows in its second entry
    h = ScalarField(2, value=lambda x: 0.5 * float(x @ x),
                    gradient=lambda x: x.copy())
    sys = DIHSystem(2, LDField(
        TensorField.constant(np.array([[0.0, 1.0], [-1.0, 0.0]])),
        ConstraintField(2, 1, lambda x: np.array([[1e200], [1e-200]]))), h)
    config = IntegratorConfig(dt=1e-3, t_end=0.01)
    plain = simulate(sys, np.zeros(2), config)
    with np.errstate(all="raise"):
        strict = simulate(sys, np.zeros(2), config)
    for field in ("times", "states", "multipliers", "residuals", "energies",
                  "energy_rates"):
        assert same_bits(getattr(strict, field), getattr(plain, field))


# one-point values whose products round to subnormals: |p|^2 and mu p^2,
# and y p_x and G lambda at a consistent particle state that runs start from
ONE_POINT_UNDERFLOWS = [
    ("energy_rate", "damped_particle", (0.0, 0.0, 0.0, 1e-160, 0.0, 0.0)),
    ("energy_rate", "damped_oscillator", (1e-160, 1e-160)),
    *[(function, "damped_particle", (0.0, 1e-160, 0.0, 1.0, 0.0, 1e-160))
      for function in ("multipliers", "rhs", "kernel_form")],
    ("check_consistency", "damped_particle",
     (0.0, 1e-160, 0.0, 1e-160, 0.0, 0.0)),
]


def _parts(result) -> tuple:
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    return result if isinstance(result, tuple) else (result,)


@pytest.mark.parametrize("function, name, state", ONE_POINT_UNDERFLOWS)
def test_the_one_point_functions_ignore_underflow_as_runs_do(function, name,
                                                             state):
    sys, _ = build_system(SystemSpec(name, {}, None))
    evaluate = getattr(dynamics, function)
    plain = _parts(evaluate(sys, state))
    with np.errstate(all="raise"):
        strict = _parts(evaluate(sys, state))
    assert len(strict) == len(plain)
    assert all(same_bits(a, b) for a, b in zip(strict, plain))


def test_a_system_refuses_parts_of_another_dimension():
    h = ScalarField(2, value=lambda x: 0.5 * float(x @ x),
                    gradient=lambda x: x.copy())
    field = LDField(TensorField.constant(np.eye(3)), ConstraintField.none(3))
    with pytest.raises(InputError, match="structure dimension 3"):
        DIHSystem(2, field, h)
    with pytest.raises(InputError, match="Hamiltonian dimension 2"):
        DIHSystem(3, field, h)


def test_check_consistency_holds_everywhere_without_constraints():
    sys = harmonic_system()
    assert sys.k == 0
    report = check_consistency(sys, [1e300, -2.0])
    assert report.in_chi_c and report.residual == 0.0


@pytest.mark.parametrize("times, energies, rates, message", [
    ([0.0, 1.0], [1.0, 0.5], [0.0], "equal-length"),
    ([], [], [], "at least one sample")])
def test_audit_series_needs_equal_lengths_and_a_sample(times, energies,
                                                       rates, message):
    with pytest.raises(InputError, match=message):
        audit_series(times, energies, rates)


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


SPOILED_PARTS = [("grad H", True), ("grad H", False), ("Pi", True),
                 ("Pi", False), ("G", True), ("G", False),
                 ("G vector", True), ("G vector", False), ("J", True)]


@pytest.mark.parametrize("part,analytic_jacobian,k", [
    pytest.param(part, analytic, k,
                 id=f"{part}-{analytic}" + ("-k2" if k == 2 else ""))
    for k in (1, 2) for part, analytic in SPOILED_PARTS])
def test_any_malformed_evaluation_within_a_step_fails_that_step(
        part, analytic_jacobian, k):
    # every evaluation of the step, stage, projection or difference probe,
    # is spoiled in turn; none may be absorbed by numpy broadcasting.  The
    # step is long enough that the particle's projection takes Newton
    # steps; k = 2 sends each malformed result into the least-squares
    # branch of the multiplier solve
    if k == 1:
        sys = damped_particle()
        x0 = np.array([0.0, 0.5, 0.0, 1.0, 0.3, 0.5])
    else:
        sys, x0 = quadratic_system(np.random.default_rng(3), 4, 2)
    if not analytic_jacobian:
        sys = dataclasses.replace(sys, constraint_jacobian=None)
    sys, calls, bad = spoil_one_call(sys, part)
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


def test_oracle_integrates_states_near_the_float_maximum_as_simulate_does():
    # z + z_prev of the midpoint chain would overflow at 2e308; halving each
    # term first keeps the oracle's sum finite
    h = ScalarField(2, value=lambda x: float(x[0] - x[1]),
                    gradient=lambda x: np.array([1.0, -1.0]))
    sys = DIHSystem(2, LDField(TensorField.constant(
        np.array([[0.0, 1.0], [-1.0, 0.0]])), ConstraintField.none(2)), h)
    x0 = np.array([1e308, 1e308])
    a = simulate(sys, x0, IntegratorConfig(dt=1e-2, t_end=0.1))
    b = oracle_simulate(sys, x0, dt=1e-2, t_end=0.1)
    for name in ("times", "states", "energies", "energy_rates"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def linear_h_system(gradient) -> DIHSystem:
    """H = x1 - x2 with canonical Pi and k = 0; ``gradient`` None takes
    grad H by central differences."""
    h = ScalarField(2, value=lambda x: float(x[0] - x[1]), gradient=gradient)
    pi = TensorField.constant(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return DIHSystem(2, LDField(pi, ConstraintField.none(2)), h)


SHORT_RUNS = [
    lambda sys, x0: simulate(sys, x0, IntegratorConfig(dt=1e-2, t_end=0.1)),
    lambda sys, x0: oracle_simulate(sys, x0, dt=1e-2, t_end=0.1)]


@pytest.mark.parametrize("integrate", SHORT_RUNS, ids=["simulate", "oracle"])
def test_a_finite_difference_gradient_steps_where_x_dot_x_overflows(
        integrate):
    # at (1e160, 1e160) the sum of squares in the difference step
    # overflows; the run must match its analytic-gradient twin, whose
    # states do not move at this scale
    x0 = np.array([1e160, 1e160])
    with np.errstate(all="raise"):
        numeric = integrate(linear_h_system(None), x0)
    analytic = integrate(linear_h_system(lambda x: np.array([1.0, -1.0])), x0)
    assert numeric.times.shape == (11,)
    for name in ("times", "states", "energies", "energy_rates"):
        assert np.array_equal(getattr(numeric, name),
                              getattr(analytic, name)), name


@pytest.mark.parametrize("x0", [(1e-200, 1.0), (1e-200, 2.0)])
@pytest.mark.parametrize("integrate", SHORT_RUNS, ids=["simulate", "oracle"])
def test_a_finite_difference_gradient_steps_where_a_square_underflows(
        integrate, x0):
    # x·x of the difference step meets the square 1e-400 before the larger
    # one, and np.errstate(under="raise") turns its underflow into an
    # error; the run must be the one made without that setting, and stay
    # close to its analytic-gradient twin
    x0 = np.array(x0)
    with np.errstate(all="raise"):
        strict = integrate(linear_h_system(None), x0)
    assert_bitwise_equal(strict, integrate(linear_h_system(None), x0))
    analytic = integrate(linear_h_system(lambda x: np.array([1.0, -1.0])), x0)
    assert strict.times.shape == (11,)
    assert np.allclose(strict.states, analytic.states, rtol=0.0, atol=1e-9)
    assert np.allclose(strict.energies, analytic.energies, rtol=0.0,
                       atol=1e-9)


def test_directional_differences_step_where_a_square_of_g_underflows():
    # G = (1e-200, 1, 1): without J, the norm of G's column meets the
    # square 1e-400 first; under np.errstate(all="raise") the run must be
    # the one made without that setting, and close to its analytic-J twin
    g = np.array([[1e-200], [1.0], [1.0]])
    h = ScalarField(3, value=lambda x: 0.5 * float(x @ x),
                    gradient=lambda x: x.copy())
    pi = np.array([[0.0, 1.0, 0.0], [-1.0, -0.5, 1.0], [0.0, -1.0, 0.0]])
    sys = DIHSystem(3, LDField(TensorField.constant(pi),
                               ConstraintField.constant(g)), h)
    x0 = np.array([1.0, 1.0, -1.0])
    config = IntegratorConfig(dt=1e-2, t_end=0.2)
    with np.errstate(all="raise"):
        strict = simulate(sys, x0, config)
    assert_bitwise_equal(strict, simulate(sys, x0, config))
    analytic = simulate(dataclasses.replace(
        sys, constraint_jacobian=lambda x: g.T), x0, config)
    assert strict.times.shape == (21,)
    assert np.allclose(strict.states, analytic.states, rtol=0.0, atol=1e-8)
    assert np.allclose(strict.multipliers, analytic.multipliers, rtol=0.0,
                       atol=1e-8)


def test_directional_multipliers_where_pi_grad_h_has_a_norm_of_1e160():
    # H = x1²/2 + 1e160 x2, G = (1, 0): the direction Pi grad H = (1e160, 0)
    # has a square of 1e320, yet its norm, the multiplier -1e160 and the
    # run are those of the analytic-J twin
    h = ScalarField(2, value=lambda x: 0.5 * float(x[0]) ** 2
                    + 1e160 * float(x[1]),
                    gradient=lambda x: np.array([x[0], 1e160]))
    field = LDField(TensorField.constant(np.array([[0.0, 1.0], [-1.0, 0.0]])),
                    ConstraintField.constant(np.array([[1.0], [0.0]])))
    twin = DIHSystem(2, field, h,
                     constraint_jacobian=lambda x: np.array([[1.0, 0.0]]))
    no_jac = dataclasses.replace(twin, constraint_jacobian=None)
    x0 = np.zeros(2)
    assert same_bits(multipliers(no_jac, x0)[0], [-1e160])
    for integrate in SHORT_RUNS:
        with np.errstate(all="raise"):
            numeric = integrate(no_jac, x0)
        assert_bitwise_equal(numeric, integrate(twin, x0))


@pytest.mark.parametrize("size", [1e-300, 1e-315])
def test_directional_multipliers_where_pi_grad_h_is_nearly_zero(size):
    # from x0 = size (1, 1, 0), Pi grad H has a norm near size: at 1e-300
    # its square underflows, yet the step s is finite and lambda is the
    # analytic one; at 1e-315, s overflows and lambda is taken as 0, so the
    # run still steps, within a tenth of size of the analytic-J twin
    h = ScalarField(3, value=lambda x: 0.5 * float(x @ x),
                    gradient=lambda x: x.copy())
    pi = np.array([[-1.0, 1.0, 0.0], [-1.0, -1.0, 1.0], [0.0, -1.0, -1.0]])
    g = np.array([[0.0], [0.0], [1.0]])
    twin = DIHSystem(3, LDField(TensorField.constant(pi),
                                ConstraintField.constant(g)), h,
                     constraint_jacobian=lambda x: g.T)
    no_jac = dataclasses.replace(twin, constraint_jacobian=None)
    x0 = np.array([size, size, 0.0])
    lam = multipliers(no_jac, x0)[0]
    assert same_bits(lam, multipliers(twin, x0)[0] if size == 1e-300
                     else [-0.0])
    config = IntegratorConfig(dt=1e-2, t_end=0.1)
    numeric = simulate(no_jac, x0, config)
    analytic = simulate(twin, x0, config)
    assert numeric.times.shape == (11,)
    assert np.abs(numeric.states - analytic.states).max() <= 0.1 * size


def compare_tool():
    """tools/compare_trajectories.py as a module, for its dense_system."""
    path = Path(__file__).resolve().parents[1] / "tools" / \
        "compare_trajectories.py"
    spec = importlib.util.spec_from_file_location("compare_trajectories",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# systems whose multiplier reaches |lambda| > 0.4 within t = 1
MULTIPLIER_RUNS = {
    "particle": lambda: (damped_particle(),
                         np.array([0.0, 0.3, 0.0, 1.0, 0.5, 0.3])),
    "dense k=2": lambda: compare_tool().dense_system(ldkit),
}


@pytest.mark.parametrize("scale", [1.0, 1.1], ids=["lambda", "lambda x 1.1"])
@pytest.mark.parametrize("name", sorted(MULTIPLIER_RUNS))
def test_simulate_meets_the_oracle_where_the_multiplier_acts(
        monkeypatch, name, scale):
    # the oracle steps at dt/2, so a wrong multiplier, shared by both
    # integrators, still shows as a gap between their states: at dt = 1e-3
    # about 1e-14 (particle) and 1e-11 (dense) when right, 5e-6 and 1e-4
    # with lambda x 1.1
    lambda_at = dynamics._lambda_at

    def scaled(*args):
        lam, resid = lambda_at(*args)
        return lam * scale, resid

    monkeypatch.setattr(dynamics, "_lambda_at", scaled)
    system, x0 = MULTIPLIER_RUNS[name]()
    run = simulate(system, x0, IntegratorConfig(dt=1e-3, t_end=1.0))
    oracle = oracle_simulate(system, x0, dt=1e-3, t_end=1.0)
    assert np.abs(run.multipliers).max() > 0.4
    gap = float(np.abs(run.states - oracle.states).max())
    assert (gap <= 1e-9) == (scale == 1.0), gap


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


@pytest.mark.parametrize("times,energies,rates,message", [
    ([0.0, 1.0, 1.0], [1.0, 0.5, 0.25], [-1.0, -0.5, -0.25],
     "times must increase strictly; sample 2"),
    ([0.0, 2.0, 1.0], [1.0, 0.5, 0.25], [-1.0, -0.5, -0.25],
     "times must increase strictly; sample 2"),
    ([0.0, np.nan, 2.0], [1.0, 0.5, 0.25], [-1.0, -0.5, -0.25],
     "times must be finite; sample 1"),
    ([0.0, 1.0, 2.0], [1.0, np.nan, 0.25], [-1.0, -0.5, -0.25],
     "energies must be finite; sample 1"),
    ([0.0, 1.0, 2.0], [1.0, 0.5, 0.25], [-1.0, -0.5, np.inf],
     "rates must be finite; sample 2"),
], ids=["repeated-time", "decreasing-time", "nan-time", "nan-H", "inf-rate"])
def test_audit_series_rejects_a_corrupt_series(times, energies, rates,
                                               message):
    with pytest.raises(InputError, match=message):
        audit_series(times, energies, rates)


# times k/4, H falling by 1/8 per row with a bump of 1/2 planted at row 6,
# and the matching rate -1/2: every value is exact in binary
BUMP_TIMES = np.arange(10) * 0.25
BUMP_ENERGIES = 1.0 - 0.125 * np.arange(10) + 0.5 * (np.arange(10) == 6)


def test_audit_series_locates_a_planted_energy_bump():
    audit = audit_series(BUMP_TIMES, BUMP_ENERGIES, np.full(10, -0.5))
    assert not audit.energy_monotone
    # the step from row 5 to row 6 rises by 1/2 - 1/8
    assert audit.max_energy_increase == 0.375
    assert audit.max_energy_increase_row == 6
    # central differences at rows 5 and 7 are +1/2 and -3/2, both 1 off the
    # rate: the first row wins the tie
    assert audit.max_rate_deviation == 1.0
    assert audit.max_rate_deviation_row == 5
    assert audit.max_rate_row == 0
    assert audit.first_positive_rate_row is None


def test_audit_series_locates_a_single_positive_rate():
    rates = np.full(10, -0.5)
    rates[2] = RATE_TOL  # not above the cutoff
    rates[7] = 1e-9
    energies = 1.0 - 0.125 * np.arange(10)
    audit = audit_series(BUMP_TIMES, energies, rates)
    assert not audit.rates_nonpositive and audit.energy_monotone
    assert audit.first_positive_rate_row == 7
    assert audit.max_rate_row == 7 and audit.max_rate == 1e-9
    assert audit.max_rate_deviation_row == 7
    # a linear H changes by the same step everywhere: the first one
    assert audit.max_energy_increase_row == 1


@pytest.mark.parametrize("rate,first", [(-0.5, None), (0.25, 0)])
def test_audit_series_of_one_sample_has_row_zero(rate, first):
    audit = audit_series([0.0], [1.0], [rate])
    assert (audit.max_rate_row, audit.max_energy_increase_row,
            audit.max_rate_deviation_row) == (0, 0, 0)
    assert audit.max_energy_increase == audit.max_rate_deviation == 0.0
    assert audit.first_positive_rate_row == first


def test_skew_component_does_no_work():
    rng = np.random.default_rng(53)
    p = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for _ in range(50):
        grad = rng.standard_normal(2)
        assert abs(grad @ (p @ grad)) <= 1e-12


# ---------------------------------------------------------------------------
# properties


TRAJECTORY_FIELDS = ("times", "states", "multipliers", "residuals",
                     "energies", "energy_rates")


def assert_bitwise_equal(a, b):
    for name in TRAJECTORY_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def per_call_twin(sys: DIHSystem) -> DIHSystem:
    """``sys`` with its constant Pi and G (when k >= 1) replaced by plain
    callables that return a fresh copy of the same matrix at every call."""
    origin = np.zeros(sys.n)
    m = sys.ld.pi(origin)
    forces = sys.ld.forces
    if sys.k:
        g = forces(origin)
        forces = ConstraintField(sys.n, sys.k, lambda x: g.copy())
    return dataclasses.replace(
        sys, ld=LDField(TensorField(sys.n, lambda x: m.copy()), forces))


@given(seed=st.integers(0, 2_000),
       nk=st.integers(1, 6).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(0, n))),
       analytic_jacobian=st.booleans())
@settings(max_examples=30, deadline=None)
def test_a_constant_structure_runs_bitwise_as_its_per_call_twin(
        seed, nk, analytic_jacobian):
    n, k = nk
    sys, x0 = quadratic_system(np.random.default_rng(seed), n, k)
    if not analytic_jacobian:
        sys = dataclasses.replace(sys, constraint_jacobian=None)
    twin = per_call_twin(sys)
    assert_bitwise_equal(simulate(sys, x0, IntegratorConfig(dt=1e-2, t_end=0.1)),
                         simulate(twin, x0, IntegratorConfig(dt=1e-2, t_end=0.1)))
    assert_bitwise_equal(oracle_simulate(sys, x0, 1e-2, 0.1),
                         oracle_simulate(twin, x0, 1e-2, 0.1))


@pytest.mark.parametrize("integrate", [
    lambda sys, x0: simulate(sys, x0, IntegratorConfig(dt=1e-2, t_end=0.2)),
    lambda sys, x0: oracle_simulate(sys, x0, 1e-2, 0.2)],
    ids=["simulate", "oracle"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_a_constant_pi_is_evaluated_at_set_up_only(monkeypatch, integrate, k):
    calls = []
    evaluate = fields._Constant.__call__

    def counted(self, x):
        calls.append(self)
        return evaluate(self, x)

    monkeypatch.setattr(fields._Constant, "__call__", counted)
    sys, x0 = quadratic_system(np.random.default_rng(7), 4, k)
    traj = integrate(sys, x0)
    assert traj.times.shape == (21,)
    assert calls.count(sys.ld.pi.evaluate) == 1


@pytest.mark.parametrize("integrate,per_interval", [
    (lambda sys, x0: simulate(sys, x0, IntegratorConfig(dt=1e-2, t_end=0.2)),
     4),
    (lambda sys, x0: oracle_simulate(sys, x0, 1e-2, 0.2), 14)],
    ids=["simulate", "oracle"])
def test_replacing_a_constant_fields_evaluate_evaluates_it_per_call(
        integrate, per_interval):
    sys = harmonic_system()
    m = sys.ld.pi(np.zeros(2))
    calls = [0]

    def evaluate(x):
        calls[0] += 1
        return m

    pi = dataclasses.replace(sys.ld.pi, evaluate=evaluate)
    replaced = dataclasses.replace(sys, ld=LDField(pi, sys.ld.forces))
    traj = integrate(replaced, np.array([1.0, 0.0]))
    assert calls[0] == 1 + per_interval * 20
    assert_bitwise_equal(traj, integrate(sys, np.array([1.0, 0.0])))


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


# ---------------------------------------------------------------------------
# hot-loop forms: each must give the result of the plain numpy form it
# replaces, bit for bit


EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0,
    -1.0, 1.4e154, -1.4e154, 1e308, -1e308, math.inf, -math.inf, math.nan])
ANY_FLOAT = st.one_of(EDGE_FLOATS, st.floats())


@given(x=st.lists(ANY_FLOAT, min_size=1, max_size=8))
@example(x=[1e308, 1e308])  # finite, but the sum overflows
@example(x=[1.7e308, 1.7e308, -1.7e308])  # overflows midway
@example(x=[math.inf, -math.inf])  # the sum is nan
@example(x=[-0.0, 5e-324])
def test_the_finite_state_check_gives_the_verdict_of_isfinite(x):
    x = np.array(x)
    assert dynamics._all_finite(x) is bool(np.isfinite(x).all())


@given(a=ANY_FLOAT, c=ANY_FLOAT)
@example(a=-0.0, c=1.0)
@example(a=5e-324, c=1e308)
@example(a=math.nan, c=1.0)
def test_the_one_by_one_multiplier_solve_is_the_plain_quotient(a, c):
    # a z = -c, solved in Python floats: the bits of numpy's -c / a, and
    # no floating-point error even where numpy's quotient would raise one
    matrix, cval = np.array([[a]]), np.array([c])
    with np.errstate(all="ignore"):
        expected = -cval / matrix[0, 0]
    with np.errstate(all="raise"):
        z, resid = dynamics._solve_constraint(matrix, cval)
    if a != 0.0:
        assert same_bits(z, expected)
        assert resid == 0.0
    else:
        assert same_bits(z, [0.0])
        assert same_bits(resid, abs(c))


def quotient_overflow_system() -> DIHSystem:
    """n = 2, k = 1: H = |x|^2 / 2, G = e2 and Pi = [[-1, 1], [-1, 0]], so
    that on x2 = 0 the state decays as x1 = e^-t.  The given J is the true
    one, (0, 1), while x1 > 0.7; below, it is (1, 1e-320), so that
    J G = 1e-320 while J Pi grad H is near -x1, and the multiplier
    -J Pi grad H / J G overflows."""
    h = ScalarField(2, value=lambda x: 0.5 * float(x @ x),
                    gradient=lambda x: x.copy())
    field = LDField(TensorField.constant(np.array([[-1.0, 1.0],
                                                   [-1.0, 0.0]])),
                    ConstraintField.constant(np.array([[0.0], [1.0]])))

    def jac(x):
        return np.array([[0.0, 1.0]] if x[0] > 0.7 else [[1.0, 1e-320]])

    return DIHSystem(2, field, h, constraint_jacobian=jac)


@pytest.mark.parametrize("errors", ["default", "raise"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_one_by_one_multiplier_fails_the_step(errors):
    # the quotient is inf in Python floats where numpy would raise under
    # "raise"; either way the step fails, at x1 = 0.7 (t = ln(1/0.7))
    strict = {} if errors == "default" else {"all": "raise"}
    with np.errstate(**strict), pytest.raises(StepFailureError) as err:
        simulate(quotient_overflow_system(), np.array([1.0, 0.0]),
                 IntegratorConfig(dt=1e-2, t_end=1.0))
    assert err.value.time == pytest.approx(0.35)
    assert err.value.partial.times.shape == (36,)
    assert err.value.state[0] == pytest.approx(math.exp(-0.35))


@given(data=st.data(), n=st.integers(1, 6))
@settings(max_examples=200)
def test_the_hot_loop_products_match_their_matmul_forms(data, n):
    k = data.draw(st.integers(1, n))

    def matrix(rows, cols):
        entries = data.draw(st.lists(st.one_of(EDGE_FLOATS,
                                               st.floats(-1e3, 1e3)),
                                     min_size=rows * cols,
                                     max_size=rows * cols))
        return np.array(entries).reshape(rows, cols)

    g, pi, grad = matrix(n, k), matrix(n, n), matrix(n, 1)[:, 0]
    with np.errstate(all="ignore"):
        # sym(Pi) halves each term first, so that it stays finite near
        # the float maximum
        sym = 0.5 * pi + 0.5 * pi.T
        assert same_bits(dynamics._bracket_hh(grad, pi),
                         float(grad @ (sym @ grad)))
        dot, matmul = g.T.dot(grad), g.T @ grad
        norm = float(np.abs(matmul).max(initial=0.0))
    # the residual G^T grad H: .dot and @ run one BLAS kernel, except that
    # at n = 1 .dot multiplies where @ adds the product to +0.0
    if n == 1:
        assert same_bits(np.abs(dot), np.abs(matmul))
    else:
        assert same_bits(dot, matmul)
    if k == 1:
        assert same_bits(abs(dot.item()), norm)


# ±0, subnormal and 1e±150 entries, and ordinary ones
STEP_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-310, 1e150, -1e150,
                     1e-150, -1e-150]),
    st.floats(-1e3, 1e3))


def draw_array(data, *shape):
    size = math.prod(shape)
    return np.array(data.draw(st.lists(STEP_FLOATS, min_size=size,
                                       max_size=size))).reshape(shape)


@given(data=st.data(), n=st.integers(1, 6), formed_once=st.booleans())
@settings(max_examples=500)
def test_the_energy_rate_is_its_matmul_form_with_signed_zeros(
        data, n, formed_once):
    grad, pi = draw_array(data, n), draw_array(data, n, n)
    with np.errstate(all="ignore"):
        sym = 0.5 * pi + 0.5 * pi.T
        rate = dynamics._bracket_hh(grad, pi, sym if formed_once else None)
        assert same_bits(rate, float(grad @ sym.dot(grad)))


@pytest.mark.parametrize("grad, pi", [([1.0], [[-0.0]]), ([-0.0], [[2.0]]),
                                      ([0.0], [[-3.0]]), ([-1.0], [[0.0]])])
def test_a_zero_energy_rate_at_n_1_is_plus_zero(grad, pi):
    # ``.dot`` alone gives -0.0 here; ``@`` adds the product to +0.0
    rate = dynamics._bracket_hh(np.array(grad), np.array(pi))
    assert rate == 0.0 and math.copysign(1.0, rate) == 1.0


def float_rk4_step(f, x, fx, dt):
    """RK4 with its constants as Python floats: the plain formula."""
    k2 = f(x + (0.5 * dt) * fx)
    k3 = f(x + (0.5 * dt) * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (fx + 2.0 * (k2 + k3) + k4)


def float_gbs_step(f, y, f0, big_h):
    """GBS(2, 4) with its constants as Python floats: the plain formula."""
    def chain(nsub):
        h = big_h / nsub
        z_prev, z = y, y + h * f0
        for _ in range(nsub - 1):
            z_prev, z = z, z_prev + (2.0 * h) * f(z)
        return 0.5 * z + 0.5 * z_prev + (0.5 * h) * f(z)

    t1, t2 = chain(2), chain(4)
    return t2 + (t2 - t1) / 3.0


@given(data=st.data(), n=st.integers(1, 6),
       h=st.one_of(st.sampled_from([1e-3, 5e-4, 0.05, 0.1, 1.0]),
                   st.floats(1e-9, 10.0)))
@settings(max_examples=300)
def test_the_steppers_with_0d_coefficients_are_their_python_float_forms(
        data, n, h):
    x, w = draw_array(data, n), draw_array(data, n, n)

    def f(y):
        return w.dot(y) + np.tanh(y)

    with np.errstate(all="ignore"):
        fx = f(x)
        assert same_bits(
            dynamics._rk4_step(f, x, fx, dynamics._rk4_coefficients(h)),
            float_rk4_step(f, x, fx, h))
        assert same_bits(
            dynamics._gbs_step(f, x, fx, dynamics._gbs_coefficients(h)),
            float_gbs_step(f, x, fx, h))


@pytest.mark.parametrize("k, poison", [(1, "grad"), (1, "g"), (2, "grad"),
                                       (2, "g")])
def test_a_nan_residual_fails_the_step(monkeypatch, k, poison):
    # grad H or G turns nan right after the first step is taken, so the
    # projection meets a nan residual; nan <= tol is false, so the Newton
    # steps cannot accept it
    sys, x0 = quadratic_system(np.random.default_rng(5), 4, k)
    poisoned = [False]
    step = dynamics._rk4_step

    def step_then_poison(*args):
        x_new = step(*args)
        poisoned[0] = True
        return x_new

    def nan_once_poisoned(evaluate, shape):
        def poisoned_evaluate(x):
            return np.full(shape, np.nan) if poisoned[0] else evaluate(x)
        return poisoned_evaluate

    if poison == "grad":
        ham = sys.hamiltonian
        sys = dataclasses.replace(sys, hamiltonian=dataclasses.replace(
            ham, gradient=nan_once_poisoned(ham.gradient, (4,))))
    else:
        forces = dataclasses.replace(sys.ld.forces, evaluate=nan_once_poisoned(
            sys.ld.forces.evaluate, (4, k)))
        sys = dataclasses.replace(sys, ld=LDField(sys.ld.pi, forces))
    monkeypatch.setattr(dynamics, "_rk4_step", step_then_poison)
    with pytest.raises(StepFailureError) as err:
        simulate(sys, x0, IntegratorConfig(dt=1e-2, t_end=0.1))
    assert err.value.time == 0.0
    assert err.value.partial.times.shape == (1,)
    if k == 1:  # k = 2 may fail first in the least-squares solve
        assert "projection stalled at residual nan" in str(err.value)


@pytest.mark.parametrize("integrate", [
    lambda sys, x0: simulate(sys, x0, IntegratorConfig(dt=1e-3, t_end=0.01)),
    lambda sys, x0: oracle_simulate(sys, x0, 1e-3, 0.01)],
    ids=["simulate", "oracle"])
def test_a_finite_state_whose_sum_overflows_still_steps(integrate):
    # H = x1 - x2 stays finite where |x| does not: x drifts by -t (1, 1, 0),
    # which 7e307 absorbs.  The entries' sum overflows at every step; no
    # operation of either integrator does
    h = ScalarField(3, value=lambda x: float(x[0] - x[1]),
                    gradient=lambda x: np.array([1.0, -1.0, 0.0]))
    pi = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    sys = DIHSystem(3, LDField(TensorField.constant(pi),
                               ConstraintField.none(3)), h)
    with np.errstate(all="raise"):  # the check itself raises no flag
        traj = integrate(sys, np.full(3, 7e307))
    assert traj.times.shape == (11,)
    assert np.all(traj.states == 7e307)
    assert np.all(traj.energies == 0.0)
