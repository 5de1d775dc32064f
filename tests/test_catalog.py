"""Tests for the ready-made system constructors and the named catalog."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _gen import particle_multiplier, same_bits
from ldkit.catalog import (CATALOG, SystemSpec, build_system, damped_mechanical,
                           damped_particle, gradient_system,
                           metriplectic_system)
from ldkit.dynamics import (IntegratorConfig, check_consistency, energy_rate,
                            multipliers, oracle_simulate, rhs, simulate)
from ldkit.errors import (ConsistencyError, InputError, SpecFormatError,
                          StepFailureError)
from ldkit.fields import (ConstraintField, LDField, ScalarField, TensorField,
                          regularity_scan)

CANONICAL_2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def quad_entropy(n):
    return ScalarField(
        n,
        value=lambda x: 0.5 * float(x @ x),
        gradient=lambda x: x.copy(),
    )


# -- gradient systems -------------------------------------------------------


def test_gradient_identity_metric_decays_exponentially():
    sys = gradient_system(TensorField.constant(np.eye(2)), quad_entropy(2))
    assert sys.k == 0
    x0 = np.array([1.0, -0.5])
    assert rhs(sys, x0) == pytest.approx(-x0)
    traj = simulate(sys, x0, IntegratorConfig(dt=1e-3, t_end=1.0))
    assert traj.states[-1] == pytest.approx(np.exp(-1.0) * x0, abs=1e-6)


def test_gradient_constraint_on_flat_direction_keeps_it_constant():
    # S does not depend on x2, so the e2 constraint force is never needed:
    # the degenerate multiplier system is consistent with min-norm lambda 0.
    entropy = ScalarField(
        2,
        value=lambda x: 0.5 * float(x[0] * x[0]),
        gradient=lambda x: np.array([x[0], 0.0]),
    )
    forces = ConstraintField.constant(np.array([[0.0], [1.0]]))
    sys = gradient_system(TensorField.constant(np.eye(2)), entropy, forces)
    lam, residual = multipliers(sys, [1.0, 0.7])
    assert lam == pytest.approx([0.0], abs=1e-12)
    assert residual == pytest.approx(0.0, abs=1e-12)
    traj = simulate(sys, np.array([1.0, 0.7]), IntegratorConfig(dt=1e-3, t_end=1.0))
    assert np.abs(traj.states[:, 1] - 0.7).max() <= 1e-10
    assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_gradient_diagonal_metric_matches_decoupled_exact_solution():
    sys = gradient_system(TensorField.constant(np.diag([1.0, 2.0])),
                          quad_entropy(2))
    traj = simulate(sys, np.array([1.0, 1.0]), IntegratorConfig(dt=1e-3, t_end=1.0))
    assert traj.states[-1] == pytest.approx([np.exp(-1.0), np.exp(-2.0)],
                                            abs=1e-6)
    h = np.array([sys.hamiltonian(x) for x in traj.states])
    assert np.diff(h).max(initial=-np.inf) <= 1e-10


def test_gradient_system_rejects_asymmetric_metric():
    bad = TensorField.constant(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(InputError, match="symmetric"):
        gradient_system(bad, quad_entropy(2))


def test_gradient_system_rejects_indefinite_metric():
    bad = TensorField.constant(np.diag([1.0, -1.0]))
    with pytest.raises(InputError, match="positive semidefinite"):
        gradient_system(bad, quad_entropy(2))


def test_gradient_system_rejects_dimension_mismatch():
    with pytest.raises(InputError, match="dimension"):
        gradient_system(TensorField.constant(np.eye(2)), quad_entropy(3))


# -- metriplectic systems ---------------------------------------------------


def test_metriplectic_zero_metric_conserves_energy():
    sys = metriplectic_system(TensorField.constant(CANONICAL_2),
                              TensorField.constant(np.zeros((2, 2))),
                              quad_entropy(2))
    traj = simulate(sys, np.array([1.0, 0.0]), IntegratorConfig(dt=1e-3, t_end=10.0))
    h = np.array([sys.hamiltonian(x) for x in traj.states])
    assert np.abs(h - h[0]).max() <= 1e-8


def test_metriplectic_zero_poisson_reduces_to_gradient_system():
    # bitwise, for a constant metric and for one evaluated per call
    callable_metric = TensorField(2, lambda x: np.array(
        [[1.0 + x[1] ** 2, 0.5 * x[0]], [0.5 * x[0], 2.0 + x[0] ** 2]]))
    config = IntegratorConfig(dt=1e-2, t_end=1.0)
    rng = np.random.default_rng(7)
    for metric in (TensorField.constant(np.diag([1.0, 2.0])),
                   callable_metric):
        mixed = metriplectic_system(TensorField.constant(np.zeros((2, 2))),
                                    metric, quad_entropy(2))
        pure = gradient_system(metric, quad_entropy(2))
        for _ in range(10):
            x = rng.standard_normal(2)
            assert same_bits(pure.ld.pi(x), mixed.ld.pi(x))
            assert same_bits(rhs(pure, x), rhs(mixed, x))
            assert same_bits(energy_rate(pure, x), energy_rate(mixed, x))
        a = simulate(pure, np.array([1.0, -0.5]), config)
        b = simulate(mixed, np.array([1.0, -0.5]), config)
        for field in ("states", "energies", "energy_rates"):
            assert same_bits(getattr(a, field), getattr(b, field)), field


def test_metriplectic_damped_oscillator_matches_matrix_exponential():
    mu = 0.5
    sys = metriplectic_system(TensorField.constant(CANONICAL_2),
                              TensorField.constant(np.diag([0.0, mu])),
                              quad_entropy(2))
    # xdot = A x with A = Pi; endpoint from the eigendecomposition of A
    a = np.array([[0.0, 1.0], [-1.0, -mu]])
    assert np.linalg.eigvals(a).real.max() < 0.0
    x0 = np.array([1.0, 0.5])
    t_end = 2.0
    w, v = np.linalg.eig(a)
    exact = (v @ np.diag(np.exp(w * t_end)) @ np.linalg.solve(v, x0)).real
    traj = simulate(sys, x0, IntegratorConfig(dt=1e-3, t_end=t_end))
    assert traj.states[-1] == pytest.approx(exact, abs=1e-6)
    h = np.array([sys.hamiltonian(x) for x in traj.states])
    assert np.all(np.diff(h) < 0.0)


def test_metriplectic_rejects_non_skew_poisson():
    bad = TensorField.constant(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(InputError, match="skew"):
        metriplectic_system(bad, TensorField.constant(np.eye(2)),
                            quad_entropy(2))


def test_metriplectic_rejects_asymmetric_metric():
    bad = TensorField.constant(np.array([[1.0, 0.3], [0.0, 1.0]]))
    with pytest.raises(InputError, match="symmetric"):
        metriplectic_system(TensorField.constant(CANONICAL_2), bad,
                            quad_entropy(2))


def test_metriplectic_rejects_dimension_mismatch():
    with pytest.raises(InputError, match="dimensions"):
        metriplectic_system(TensorField.constant(CANONICAL_2),
                            TensorField.constant(np.eye(2)),
                            quad_entropy(3))


# -- damped mechanical systems ----------------------------------------------


def test_damped_mechanical_frictionless_unconstrained_is_canonical():
    sys = damped_mechanical(TensorField.constant(np.zeros((2, 2))), None,
                            quad_entropy(4))
    assert sys.n == 4 and sys.k == 0
    pi = sys.ld.pi(np.zeros(4))
    expected = np.zeros((4, 4))
    expected[:2, 2:] = np.eye(2)
    expected[2:, :2] = -np.eye(2)
    assert pi == pytest.approx(expected)
    traj = simulate(sys, np.array([1.0, 0.0, 0.0, 1.0]),
                    IntegratorConfig(dt=1e-3, t_end=5.0))
    h = np.array([sys.hamiltonian(x) for x in traj.states])
    assert np.abs(h - h[0]).max() <= 1e-8


def test_damped_mechanical_rejects_odd_hamiltonian_dimension():
    with pytest.raises(InputError, match="2m"):
        damped_mechanical(TensorField.constant(np.zeros((2, 2))), None,
                          quad_entropy(3))


def test_damped_mechanical_rejects_constraint_dimension_mismatch():
    bad = ConstraintField.constant(np.zeros((3, 1)))
    with pytest.raises(InputError, match="config"):
        damped_mechanical(TensorField.constant(np.zeros((2, 2))), bad,
                          quad_entropy(4))


def test_damped_particle_multiplier_vanishes_along_x_axis_motion():
    sys = damped_particle((1.0, 1.0, 1.0))
    lam, residual = multipliers(sys, [0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    assert lam == pytest.approx([0.0], abs=1e-12)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_damped_particle_rejects_inconsistent_initial_state():
    sys = damped_particle((1.0, 1.0, 1.0))
    x0 = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 1.0])
    report = check_consistency(sys, x0)
    assert not report.in_chi_c
    assert report.residual == pytest.approx(1.0)
    with pytest.raises(ConsistencyError):
        simulate(sys, x0, IntegratorConfig(dt=1e-3, t_end=1.0))


def test_damped_particle_accepts_position_dependent_friction():
    sys = damped_particle((lambda q: 1.0 + q[1] ** 2, 0.5, lambda q: 2.0))
    x = np.array([0.0, 1.0, 0.0, 1.0, 0.3, 1.0])  # p_z = y p_x holds
    pi = sys.ld.pi(x)
    assert pi[3:, 3:] == pytest.approx(-np.diag([2.0, 0.5, 2.0]))
    lam, _ = multipliers(sys, x)
    assert lam == pytest.approx([particle_multiplier(x, (2.0, 0.5, 2.0))],
                               abs=1e-12)


def test_damped_particle_rejects_negative_friction():
    with pytest.raises(InputError, match=">= 0"):
        damped_particle((1.0, -0.5, 1.0))


def test_damped_particle_rejects_wrong_entry_count():
    with pytest.raises(InputError, match="three"):
        damped_particle((1.0, 1.0))


# -- named catalog ----------------------------------------------------------


def test_catalog_names_states_and_descriptions():
    assert set(CATALOG) == {"harmonic_oscillator", "gradient_flow",
                            "damped_oscillator", "damped_particle"}
    assert build_system(SystemSpec("damped_particle"))[1] == pytest.approx(
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    assert build_system(SystemSpec("harmonic_oscillator"))[1] == \
        pytest.approx([1.0, 0.0])
    for entry in CATALOG.values():
        assert entry.description


def test_build_system_rejects_unknown_name():
    with pytest.raises(SpecFormatError, match="known systems"):
        build_system(SystemSpec(name="pendulum"))


def test_build_system_rejects_unknown_parameter():
    spec = SystemSpec(name="harmonic_oscillator", parameters={"mass": 2.0})
    with pytest.raises(SpecFormatError, match="mass"):
        build_system(spec)


def test_build_system_rejects_non_numeric_parameter():
    spec = SystemSpec(name="harmonic_oscillator", parameters={"omega": "fast"})
    with pytest.raises(SpecFormatError, match="number"):
        build_system(spec)


@pytest.mark.parametrize("spec", [
    SystemSpec("damped_oscillator", {"mu": 10 ** 400}),
    SystemSpec("damped_oscillator", {"mu": -10 ** 400}),
    SystemSpec("gradient_flow", {}, (10 ** 400, 0))],
    ids=["parameter", "negative-parameter", "state"])
def test_build_system_refuses_an_int_beyond_the_float_range(spec):
    with pytest.raises(SpecFormatError, match="must be finite"):
        build_system(spec)


def test_an_oscillator_whose_omega_squared_overflows_is_an_input_error():
    # omega² = 1e400 is inf in Python floats, where float ** 2 raises
    # OverflowError; the gradient check at the probe points refuses it
    with pytest.raises(InputError, match="non-finite"):
        build_system(SystemSpec("harmonic_oscillator", {"omega": 1e200}))


@pytest.mark.parametrize("diagonal, psd", [
    ((1e300, 1e308, 1.0), True), ((1.7e308, 1.7e308), True),
    ((1e308, -1e308), False), ((1.0, -1e-300), True), ((1.0, -1e-7), False)])
def test_the_psd_check_holds_near_the_float_maximum(diagonal, psd):
    # 0.5 (m + m^T) overflows at these entries, and LAPACK's eigvalsh then
    # fails to converge; the check scales m by its largest entry instead
    metric = TensorField.constant(np.diag(diagonal))
    if psd:
        gradient_system(metric, quad_entropy(len(diagonal)))
    else:
        with pytest.raises(InputError, match="positive semidefinite"):
            gradient_system(metric, quad_entropy(len(diagonal)))


def test_a_psd_check_whose_eigensolver_fails_is_an_input_error(monkeypatch):
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(InputError, match="did not converge"):
        gradient_system(TensorField.constant(np.eye(2)), quad_entropy(2))


def test_build_system_uses_default_state_when_none_given():
    sys, x0 = build_system(SystemSpec(name="gradient_flow"))
    assert sys.n == 2
    assert x0 == pytest.approx([1.0, 1.0])


def test_build_system_honors_explicit_state_and_parameters():
    spec = SystemSpec(name="harmonic_oscillator", parameters={"omega": 2.0},
                      initial_state=(0.0, 1.0))
    sys, x0 = build_system(spec)
    assert x0 == pytest.approx([0.0, 1.0])
    # H = (omega^2 q^2 + p^2) / 2
    assert sys.hamiltonian([1.0, 0.0]) == pytest.approx(2.0)
    assert energy_rate(sys, [0.3, -0.4]) == pytest.approx(0.0, abs=1e-15)


def test_build_system_rejects_wrong_state_length():
    spec = SystemSpec(name="gradient_flow", initial_state=(1.0, 2.0, 3.0))
    with pytest.raises(SpecFormatError):
        build_system(spec)


# -- catalog-wide invariants ------------------------------------------------


def test_catalog_systems_keep_constant_constraint_rank():
    rng = np.random.default_rng(11)
    for name in CATALOG:
        sys, _ = build_system(SystemSpec(name=name))
        pts = rng.standard_normal((100, sys.n))
        report = regularity_scan(sys.ld, pts)
        assert report.constant_rank, name


def test_gradient_flow_energy_never_increases_stepwise():
    sys, x0 = build_system(SystemSpec(name="gradient_flow"))
    traj = simulate(sys, x0, IntegratorConfig(dt=1e-3, t_end=5.0))
    h = np.array([sys.hamiltonian(x) for x in traj.states])
    assert np.diff(h).max(initial=-np.inf) <= 1e-10


def test_damped_oscillator_skew_part_does_no_work_along_trajectory():
    sys, x0 = build_system(SystemSpec(name="damped_oscillator"))
    traj = simulate(sys, x0, IntegratorConfig(dt=1e-2, t_end=5.0))
    for x in traj.states:
        grad = sys.hamiltonian.grad(x)
        pi = sys.ld.pi(x)
        skew = 0.5 * (pi - pi.T)
        assert abs(grad @ (skew @ grad)) <= 1e-12


def test_damped_particle_trajectory_stays_on_constraint_surface():
    sys = damped_particle((1.0, 1.0, 1.0))
    x0 = np.array([0.0, 0.5, 0.0, 1.0, 0.3, 0.5])
    traj = simulate(sys, x0, IntegratorConfig(dt=1e-3, t_end=5.0))
    residual = np.abs(traj.states[:, 1] * traj.states[:, 3]
                      - traj.states[:, 5])
    assert residual.max() <= 1e-8
    h = np.array([sys.hamiltonian(x) for x in traj.states])
    assert np.diff(h).max(initial=-np.inf) <= 1e-10


def test_frictionless_particle_conserves_energy():
    sys = damped_particle((0.0, 0.0, 0.0))
    x0 = np.array([0.0, 0.5, 0.0, 1.0, 0.3, 0.5])
    traj = simulate(sys, x0, IntegratorConfig(dt=1e-3, t_end=5.0))
    h = np.array([sys.hamiltonian(x) for x in traj.states])
    assert np.abs(h - h[0]).max() <= 1e-8


def test_oracle_and_simulate_agree_on_damped_particle():
    sys = damped_particle((1.0, 1.0, 1.0))
    x0 = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    a = simulate(sys, x0, IntegratorConfig(dt=1e-3, t_end=2.0))
    b = oracle_simulate(sys, x0, 1e-3, 2.0)
    assert np.abs(a.states - b.states).max() <= 1e-6


@given(st.tuples(*(st.floats(0.0, 4.0) for _ in range(3))),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_damped_particle_energy_rate_is_weighted_momentum_norm(mu, px, py, y):
    sys = damped_particle(mu)
    x = np.array([0.0, y, 0.0, px, py, y * px])
    expected = -(mu[0] * px ** 2 + mu[1] * py ** 2 + mu[2] * (y * px) ** 2)
    assert energy_rate(sys, x) == pytest.approx(expected, abs=1e-10)
    assert energy_rate(sys, x) <= 1e-12


def per_call(matrix) -> TensorField:
    """The field x -> ``matrix`` as a plain callable, which no constructor
    can tell from a field that varies, so that it is evaluated per call."""
    return TensorField(matrix.shape[0], lambda x: matrix)


def test_catalog_pi_is_built_once_and_runs_bitwise_as_built_per_call():
    poisson = per_call(CANONICAL_2)
    # the same components, with Pi = P - g# or -g# formed on every call
    per_call_twins = {
        "harmonic_oscillator": lambda h: metriplectic_system(
            poisson, per_call(np.zeros((2, 2))), h),
        "gradient_flow": lambda h: gradient_system(
            per_call(np.diag([1.0, 2.0])), h),
        "damped_oscillator": lambda h: metriplectic_system(
            poisson, per_call(np.diag([0.0, 0.5])), h),
        "damped_particle": lambda h: damped_particle((lambda q: 1.0,) * 3),
    }
    config = IntegratorConfig(dt=1e-2, t_end=1.0)
    for name, build in per_call_twins.items():
        sys, x0 = build_system(SystemSpec(name=name))
        assert sys.ld.pi.evaluate(x0) is sys.ld.pi.evaluate(x0 + 1.0), name
        twin = build(sys.hamiltonian)
        assert (twin.ld.pi.evaluate(x0)
                is not twin.ld.pi.evaluate(x0 + 1.0)), name
        a = simulate(sys, x0, config)
        b = simulate(twin, x0, config)
        for field in ("times", "states", "multipliers", "residuals",
                      "energies", "energy_rates"):
            assert (getattr(a, field).tobytes()
                    == getattr(b, field).tobytes()), (name, field)


def test_constructors_of_constant_tensors_give_the_catalog_constant_pi():
    # as the demos build them: the constructors see that each tensor they
    # combine is constant and build Pi once, bitwise the catalog's
    constant = TensorField.constant
    built = {
        "damped_oscillator": lambda h: metriplectic_system(
            constant(CANONICAL_2), constant(np.diag([0.0, 0.5])), h),
        "gradient_flow": lambda h: gradient_system(
            constant(np.diag([1.0, 2.0])), h),
        "harmonic_oscillator": lambda h: metriplectic_system(
            constant(CANONICAL_2), constant(np.zeros((2, 2))), h),
    }
    config = IntegratorConfig(dt=1e-3, t_end=2.0)
    for name, build in built.items():
        ref, x0 = build_system(SystemSpec(name=name))
        sys = build(ref.hamiltonian)
        pi = sys.ld.pi.evaluate
        assert pi(x0) is pi(x0 + 1.0), name
        assert pi(x0).tobytes() == ref.ld.pi(x0).tobytes(), name
        a, b = simulate(sys, x0, config), simulate(ref, x0, config)
        for field in ("times", "states", "multipliers", "residuals",
                      "energies", "energy_rates"):
            assert (getattr(a, field).tobytes()
                    == getattr(b, field).tobytes()), (name, field)


def test_a_constructor_with_one_varying_tensor_evaluates_pi_per_call():
    h = quad_entropy(2)
    mixed = metriplectic_system(TensorField.constant(CANONICAL_2),
                                per_call(np.diag([0.0, 0.5])), h)
    damped = damped_mechanical(per_call(np.eye(1)), None, h)
    for sys in (mixed, damped):
        x = np.array([0.3, -0.2])
        assert sys.ld.pi.evaluate(x) is not sys.ld.pi.evaluate(x)
        assert sys.ld.pi(x).tobytes() == sys.ld.pi(x + 1.0).tobytes()


def test_a_callable_friction_particle_evaluates_pi_on_each_call():
    calls = []

    def friction(q):
        calls.append(q[1])
        return 1.0 + q[1] ** 2

    sys = damped_particle((friction, 1.0, 0.5))
    x = np.array([0.0, 0.3, 0.0, 1.0, 0.5, 0.3])
    assert sys.ld.pi(x)[3, 3] == -(1.0 + 0.3 ** 2)
    assert sys.ld.pi(x + np.array([0, 1.0, 0, 0, 0, 0]))[3, 3] == -(
        1.0 + 1.3 ** 2)
    calls.clear()
    simulate(sys, x, IntegratorConfig(dt=1e-2, t_end=0.1))
    # the start, then per RK4 step its three new stages and the projected
    # state
    assert len(calls) == 1 + 4 * 10


def test_a_friction_near_the_float_maximum_builds_under_a_raising_errstate():
    # the PSD check scales R by 1e308, which makes its 1s subnormal: that
    # underflow is not an error, and the run starts at [H, H] = -1e308
    with np.errstate(all="raise"):
        sys, x0 = build_system(
            SystemSpec("damped_particle", {"mu1": 1e308}))
        traj = simulate(sys, x0, IntegratorConfig(dt=1e-3, t_end=0.0))
    assert traj.energy_rates.tolist() == [-1e308]


def test_a_subnormal_friction_gives_the_default_bits_under_raise():
    # sym(Pi) halves Pi_44 = -1e-310, whose half is subnormal and inexact:
    # under a raising errstate the half is taken again with underflow
    # ignored, so the rate is that of the default.  The friction force
    # -1e-310 p_x is subnormal too, and the steppers' products of it
    # underflow: a run ignores that flag, so both integrators give the
    # default's bits
    sys, x0 = build_system(SystemSpec("damped_particle", {"mu1": 1e-310}))
    config = IntegratorConfig(dt=1e-3, t_end=1.0)
    runs = (lambda: simulate(sys, x0, config),
            lambda: oracle_simulate(sys, x0, config.dt, config.t_end))
    rate, plain = energy_rate(sys, x0), [run() for run in runs]
    assert rate == -1.00000000000005e-310
    with np.errstate(all="raise"):
        assert same_bits(energy_rate(sys, x0), rate)
        raised = [run() for run in runs]
    for traj, strict in zip(plain, raised):
        for field in ("times", "states", "multipliers", "residuals",
                      "energies", "energy_rates"):
            assert same_bits(getattr(strict, field),
                             getattr(traj, field)), field


@pytest.mark.parametrize("mode", ["raise", "ignore"])
def test_a_constant_pi_that_overflows_is_refused_under_any_errstate(mode):
    # P - g# overflows to inf off the diagonal when the constant Pi is made
    poisson = TensorField.constant([[0.0, 1e308], [-1e308, 0.0]])
    metric = TensorField.constant(1e308 * np.array([[1.0, -1.0],
                                                    [-1.0, 1.0]]))
    with np.errstate(all=mode), pytest.raises(
            InputError, match="tensor has non-finite entries"):
        metriplectic_system(poisson, metric, quad_entropy(2))


@pytest.mark.parametrize("name,param,value", [
    ("harmonic_oscillator", "omega", 1.0),
    ("harmonic_oscillator", "omega", 2.5),
    ("damped_oscillator", "mu", 0.5),
    ("damped_oscillator", "mu", 0.0),
    ("damped_oscillator", "mu", 3.0)])
def test_both_oscillators_match_their_separate_formulas_bitwise(name, param,
                                                                value):
    # harmonic: H = (omega^2 q^2 + p^2) / 2, Pi = P - 0; damped:
    # H = (q^2 + p^2) / 2, Pi = P - diag(0, mu)
    if param == "omega":
        w2 = value ** 2
        h_ref = lambda x: 0.5 * float(w2 * x[0] * x[0] + x[1] * x[1])
        grad_ref = lambda x: np.array([w2 * x[0], x[1]])
        pi_ref = CANONICAL_2 - np.zeros((2, 2))
    else:
        h_ref = lambda x: 0.5 * float(x[0] * x[0] + x[1] * x[1])
        grad_ref = lambda x: x.copy()
        pi_ref = CANONICAL_2 - np.diag([0.0, value])
    sys, _ = build_system(SystemSpec(name=name, parameters={param: value}))
    rng = np.random.default_rng(5)
    for x in np.vstack([rng.standard_normal((50, 2)) * 10.0,
                        [[0.0, -0.0], [-0.0, 0.0]]]):
        assert sys.hamiltonian(x) == h_ref(x)
        assert sys.hamiltonian.grad(x).tobytes() == grad_ref(x).tobytes()
        assert sys.ld.pi(x).tobytes() == pi_ref.tobytes()


def test_harmonic_oscillator_bracket_is_exactly_zero_on_every_row():
    # the recorder forms grad H . sym(Pi) grad H; grad H . (Pi grad H),
    # which the step already has, leaves round-off here: 10,000 of the
    # 10,001 rows are nonzero and 5,057 of them positive
    sys, x0 = build_system(SystemSpec(name="harmonic_oscillator"))
    traj = simulate(sys, x0, IntegratorConfig(dt=1e-3, t_end=10.0))
    assert traj.energy_rates.shape == (10_001,)
    assert not traj.energy_rates.any()


def particle_built_generically(mu):
    """The damped particle from the public constructors alone: G through
    damped_mechanical's (0; A(q)) wrapper, grad H built from a list, J
    filled per call, and a constant Pi when every friction entry is."""
    entries = [m if callable(m) else (lambda q, _v=float(m): _v) for m in mu]
    a_fixed = np.array([[0.0], [0.0], [-1.0]])

    def a_eval(q):
        a = a_fixed.copy()
        a[0, 0] = q[1]
        return a

    hamiltonian = ScalarField(
        6,
        value=lambda x: 0.5 * float(x[3] * x[3] + x[4] * x[4] + x[5] * x[5]),
        gradient=lambda x: np.array([0.0, 0.0, 0.0, x[3], x[4], x[5]]),
    )
    sys = damped_mechanical(
        TensorField(3, lambda q: np.diag([float(e(q)) for e in entries])),
        ConstraintField(3, 1, a_eval), hamiltonian)
    if not any(callable(m) for m in mu):
        pi = TensorField.constant(sys.ld.pi.evaluate(np.zeros(6)))
        sys = dataclasses.replace(sys, ld=LDField(pi, sys.ld.forces))
    return dataclasses.replace(
        sys, constraint_jacobian=lambda x: np.array(
            [[0.0, x[3], 0.0, x[1], 0.0, -1.0]]))


@pytest.mark.parametrize("mu", [
    (1.0, 1.0, 1.0), (0.3, 1.7, 0.0), (lambda q: 1.0 + q[1] ** 2, 1.0, 0.5)],
    ids=["unit", "mixed", "callable"])
def test_damped_particle_runs_bitwise_as_built_from_generic_constructors(mu):
    x0 = np.array([0.0, 0.3, 0.0, 1.0, 0.5, 0.3])
    sys, twin = damped_particle(mu), particle_built_generically(mu)
    for run in (lambda s: simulate(s, x0, IntegratorConfig(dt=1e-3,
                                                           t_end=1.0)),
                lambda s: oracle_simulate(s, x0, 1e-3, 1.0)):
        a, b = run(sys), run(twin)
        for field in ("times", "states", "multipliers", "residuals",
                      "energies", "energy_rates"):
            assert (getattr(a, field).tobytes()
                    == getattr(b, field).tobytes()), field


EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324,
                     2.2250738585072014e-308, -1e-310]),
    st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(EDGE_FLOATS, min_size=6, max_size=6))
def test_damped_particle_g_and_grad_are_fresh_arrays_of_the_closed_form(
        values):
    sys = damped_particle()
    x = np.array(values)
    g_ref = np.array([[0.0], [0.0], [0.0], [x[1]], [0.0], [-1.0]])
    grad_ref = np.array([0.0, 0.0, 0.0, x[3], x[4], x[5]])
    for call, ref in ((sys.ld.forces.evaluate, g_ref),
                      (sys.hamiltonian.gradient, grad_ref)):
        first = call(x)
        assert first.dtype == np.float64 and first.shape == ref.shape
        assert first.tobytes() == ref.tobytes()  # signbits included
        assert first.flags.writeable
        first[...] = 7.0
        second = call(x)
        assert second is not first and not np.shares_memory(first, second)
        assert second.tobytes() == ref.tobytes()


# ±0, subnormal and 1e±150 entries, ordinary ones and non-finite ones
CALLABLE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-310, 1e150, -1e150,
                     1e-150, -1e-150, 1e200]),
    st.floats())
OMEGAS = (1.0, 0.3, 2.5, 0.0, 1e-160, 1e150)


@functools.cache
def catalog_system(name, **parameters):
    # built once per name and parameters: systems are immutable
    return build_system(SystemSpec(name, parameters))[0]


@given(values=st.lists(CALLABLE_FLOATS, min_size=6, max_size=6),
       omega=st.sampled_from(OMEGAS))
def test_catalog_callables_are_the_numpy_expressions_they_replace(values,
                                                                  omega):
    # H in Python floats, and the oscillator's grad H as one product
    x, x2 = np.array(values), np.array(values[:2])
    w2 = omega ** 2
    oscillator = catalog_system("harmonic_oscillator", omega=omega)
    with np.errstate(all="ignore"):
        grad_ref = x2.copy()
        grad_ref[0] *= w2
        assert same_bits(oscillator.hamiltonian.gradient(x2), grad_ref)
        assert same_bits(oscillator.hamiltonian.value(x2),
                         0.5 * float(w2 * x2[0] * x2[0] + x2[1] * x2[1]))
        assert same_bits(
            catalog_system("gradient_flow").hamiltonian.value(x2),
            0.5 * float(x2[0] * x2[0] + x2[1] * x2[1]))
        assert same_bits(
            catalog_system("damped_particle").hamiltonian.value(x),
            0.5 * float(x[3] * x[3] + x[4] * x[4] + x[5] * x[5]))


@pytest.mark.parametrize("name, x0", [
    ("harmonic_oscillator", (1e200, 0.0)),
    ("gradient_flow", (0.0, -1e160)),
    ("damped_particle", (0.0, 0.0, 0.0, 1e155, 1e155, 0.0))])
def test_a_catalog_h_that_overflows_at_the_start_is_an_input_error(name, x0):
    # H in Python floats overflows to inf and raises no numpy error, even
    # under np.errstate(over="raise"); the start check refuses the inf
    system = catalog_system(name)
    with np.errstate(over="raise"), pytest.raises(
            InputError, match="scalar field has non-finite entries"):
        simulate(system, np.array(x0), IntegratorConfig(dt=1e-3, t_end=0.01))


def test_a_catalog_h_that_overflows_mid_run_fails_the_step():
    # RK4 at h omega = 4 multiplies |x| by about 7.6 per step, so H passes
    # the float maximum near |x| = 1.3e154, long before any state does
    system, x0 = build_system(SystemSpec("harmonic_oscillator"))
    with np.errstate(over="raise"), pytest.raises(StepFailureError) as err:
        simulate(system, x0, IntegratorConfig(dt=4.0, t_end=4.0 * 300))
    partial = err.value.partial
    assert "H = inf" in str(err.value)
    assert 100 < partial.times.shape[0] < 300
    assert np.isfinite(partial.energies).all()
    assert err.value.state.tobytes() == partial.states[-1].tobytes()
    assert err.value.time == partial.times[-1]
