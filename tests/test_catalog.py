"""Tests for the ready-made system constructors and the named catalog."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _gen import particle_multiplier
from ldkit.catalog import (CATALOG, SystemSpec, build_system, damped_mechanical,
                           damped_particle, gradient_system,
                           metriplectic_system)
from ldkit.dynamics import (IntegratorConfig, check_consistency, energy_rate,
                            multipliers, oracle_simulate, rhs, simulate)
from ldkit.errors import ConsistencyError, InputError, SpecFormatError
from ldkit.fields import (ConstraintField, ScalarField, TensorField,
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
    mixed = metriplectic_system(TensorField.constant(np.zeros((2, 2))),
                                TensorField.constant(np.eye(2)),
                                quad_entropy(2))
    pure = gradient_system(TensorField.constant(np.eye(2)), quad_entropy(2))
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.standard_normal(2)
        assert rhs(mixed, x) == pytest.approx(rhs(pure, x), abs=1e-12)


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
