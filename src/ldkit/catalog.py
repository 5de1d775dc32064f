"""Constructors and a named catalog of dissipative constrained systems.

Three families are provided, each validated at a fixed set of probe points
during construction:

* gradient systems: the metriplectic systems below with P = 0, so
  Pi = -g# for a symmetric positive-semidefinite metric, driven by an
  entropy function (energy strictly dissipates);
* metriplectic systems: Pi = P - g# splitting into a skew Poisson part and a
  symmetric dissipative part;
* damped mechanical systems on states (q, p): Pi = [[0, I], [-I, -R(q)]]
  with friction metric R and constraint forces G = (0; A(q)) acting on the
  momenta.

Each returns a constant Pi (``TensorField.constant``), which the
integrator reads once per run, when the tensors it combines are constant.
The catalog maps stable names onto parameterized builders so runs can be
specified by (name, parameters, initial_state) triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .dynamics import DIHSystem
from .errors import InputError, SpecFormatError
from .fields import (ConstraintField, LDField, ScalarField, TensorField,
                     _Constant)
from .subspaces import DEFAULT_TOLERANCE, as_vector, float_rule, is_symmetric

__all__ = [
    "gradient_system",
    "metriplectic_system",
    "damped_mechanical",
    "damped_particle",
    "SystemSpec",
    "CATALOG",
    "CatalogEntry",
    "build_system",
]

_PROBE_SEED = 20240817


def _probe_points(dim: int) -> np.ndarray:
    rng = np.random.default_rng(_PROBE_SEED)
    pts = rng.normal(size=(5, dim))
    pts[0] = 0.0
    return pts


def _check_symmetric_psd(tensor: TensorField, name: str,
                         points: np.ndarray) -> None:
    for p in points:
        m = tensor(p)
        if not is_symmetric(m):
            raise InputError(f"{name} is not symmetric at probe point {p}")
        # scaled, so that no entry near the float maximum overflows LAPACK
        scale = max(1.0, float(np.abs(m).max(initial=0.0)))
        try:
            eigs = np.linalg.eigvalsh(m / scale)
        except np.linalg.LinAlgError as exc:
            raise InputError(f"{name} has no eigenvalues at probe point {p}: "
                             f"{exc}") from exc
        if eigs.size and float(eigs[0]) < -DEFAULT_TOLERANCE.residual_eps:
            raise InputError(
                f"{name} is not positive semidefinite at probe point {p} "
                f"(eigenvalue {eigs[0] * scale:.3e})")


def _pi_field(n: int, evaluate, *tensors: TensorField) -> TensorField:
    """Pi = ``evaluate``, built once when each of ``tensors`` is constant;
    the constant's finite check refuses a value that overflowed."""
    if all(isinstance(t.evaluate, _Constant) for t in tensors):
        return TensorField.constant(evaluate(np.zeros(n)))
    return TensorField(n, evaluate)


@float_rule
def gradient_system(metric: TensorField, entropy: ScalarField,
                    forces: ConstraintField | None = None) -> DIHSystem:
    """Pure dissipation, xdot = -g#(x) grad S(x) + G(x) lambda: the
    :func:`metriplectic_system` of ``metric`` and ``entropy`` with P = 0.
    The energy rate is [S, S] = -<dS | g# dS> <= 0."""
    n = metric.dim
    return metriplectic_system(TensorField.constant(np.zeros((n, n))),
                               metric, entropy, forces)


@float_rule
def metriplectic_system(poisson: TensorField, metric: TensorField,
                        hamiltonian: ScalarField,
                        forces: ConstraintField | None = None) -> DIHSystem:
    """Mixed dynamics: Pi = P - g# with P skew and g# symmetric psd.

    The skew part does no work; the energy rate is -<dH | g# dH> <= 0.
    """
    n = poisson.dim
    if metric.dim != n or hamiltonian.dim != n:
        raise InputError("metriplectic component dimensions do not match")
    probes = _probe_points(n)
    for p in probes:
        if not is_symmetric(poisson(p), skew=True):
            raise InputError(
                f"Poisson tensor is not skew-symmetric at probe point {p}")
    _check_symmetric_psd(metric, "dissipation metric", probes)
    hamiltonian.check_gradient(probes)
    pi = _pi_field(
        n, lambda x, _p=poisson.evaluate, _m=metric.evaluate:
        np.asarray(_p(x), dtype=float) - np.asarray(_m(x), dtype=float),
        poisson, metric)
    ld = LDField(pi, forces if forces is not None else ConstraintField.none(n))
    return DIHSystem(n, ld, hamiltonian)


@float_rule
def damped_mechanical(damping: TensorField,
                      constraint: ConstraintField | None,
                      hamiltonian: ScalarField) -> DIHSystem:
    """Mechanical system on (q, p) in R^{2m} with friction and constraints.

    ``damping`` is an m×m symmetric psd friction metric R(q) acting on
    momenta; ``constraint`` is an m×k map A(q) whose columns give the
    constraint forces G = (0; A(q)).  The induced algebraic condition is
    A(q)^T dH/dp = 0.
    """
    m = damping.dim
    n = 2 * m
    if hamiltonian.dim != n:
        raise InputError(
            f"Hamiltonian must live on the 2m = {n} dimensional phase space")
    q_probes = _probe_points(m)
    _check_symmetric_psd(damping, "friction metric", q_probes)
    hamiltonian.check_gradient(_probe_points(n))

    eye = np.eye(m)

    def pi_eval(x: np.ndarray, _r=damping.evaluate) -> np.ndarray:
        r = np.asarray(_r(x[:m]), dtype=float)
        out = np.zeros((n, n))
        out[:m, m:] = eye
        out[m:, :m] = -eye
        out[m:, m:] = -r
        return out

    if constraint is None or constraint.k == 0:
        forces = ConstraintField.none(n)
    else:
        if constraint.dim != m:
            raise InputError("constraint map must live on the m config variables")
        k = constraint.k

        def g_eval(x: np.ndarray, _a=constraint.evaluate) -> np.ndarray:
            a = np.asarray(_a(x[:m]), dtype=float)
            out = np.zeros((n, k))
            out[m:, :] = a
            return out

        forces = ConstraintField(n, k, g_eval)

    ld = LDField(_pi_field(n, pi_eval, damping), forces)
    return DIHSystem(n, ld, hamiltonian)


def _friction(mu) -> TensorField:
    """R(q) = diag(mu_i(q)), constant unless an entry is a callable of q."""
    values = [item if callable(item) else float(item) for item in mu]
    if not all(callable(v) or (v >= 0.0 and np.isfinite(v)) for v in values):
        raise InputError("friction coefficients must be finite and >= 0")
    if len(values) != 3:
        raise InputError("damped_particle needs exactly three friction entries")
    if not any(map(callable, values)):
        return TensorField.constant(np.diag(values))
    return TensorField(3, lambda q: np.diag(
        [float(v(q)) if callable(v) else v for v in values]))


@float_rule
def damped_particle(mu=(1.0, 1.0, 1.0)) -> DIHSystem:
    """Particle in R^3 with kinetic energy, diagonal friction mu_i(q), and
    the nonholonomic constraint zdot = y xdot (momentum form y p_x = p_z).

    Friction entries may be constants or callables of q; the constraint
    force column is (0, 0, 0, y, 0, -1), making the reduced multiplier
    system (J G) = 1 + y^2 uniformly regular.
    """
    # each call fills a new copy of the fixed entries (zeros for grad H) and
    # writes only those that depend on x: cheaper than building from lists
    # or through the generic (0; A(q)) wrapper of damped_mechanical
    g_fixed = np.array([[0.0], [0.0], [0.0], [0.0], [0.0], [-1.0]])
    jac_fixed = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, -1.0]])

    def g_eval(x: np.ndarray) -> np.ndarray:
        g = g_fixed.copy()
        g[3, 0] = x[1]
        return g

    def gradient(x: np.ndarray) -> np.ndarray:
        g = np.zeros(6)
        g[3:] = x[3:]
        return g

    def constraint_jacobian(x: np.ndarray) -> np.ndarray:
        # c(x) = y p_x - p_z
        jac = jac_fixed.copy()
        jac[0, 1] = x[3]
        jac[0, 3] = x[1]
        return jac

    def value(x: np.ndarray) -> float:
        # in Python floats: an overflow is inf, not a numpy error
        _, _, _, px, py, pz = x.tolist()
        return 0.5 * (px * px + py * py + pz * pz)

    hamiltonian = ScalarField(6, value=value, gradient=gradient)
    # Pi and the probe checks of friction and H come from damped_mechanical
    system = damped_mechanical(_friction(mu), None, hamiltonian)
    return replace(system, ld=LDField(system.ld.pi,
                                      ConstraintField(6, 1, g_eval)),
                   constraint_jacobian=constraint_jacobian)


# -- named catalog ---------------------------------------------------------


@dataclass(frozen=True)
class SystemSpec:
    """A run request: catalog name, numeric parameters, initial state."""

    name: str
    parameters: dict = field(default_factory=dict)
    initial_state: tuple = ()


@dataclass(frozen=True)
class CatalogEntry:
    builder: Callable[..., DIHSystem]
    defaults: dict
    default_state: tuple
    description: str


def _build_oscillator(omega: float = 1.0, mu: float = 0.0) -> DIHSystem:
    """Pi = P - diag(0, mu), H = (omega^2 q^2 + p^2) / 2."""
    omega = float(omega)
    w2 = omega * omega  # inf above about 1.3e154, where ** 2 raises
    scale = np.array([w2, 1.0])

    def value(x: np.ndarray) -> float:
        # in Python floats: an overflow is inf, not a numpy error
        q, p = x.tolist()
        return 0.5 * (w2 * q * q + p * p)

    h = ScalarField(2, value=value, gradient=lambda x: x * scale)
    poisson = TensorField.constant(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    metric = TensorField.constant(np.diag([0.0, float(mu)]))
    return metriplectic_system(poisson, metric, h)


def _build_gradient_flow(g1: float = 1.0, g2: float = 2.0) -> DIHSystem:
    metric = TensorField.constant(np.diag([float(g1), float(g2)]))

    def value(x: np.ndarray) -> float:
        # in Python floats: an overflow is inf, not a numpy error
        a, b = x.tolist()
        return 0.5 * (a * a + b * b)

    entropy = ScalarField(2, value=value, gradient=lambda x: x.copy())
    return gradient_system(metric, entropy)


def _build_damped_particle(mu1: float = 1.0, mu2: float = 1.0,
                           mu3: float = 1.0) -> DIHSystem:
    return damped_particle((mu1, mu2, mu3))


CATALOG: dict[str, CatalogEntry] = {
    "harmonic_oscillator": CatalogEntry(
        _build_oscillator, {"omega": 1.0}, (1.0, 0.0),
        "canonical oscillator, conservative (pure Poisson)"),
    "gradient_flow": CatalogEntry(
        _build_gradient_flow, {"g1": 1.0, "g2": 2.0}, (1.0, 1.0),
        "linear gradient descent of the quadratic entropy"),
    "damped_oscillator": CatalogEntry(
        _build_oscillator, {"mu": 0.5}, (1.0, 0.0),
        "metriplectic oscillator with momentum friction"),
    "damped_particle": CatalogEntry(
        _build_damped_particle, {"mu1": 1.0, "mu2": 1.0, "mu3": 1.0},
        (0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
        "constrained particle, zdot = y xdot, diagonal friction"),
}


@float_rule
def build_system(spec: SystemSpec) -> tuple[DIHSystem, np.ndarray]:
    """Instantiate a catalog system and its validated initial state."""
    if spec.name not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise SpecFormatError(
            f"unknown catalog system {spec.name!r}; known systems: {known}")
    entry = CATALOG[spec.name]
    params = dict(entry.defaults)
    for key, value in dict(spec.parameters).items():
        if key not in params:
            raise SpecFormatError(
                f"unknown parameter {key!r} for system {spec.name!r}; "
                f"expected a subset of {sorted(params)}")
        try:
            params[key] = float(value)
        except OverflowError as exc:  # an int beyond the float range
            raise SpecFormatError(f"parameter {key!r} must be finite") from exc
        except (TypeError, ValueError) as exc:
            raise SpecFormatError(
                f"parameter {key!r} must be a number") from exc
        if not math.isfinite(params[key]):
            raise SpecFormatError(f"parameter {key!r} must be finite")
    system = entry.builder(**params)
    state = spec.initial_state
    if state is None or len(tuple(state)) == 0:
        x0 = np.asarray(entry.default_state, dtype=float)
    else:
        try:
            x0 = as_vector(np.asarray(state, dtype=float), system.n,
                           "initial_state")
        except OverflowError as exc:  # an int beyond the float range
            raise SpecFormatError(
                "initial_state entries must be finite") from exc
        except (InputError, TypeError, ValueError) as exc:
            raise SpecFormatError(str(exc)) from exc
    return system, x0
