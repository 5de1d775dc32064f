"""Dissipative implicit Hamiltonian systems with constraint forces.

A system couples a pointwise LD structure (Pi, G) with a Hamiltonian H:

    xdot = Pi(x) grad H(x) + G(x) lambda,      0 = G(x)^T grad H(x).

The algebraic condition defines the consistency set chi_c; differentiating
it once (index reduction) yields the multiplier from the linear system
(J G) lambda = -J Pi grad H with J the Jacobian of the constraint residual
c(x) = G(x)^T grad H(x).  Integration is fixed-step RK4 with a Newton
projection along span G(x) back onto chi_c after every step; an independent
verification integrator uses an extrapolated Gragg modified-midpoint step at
half the step size, recording on the same time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import (ConsistencyError, DegenerateMultiplierError, InputError,
                     LDKitError, StepFailureError)
from .fields import LDField, ScalarField, _checked
from .numdiff import central_directional, central_gradient
from .subspaces import (DEFAULT_TOLERANCE, Tolerance, as_vector,
                        complement_columns)

__all__ = [
    "DIHSystem",
    "IntegratorConfig",
    "Trajectory",
    "ConsistencyReport",
    "KernelForm",
    "EnergyAudit",
    "check_consistency",
    "multipliers",
    "rhs",
    "kernel_form",
    "energy_rate",
    "simulate",
    "oracle_simulate",
    "energy_audit",
    "audit_series",
]

# chi_c membership (at set-up, in check_consistency, as the projection's stop)
# is a max-norm residual |G^T grad H| <= _PROJECTION_TOL, reached in at most
# _MAX_PROJECTION_ITERS Newton steps along span G; the same value bounds the
# least-squares residual of a singular multiplier system that counts as solved
_PROJECTION_TOL = 1e-10
_MAX_PROJECTION_ITERS = 25
# the recorder peaks at about 420 B per row for the 2-d harmonic oscillator and
# 523 B per row for the particle (tracemalloc over 10,001 rows): a run of more
# than 10^8 steps needs over 40 GB and could only end by exhausting memory
_MAX_STEPS = 10**8

# audit verdict cutoffs: a rate counts as nonpositive up to round-off, and a
# per-step energy increase up to the projection scale still counts as
# monotone decay
RATE_TOL = 1e-12
MONOTONE_TOL = 1e-10


@dataclass(frozen=True)
class DIHSystem:
    """A dissipative implicit Hamiltonian system on R^n.

    ``constraint_jacobian``, when given, must return the k×n Jacobian J of
    x -> G(x)^T grad H(x).  Without it, the integrator never forms J: it
    takes the products J G and J Pi grad H that the multiplier solve needs
    as k + 1 central directional differences of the constraint residual,
    which costs 2(k + 1) evaluations of G and grad H per multiplier solve
    (and 2k per Newton step of the projection).
    """

    n: int
    ld: LDField
    hamiltonian: ScalarField
    constraint_jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.ld.n != self.n:
            raise InputError(
                f"structure dimension {self.ld.n} does not match n={self.n}")
        if self.hamiltonian.dim != self.n:
            raise InputError(
                f"Hamiltonian dimension {self.hamiltonian.dim} does not "
                f"match n={self.n}")

    @property
    def k(self) -> int:
        return self.ld.k


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step run configuration.

    The run covers t_end / dt steps of size dt, a whole number to within
    1e-9 and at most 10^8; after each step at most 25 Newton steps along
    span G(x) bring the max-norm constraint residual to 1e-10 or below.
    """

    dt: float
    t_end: float

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise InputError("dt must be positive and finite")
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise InputError("t_end must be nonnegative and finite")
        if not math.isfinite(self.t_end / self.dt):
            raise InputError("t_end / dt overflows: too many steps dt")
        if self.steps > _MAX_STEPS:
            raise InputError(f"t_end / dt = {self.t_end / self.dt:.3g} steps "
                             f"exceeds the ceiling of {_MAX_STEPS:,} steps")
        if abs(self.t_end / self.dt - self.steps) > 1e-9:
            raise InputError(f"t_end must be a whole number of steps dt; the "
                             f"nearest is {self.steps * self.dt:.12g}")

    @property
    def steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass
class Trajectory:
    """Sampled run: row i holds the accepted state at times[i].

    multipliers has one row per sample (width k, possibly 0); residuals are
    max-norm constraint residuals |G^T grad H|; energies are H values and
    energy_rates the bracket values [H, H] = grad H^T sym(Pi) grad H.
    """

    times: np.ndarray
    states: np.ndarray
    multipliers: np.ndarray
    residuals: np.ndarray
    energies: np.ndarray
    energy_rates: np.ndarray

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def k(self) -> int:
        return self.multipliers.shape[1]


@dataclass(frozen=True)
class ConsistencyReport:
    """Membership report for the consistency set chi_c."""

    point: np.ndarray
    in_chi_c: bool
    residual: float


@dataclass(frozen=True)
class KernelForm:
    """Constraint-eliminated reduced equations [K; 0] xdot = rhs.

    k_matrix has orthonormal rows spanning the left null space of G(x)
    (K G = 0); reduced_lhs stacks K over k zero rows, and reduced_rhs stacks
    K Pi grad H over the algebraic residual G^T grad H.
    """

    k_matrix: np.ndarray
    reduced_lhs: np.ndarray
    reduced_rhs: np.ndarray


@dataclass(frozen=True)
class EnergyAudit:
    """Energy bookkeeping of a trajectory.

    max_rate_deviation compares finite-difference dH/dt on the sample grid
    against the stored bracket values; the two verdict flags use the module
    cutoffs RATE_TOL and MONOTONE_TOL.
    """

    n_samples: int
    energy_drift: float
    max_rate: float
    rates_nonpositive: bool
    max_energy_increase: float
    energy_monotone: bool
    max_rate_deviation: float


class _ProjectionFailed(Exception):
    def __init__(self, residual: float):
        super().__init__(f"projection stalled at residual {residual:.3e}")
        self.residual = residual


class _Compiled:
    """Raw closures for the hot loop; :attr:`start` holds the one checked
    evaluation at x0: x0, grad H, G, Pi, J or None, |G^T grad H|, H.

    A callable may still go bad mid-run.  The hot loop then checks the
    shapes where results meet, at little cost: grad H and Pi in
    :func:`_terms`, G and grad H through the residual G^T grad H in
    :func:`_project`, G and J through the k×k multiplier matrix in
    :func:`_solve_constraint`, the residual in the difference probes, and
    H in :attr:`hval`.  Without these checks numpy broadcasting would let a
    malformed result bend the trajectory silently.
    """

    __slots__ = ("n", "k", "grad", "pi", "g", "jac", "residual", "hval",
                 "vector_shape", "matrix_shape", "residual_shape", "start")

    def __init__(self, sys: DIHSystem, x0):
        self.n = sys.n
        self.k = sys.k
        self.vector_shape = (sys.n,)
        self.matrix_shape = (sys.n, sys.n)
        self.residual_shape = (sys.k,)
        x0 = as_vector(x0, sys.n, "state")
        ham = sys.hamiltonian
        h0 = ham(x0)
        grad0, pi0, g0 = ham.grad(x0), sys.ld.pi(x0), sys.ld.forces(x0)
        resid0 = float(np.abs(g0.T @ grad0).max(initial=0.0))
        if resid0 > _PROJECTION_TOL:
            raise ConsistencyError(
                f"state is not in the consistency set chi_c: constraint "
                f"residual |G^T grad H| = {resid0:.3e} > "
                f"{_PROJECTION_TOL:.1e}",
                residual=resid0)
        self.jac = sys.constraint_jacobian if self.k else None
        jac0 = None if self.jac is None else _checked(
            self.jac(x0), (self.k, self.n), "constraint Jacobian", x0)
        self.start = (x0, grad0, g0, pi0, jac0, resid0, h0)
        value = ham.value

        def hval(x: np.ndarray) -> float:
            try:
                return float(value(x))
            except TypeError as exc:
                raise ValueError(
                    f"H returned a non-scalar mid-run: {exc}") from exc

        self.hval = hval
        if ham.gradient is not None:
            self.grad = ham.gradient
        else:
            self.grad = lambda x: central_gradient(hval, x)
        self.pi = sys.ld.pi.evaluate
        if self.k:
            self.g = sys.ld.forces.evaluate
        else:
            zero_g = np.zeros((sys.n, 0))
            self.g = lambda x: zero_g
        # without an analytic J, products J·V are directional differences
        # of the constraint residual c(y) = G(y)^T grad H(y)
        g_eval = self.g
        grad_eval = self.grad
        self.residual = lambda y: np.asarray(g_eval(y)).T @ grad_eval(y)


def _solve_constraint(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve the k×k system a·z = b, min-norm least squares when singular.

    Returns (z, residual) with residual the max-norm of a·z - b.  Raises
    ValueError when a is not k×k, which only a malformed G or J produces.
    """
    if a.shape == (1, 1):
        av = a[0, 0]
        if av != 0.0:
            return b / av, 0.0
        return np.zeros(1), float(abs(b[0]))
    if a.shape != b.shape * 2:
        raise ValueError(f"G or J returned a malformed result mid-run: "
                         f"multiplier matrix of shape {a.shape} for "
                         f"{b.shape[0] if b.ndim else 0} constraints")
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = float(np.abs(a @ sol - b).max(initial=0.0))
    return sol, resid


def _malformed(name: str, value: np.ndarray, shape: tuple) -> ValueError:
    return ValueError(f"{name} returned shape {value.shape} mid-run, "
                      f"expected {shape}")


def _lambda_at(c: _Compiled, x: np.ndarray, g: np.ndarray,
               pi_grad: np.ndarray, jac) -> tuple[np.ndarray, float]:
    if jac is not None:
        jac = np.asarray(jac, dtype=float)
        b = -jac.dot(pi_grad)
        lam, resid = _solve_constraint(jac.dot(g), b)
    else:
        jv = central_directional(c.residual, x,
                                 np.column_stack([g, pi_grad]), c.k)
        b = -jv[:, -1]
        lam, resid = _solve_constraint(jv[:, :-1], b)
    if resid and resid > _PROJECTION_TOL * max(
            1.0, float(np.abs(b).max(initial=0.0))):
        raise DegenerateMultiplierError(
            f"multiplier system is singular and inconsistent (least-squares "
            f"residual {resid:.3e})", ls_residual=resid)
    return lam, resid


def check_consistency(sys: DIHSystem, x) -> ConsistencyReport:
    """Test membership of ``x`` in chi_c = {x : G(x)^T grad H(x) = 0}: the
    max-norm residual must be at most 1e-10, the bound runs start from."""
    point = as_vector(x, sys.n, "state")
    if sys.k == 0:
        return ConsistencyReport(point, True, 0.0)
    g = sys.ld.forces(point)
    grad = sys.hamiltonian.grad(point)
    residual = float(np.abs(g.T @ grad).max(initial=0.0))
    return ConsistencyReport(point, residual <= _PROJECTION_TOL, residual)


def multipliers(sys: DIHSystem, x) -> tuple[np.ndarray, float]:
    """Constraint multiplier at a consistent state.

    Solves (J G) lambda = -J Pi grad H with J the constraint-residual
    Jacobian; a singular system falls back to the min-norm least-squares
    solution and the second return value is its residual.
    """
    c = _Compiled(sys, x)
    if c.k == 0:
        return np.zeros(0), 0.0
    point, grad, g, pi, jac = c.start[:5]
    return _lambda_at(c, point, g, pi @ grad, jac)


def _terms(c: _Compiled, x: np.ndarray, grad: np.ndarray, g: np.ndarray,
           pi, jac) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pi, the multiplier and the right-hand side at x, given grad H, G, Pi
    and J there; J None takes J·V as directional differences.

    The hot path uses ndarray.dot: on these tiny operands it costs about
    half the call overhead of ``@``.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape != c.matrix_shape:
        raise _malformed("Pi", pi, c.matrix_shape)
    if grad.shape != c.vector_shape:
        raise _malformed("grad H", grad, c.vector_shape)
    pi_grad = pi.dot(grad)
    if c.k == 0:
        return pi, np.zeros(0), pi_grad
    lam, _ = _lambda_at(c, x, g, pi_grad, jac)
    return pi, lam, pi_grad + g.dot(lam)


def _rhs_raw(c: _Compiled, x: np.ndarray) -> np.ndarray:
    grad = np.asarray(c.grad(x), dtype=float)
    return _terms(c, x, grad, np.asarray(c.g(x), dtype=float), c.pi(x),
                  None if c.jac is None else c.jac(x))[2]


def rhs(sys: DIHSystem, x) -> np.ndarray:
    """Right-hand side Pi grad H + G lambda at a consistent state."""
    c = _Compiled(sys, x)
    return _terms(c, *c.start[:5])[2]


def kernel_form(sys: DIHSystem, x,
                tol: Tolerance = DEFAULT_TOLERANCE) -> KernelForm:
    """Multiplier-free reduced form [K; 0] xdot = (K Pi grad H, G^T grad H).

    K spans the left null space of G(x); with k = 0 it is the identity.
    Raises RegularityError when G(x) drops rank.
    """
    point = as_vector(x, sys.n, "state")
    grad = sys.hamiltonian.grad(point)
    pi = sys.ld.pi(point)
    g = sys.ld.forces(point, tol)
    n, k = sys.n, sys.k
    kmat = complement_columns(g, k).T
    lhs = np.vstack([kmat, np.zeros((k, n))])
    rhs_vec = np.concatenate([kmat @ (pi @ grad), g.T @ grad])
    return KernelForm(kmat, lhs, rhs_vec)


def _bracket_hh(grad: np.ndarray, pi: np.ndarray) -> float:
    # through sym(Pi), not grad·(Pi grad): a skew Pi then gives exactly 0.0
    sym = 0.5 * (pi + pi.T)
    return float(grad @ (sym @ grad))


def energy_rate(sys: DIHSystem, x) -> float:
    """The bracket value [H, H](x) = grad H^T sym(Pi) grad H."""
    point = as_vector(x, sys.n, "state")
    return _bracket_hh(sys.hamiltonian.grad(point), sys.ld.pi(point))


def _project(c: _Compiled, x: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Newton iteration along span G(x) onto the constraint set.

    Returns the projected state with grad H, G and the max-norm constraint
    residual there, so that the caller need not evaluate them again.
    """
    if c.k == 0:
        return x, np.asarray(c.grad(x), dtype=float), c.g(x), 0.0
    for i in range(_MAX_PROJECTION_ITERS + 1):
        g = np.asarray(c.g(x), dtype=float)
        grad = np.asarray(c.grad(x), dtype=float)
        cval = g.T @ grad
        if cval.shape != c.residual_shape:
            raise ValueError(f"G or grad H returned a malformed result "
                             f"mid-run: residual G^T grad H of shape "
                             f"{cval.shape}, expected {c.residual_shape}")
        worst = float(np.abs(cval).max(initial=0.0))
        if worst <= _PROJECTION_TOL:
            return x, grad, g, worst
        if i == _MAX_PROJECTION_ITERS:
            raise _ProjectionFailed(worst)
        if c.jac is not None:
            a = np.asarray(c.jac(x), dtype=float) @ g
        else:
            a = central_directional(c.residual, x, g, c.k)
        delta, _ = _solve_constraint(a, -cval)
        x = x + g @ delta


class _Recorder:
    def __init__(self, c: _Compiled):
        self.c = c
        self.times: list[float] = []
        self.states: list[np.ndarray] = []
        self.lams: list[np.ndarray] = []
        self.residuals: list[float] = []
        self.energies: list[float] = []
        self.rates: list[float] = []

    def record(self, t: float, x: np.ndarray, grad: np.ndarray,
               pi: np.ndarray, lam: np.ndarray, resid: float,
               energy: float) -> None:
        # evaluate before appending: a failure leaves no half-written row
        rate = _bracket_hh(grad, pi)
        self.times.append(t)
        self.states.append(x)
        self.lams.append(lam)
        self.residuals.append(resid)
        self.energies.append(energy)
        self.rates.append(rate)

    def build(self) -> Trajectory:
        return Trajectory(
            times=np.asarray(self.times),
            states=np.asarray(self.states).reshape(len(self.times), self.c.n),
            multipliers=np.asarray(self.lams).reshape(len(self.times), self.c.k),
            residuals=np.asarray(self.residuals),
            energies=np.asarray(self.energies),
            energy_rates=np.asarray(self.rates),
        )


def _run(sys: DIHSystem, x0, config: IntegratorConfig,
         stepper: Callable[..., np.ndarray],
         substeps: int) -> Trajectory:
    """Drive a one-step map over the time grid, projecting and recording.

    ``substeps`` macro applications of ``stepper`` with size dt/substeps
    advance one grid interval; recording happens on the grid only.  Each
    accepted state is evaluated once: the projection's grad H and G, and
    the right-hand side there, serve both the record and the next step.
    """
    dt = config.dt
    c = _Compiled(sys, x0)
    rec = _Recorder(c)
    f = partial(_rhs_raw, c)

    x, grad, g, pi, jac, resid, h0 = c.start
    pi, lam, fx = _terms(c, x, grad, g, pi, jac)
    rec.record(0.0, x, grad, pi, lam, resid, h0)
    h = dt / substeps
    for i in range(1, config.steps + 1):
        t_prev = (i - 1) * dt
        try:
            for _ in range(substeps):
                x_new = stepper(f, x, fx, h)
                if not np.isfinite(x_new).all():
                    raise _ProjectionFailed(float("inf"))
                x, grad, g, resid = _project(c, x_new)
                jac = None if c.jac is None else c.jac(x)
                pi, lam, fx = _terms(c, x, grad, g, c.pi(x), jac)
            rec.record(i * dt, x, grad, pi, lam, resid, c.hval(x))
        except (_ProjectionFailed, LDKitError, FloatingPointError,
                ValueError) as exc:
            # a user callable that passed the up-front checks but returns a
            # malformed result mid-run raises ValueError: from the shape
            # checks of the hot loop, or from numpy (LinAlgError too)
            raise StepFailureError(
                f"step to t = {i * dt:.6g} failed: {exc}",
                time=t_prev, state=rec.states[-1],
                partial=rec.build()) from exc
    return rec.build()


def _rk4_step(f: Callable, x: np.ndarray, fx: np.ndarray,
              dt: float) -> np.ndarray:
    k1 = fx
    k2 = f(x + (0.5 * dt) * k1)
    k3 = f(x + (0.5 * dt) * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def simulate(sys: DIHSystem, x0, config: IntegratorConfig) -> Trajectory:
    """Integrate with fixed-step RK4 plus post-step constraint projection.

    The initial state must lie in chi_c (ConsistencyError otherwise); a
    stalled projection, singular multiplier system, non-finite state, or a
    user callable that raises ValueError mid-run or returns a result of the
    wrong shape raises StepFailureError carrying the partial trajectory.
    """
    return _run(sys, x0, config, _rk4_step, substeps=1)


def _midpoint_chain(f: Callable, y0: np.ndarray, big_h: float, nsub: int,
                    f0: np.ndarray) -> np.ndarray:
    h = big_h / nsub
    z_prev = y0
    z = y0 + h * f0
    for _ in range(nsub - 1):
        z_prev, z = z, z_prev + (2.0 * h) * f(z)
    return 0.5 * (z + z_prev + h * f(z))


def _gbs_step(f: Callable, y: np.ndarray, f0: np.ndarray,
              h: float) -> np.ndarray:
    """One extrapolated Gragg modified-midpoint step of size h.

    Two smoothed modified-midpoint passes with 2 and 4 substeps are
    Richardson-extrapolated in the even h^2 error expansion, giving a
    4th-order one-step map built entirely from midpoint chains; ``f0`` is
    f(y).
    """
    t1 = _midpoint_chain(f, y, h, 2, f0)
    t2 = _midpoint_chain(f, y, h, 4, f0)
    return t2 + (t2 - t1) / 3.0


def oracle_simulate(sys: DIHSystem, x0, dt: float,
                    t_end: float) -> Trajectory:
    """Independent verification run on the same grid as :func:`simulate`.

    Steps with the extrapolated Gragg modified-midpoint map at half the user
    step (two substeps per grid interval), projects as :func:`simulate` does
    (residual at most 1e-10 in at most 25 Newton steps), and records only on
    the dt grid, so trajectories compare row by row.
    """
    return _run(sys, x0, IntegratorConfig(dt=dt, t_end=t_end), _gbs_step,
                substeps=2)


def audit_series(times, energies, rates) -> EnergyAudit:
    """Audit an energy series against its stored bracket rates.

    Finite-difference dH/dt uses central differences in the interior and
    one-sided differences at the ends of the sample grid.
    """
    t = np.asarray(times, dtype=float)
    h = np.asarray(energies, dtype=float)
    r = np.asarray(rates, dtype=float)
    if t.ndim != 1 or t.shape != h.shape or t.shape != r.shape:
        raise InputError("times, energies and rates must be equal-length 1-d")
    if t.size == 0:
        raise InputError("audit needs at least one sample")
    if t.size < 2:
        deviation = 0.0
        max_increase = 0.0
    else:
        fd = np.gradient(h, t, edge_order=2 if t.size >= 3 else 1)
        deviation = float(np.abs(fd - r).max())
        max_increase = float(np.diff(h).max())
    max_rate = float(r.max())
    return EnergyAudit(
        n_samples=int(t.size),
        energy_drift=float(h[-1] - h[0]),
        max_rate=max_rate,
        rates_nonpositive=max_rate <= RATE_TOL,
        max_energy_increase=max(max_increase, 0.0),
        energy_monotone=max_increase <= MONOTONE_TOL,
        max_rate_deviation=deviation,
    )


def energy_audit(trajectory: Trajectory) -> EnergyAudit:
    """Audit a trajectory's energy series; see :func:`audit_series`."""
    return audit_series(trajectory.times, trajectory.energies,
                        trajectory.energy_rates)
