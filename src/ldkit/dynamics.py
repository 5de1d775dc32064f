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
from .fields import LDField, ScalarField, _checked, _Constant
from .numdiff import _FLOAT, central_directional, central_gradient
from .subspaces import as_vector, complement_columns

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
# the multiplier of every k = 0 state; the recorder's k = 0 multiplier
# array has no entries, so it writes none
_NO_LAM = np.zeros(0)
_NO_LAM.setflags(write=False)
# the recorder allocates 8(n + k + 4) B per grid row when the run starts
# (10^8 particle steps: 8.8 GB); an allocation that fails raises InputError
# before the first step
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
    cutoffs RATE_TOL and MONOTONE_TOL.  Each ``*_row`` is the sample row
    where its value occurs (the first, on a tie); max_energy_increase_row
    is the row that ends the step, and both step-based rows are 0 with
    fewer than 2 samples.  first_positive_rate_row is the first row whose
    rate exceeds RATE_TOL, or None.
    """

    n_samples: int
    energy_drift: float
    max_rate: float
    rates_nonpositive: bool
    max_energy_increase: float
    energy_monotone: bool
    max_rate_deviation: float
    max_rate_row: int
    max_energy_increase_row: int
    max_rate_deviation_row: int
    first_positive_rate_row: int | None


class _Compiled:
    """Raw closures for the hot loop; :attr:`start` holds the one checked
    evaluation at x0: x0, grad H, G, Pi, J or None, |G^T grad H|, H.

    A constant Pi (built by ``TensorField.constant``) and the empty G of
    k = 0 are checked once, at set-up, and not evaluated per step:
    :attr:`pi_fixed`, :attr:`sym_fixed` = sym(Pi) and :attr:`g_fixed` hold
    them, None otherwise.

    Any other callable may still go bad mid-run.  The hot loop then checks
    the shapes where results meet, at little cost: grad H in :func:`_terms`,
    Pi in :func:`_checked_pi`, G and grad H through the residual G^T grad H
    in :func:`_project`, G and J through the k×k multiplier matrix in
    :func:`_solve_constraint`, the residual in the difference probes, and
    H in :attr:`hval`.  Without these checks numpy broadcasting would let a
    malformed result bend the trajectory silently.  Each stepped state must
    pass :func:`_all_finite`, and the recorder rejects a non-finite H or
    [H, H].

    Per step and per right-hand side, these checks and the products next
    to them take the cheapest call with the same IEEE result:
    ``ndarray.dot`` where it runs the BLAS kernel of ``@`` (G^T grad H,
    sym(Pi) grad H and the [H, H] product after it), Python floats for
    the k = 1 residual norm and the whole 1×1 multiplier solve -c / a, a
    Python sum before ``np.isfinite``, and, without an analytic J, the
    directions [G, Pi grad H] joined by ``np.concatenate``, with each
    probe offset of the directional differences formed once.  Constants
    that numpy would convert on every call are made once: the float
    dtype passed to ``np.asarray``, and the steppers' coefficients, 0-d
    float64 arrays made per run.  At n = 1, ``.dot`` multiplies where
    ``@`` adds the product to +0.0, so a zero residual may carry the
    other sign; :func:`_project` reads only its magnitude, or a nonzero
    residual, and [H, H] adds +0.0.
    """

    __slots__ = ("n", "k", "grad", "pi", "g", "jac", "residual", "hval",
                 "vector_shape", "matrix_shape", "residual_shape", "start",
                 "pi_fixed", "sym_fixed", "g_fixed")

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
        self.pi = sys.ld.pi.evaluate
        self.g = sys.ld.forces.evaluate
        if isinstance(self.pi, _Constant):
            self.pi_fixed = pi0
            self.sym_fixed = 0.5 * (pi0 + pi0.T)
        else:
            self.pi_fixed = self.sym_fixed = None
        self.g_fixed = g0 if self.k == 0 else None
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
        # without an analytic J, products J·V are directional differences
        # of the constraint residual c(y) = G(y)^T grad H(y)
        g_eval = self.g
        grad_eval = self.grad
        self.residual = lambda y: np.asarray(g_eval(y)).T.dot(grad_eval(y))


def _solve_constraint(a: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve the k×k system a·z = -c, min-norm least squares when singular.

    Returns (z, residual) with residual the max-norm of a·z + c.  The 1×1
    system is solved in Python floats: negating then dividing is the same
    IEEE operation there as in numpy, at less call overhead.  An
    overflowing quotient is ±inf with no numpy warning or error; the
    step then fails on the non-finite right-hand side or state.  Raises
    ValueError when a is not k×k, which only a malformed G or J produces.
    """
    if a.shape == (1, 1):
        if a.item() != 0.0:
            return np.array([-c.item() / a.item()]), 0.0
        return np.zeros(1), abs(c.item())
    if a.shape != c.shape * 2:
        raise ValueError(f"G or J returned a malformed result mid-run: "
                         f"multiplier matrix of shape {a.shape} for "
                         f"{c.shape[0] if c.ndim else 0} constraints")
    b = -c
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = float(np.abs(a @ sol - b).max(initial=0.0))
    return sol, resid


def _malformed(name: str, value: np.ndarray, shape: tuple) -> ValueError:
    return ValueError(f"{name} returned shape {value.shape} mid-run, "
                      f"expected {shape}")


def _lambda_at(c: _Compiled, x: np.ndarray, g: np.ndarray,
               pi_grad: np.ndarray, jac) -> tuple[np.ndarray, float]:
    if jac is not None:
        jac = np.asarray(jac, dtype=_FLOAT)
        cval = jac.dot(pi_grad)
        lam, resid = _solve_constraint(jac.dot(g), cval)
    else:
        v = np.concatenate((g, pi_grad[:, None]), axis=1)
        jv = central_directional(c.residual, x, v, c.k)
        cval = jv[:, -1]
        lam, resid = _solve_constraint(jv[:, :-1], cval)
    if resid and resid > _PROJECTION_TOL * max(
            1.0, float(np.abs(cval).max(initial=0.0))):
        raise DegenerateMultiplierError(
            f"multiplier system is singular and inconsistent (least-squares "
            f"residual {resid:.3e})", ls_residual=resid)
    return lam, resid


def check_consistency(sys: DIHSystem, x) -> ConsistencyReport:
    """Test membership of ``x`` in chi_c = {x : G(x)^T grad H(x) = 0}: the
    max-norm residual must be at most 1e-10, the bound runs start from."""
    point = as_vector(x, sys.n, "state")
    if sys.k == 0:
        return ConsistencyReport(True, 0.0)
    g = sys.ld.forces(point)
    grad = sys.hamiltonian.grad(point)
    residual = float(np.abs(g.T @ grad).max(initial=0.0))
    return ConsistencyReport(residual <= _PROJECTION_TOL, residual)


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


def _checked_pi(c: _Compiled, x: np.ndarray) -> np.ndarray:
    """Pi at x: the constant checked at set-up, else a shape-checked
    evaluation."""
    if c.pi_fixed is not None:
        return c.pi_fixed
    pi = np.asarray(c.pi(x), dtype=_FLOAT)
    if pi.shape != c.matrix_shape:
        raise _malformed("Pi", pi, c.matrix_shape)
    return pi


def _terms(c: _Compiled, x: np.ndarray, grad: np.ndarray, g: np.ndarray,
           pi: np.ndarray, jac) -> tuple[np.ndarray, np.ndarray]:
    """The multiplier and the right-hand side at x, given grad H, G, the
    checked Pi and J there; J None takes J·V as directional differences.

    The hot path uses ndarray.dot: on these tiny operands it costs about
    half the call overhead of ``@``.
    """
    if grad.shape != c.vector_shape:
        raise _malformed("grad H", grad, c.vector_shape)
    pi_grad = pi.dot(grad)
    if c.k == 0:
        return _NO_LAM, pi_grad
    lam, _ = _lambda_at(c, x, g, pi_grad, jac)
    return lam, pi_grad + g.dot(lam)


def _rhs_raw(c: _Compiled, x: np.ndarray) -> np.ndarray:
    grad = np.asarray(c.grad(x), dtype=_FLOAT)
    g = c.g_fixed
    if g is None:
        g = np.asarray(c.g(x), dtype=_FLOAT)
    return _terms(c, x, grad, g, _checked_pi(c, x),
                  None if c.jac is None else c.jac(x))[1]


def rhs(sys: DIHSystem, x) -> np.ndarray:
    """Right-hand side Pi grad H + G lambda at a consistent state."""
    c = _Compiled(sys, x)
    return _terms(c, *c.start[:5])[1]


def kernel_form(sys: DIHSystem, x) -> KernelForm:
    """Multiplier-free reduced form [K; 0] xdot = (K Pi grad H, G^T grad H).

    K spans the left null space of G(x); with k = 0 it is the identity.
    Raises RegularityError when G(x) drops rank.
    """
    point = as_vector(x, sys.n, "state")
    grad = sys.hamiltonian.grad(point)
    pi = sys.ld.pi(point)
    g = sys.ld.forces(point)
    n, k = sys.n, sys.k
    kmat = complement_columns(g, k).T
    lhs = np.vstack([kmat, np.zeros((k, n))])
    rhs_vec = np.concatenate([kmat @ (pi @ grad), g.T @ grad])
    return KernelForm(kmat, lhs, rhs_vec)


def _bracket_hh(grad: np.ndarray, pi: np.ndarray,
                sym: np.ndarray | None = None) -> float:
    # through sym(Pi), not grad·(Pi grad): a skew Pi then gives exactly 0.0;
    # ``sym``, when given, is sym(Pi) formed once for a constant Pi.  The
    # outer product is ``.dot``, which at n = 1 multiplies where ``@`` adds
    # the product to +0.0; adding +0.0 turns its -0.0 into the +0.0 of
    # ``@`` and leaves every other value as it is
    if sym is None:
        sym = 0.5 * (pi + pi.T)
    return float(grad.dot(sym.dot(grad))) + 0.0


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
        return x, np.asarray(c.grad(x), dtype=_FLOAT), c.g_fixed, 0.0
    for i in range(_MAX_PROJECTION_ITERS + 1):
        g = np.asarray(c.g(x), dtype=_FLOAT)
        grad = np.asarray(c.grad(x), dtype=_FLOAT)
        cval = g.T.dot(grad)
        if cval.shape != c.residual_shape:
            raise ValueError(f"G or grad H returned a malformed result "
                             f"mid-run: residual G^T grad H of shape "
                             f"{cval.shape}, expected {c.residual_shape}")
        worst = abs(cval.item()) if c.k == 1 else float(np.abs(cval).max())
        if worst <= _PROJECTION_TOL:
            return x, grad, g, worst
        if i == _MAX_PROJECTION_ITERS:
            raise ValueError(f"projection stalled at residual {worst:.3e}")
        if c.jac is not None:
            a = np.asarray(c.jac(x), dtype=_FLOAT) @ g
        else:
            a = central_directional(c.residual, x, g, c.k)
        delta, _ = _solve_constraint(a, cval)
        x = x + g @ delta


class _Recorder:
    """The run's six arrays, allocated for every grid row at set-up; row i
    is written in place, and the first ``m`` rows are written."""

    def __init__(self, c: _Compiled, rows: int):
        self.c = c
        self.m = 0
        try:
            self.arrays = (np.empty(rows), np.empty((rows, c.n)),
                           np.empty((rows, c.k)), np.empty(rows),
                           np.empty(rows), np.empty(rows))
        except MemoryError as exc:
            raise InputError(
                f"cannot allocate the trajectory: {rows:,} rows of "
                f"{8 * (c.n + c.k + 4)} B need {8 * rows * (c.n + c.k + 4):,} "
                f"bytes") from exc
        (self.times, self.states, self.lams, self.residuals, self.energies,
         self.rates) = self.arrays

    def record(self, t: float, x: np.ndarray, grad: np.ndarray,
               pi: np.ndarray, lam: np.ndarray, resid: float,
               energy: float) -> None:
        # evaluate before writing: a failure leaves no half-written row
        rate = _bracket_hh(grad, pi, self.c.sym_fixed)
        if not (math.isfinite(energy) and math.isfinite(rate)):
            # mid-run this fails the step; at the start, the input
            raise (ValueError if self.m else InputError)(
                f"H = {energy} and [H, H] = {rate} at t = {t:.6g} are not "
                f"both finite")
        i = self.m
        self.times[i] = t
        self.states[i] = x
        if self.c.k:  # at k = 0 the row of multipliers has no entries
            self.lams[i] = lam
        self.residuals[i] = resid
        self.energies[i] = energy
        self.rates[i] = rate
        self.m = i + 1

    def build(self) -> Trajectory:
        return Trajectory(*self.arrays)

    def partial(self) -> Trajectory:
        """Copies of the rows written, so that a failed run does not keep
        its whole allocation alive."""
        return Trajectory(*(a[:self.m].copy() for a in self.arrays))


def _all_finite(x: np.ndarray) -> bool:
    """``np.isfinite(x).all()`` for a float vector, at a fifth of its cost
    when it holds: the sum of the entries is finite only if every entry
    is.  Finite entries can overflow the sum too, so the exact test decides
    when it is not finite.  The sum is taken in Python floats, which set
    no numpy floating-point flag: under ``np.errstate(over="raise")`` a
    large finite state must not fail the step."""
    return math.isfinite(sum(x.tolist())) or bool(np.isfinite(x).all())


def _run(sys: DIHSystem, x0, config: IntegratorConfig,
         stepper: Callable[..., np.ndarray],
         coefficients: Callable[[float], tuple],
         substeps: int) -> Trajectory:
    """Drive a one-step map over the time grid, projecting and recording.

    ``substeps`` macro applications of ``stepper`` with size
    h = dt/substeps advance one grid interval; recording happens on the
    grid only.  ``coefficients(h)`` gives the stepper's constants, made
    once per run.  Each accepted state is evaluated once: the projection's
    grad H and G, and the right-hand side there, serve both the record and
    the next step.
    """
    dt = config.dt
    c = _Compiled(sys, x0)
    rec = _Recorder(c, config.steps + 1)
    f = partial(_rhs_raw, c)

    x, grad, g, pi, jac, resid, h0 = c.start
    lam, fx = _terms(c, x, grad, g, pi, jac)
    rec.record(0.0, x, grad, pi, lam, resid, h0)
    coeffs = coefficients(dt / substeps)
    for i in range(1, config.steps + 1):
        t_prev = (i - 1) * dt
        try:
            for _ in range(substeps):
                x_new = stepper(f, x, fx, coeffs)
                if not _all_finite(x_new):
                    raise ValueError(f"the step reached the non-finite "
                                     f"state {x_new}")
                x, grad, g, resid = _project(c, x_new)
                jac = None if c.jac is None else c.jac(x)
                pi = _checked_pi(c, x)
                lam, fx = _terms(c, x, grad, g, pi, jac)
            rec.record(i * dt, x, grad, pi, lam, resid, c.hval(x))
        except (LDKitError, FloatingPointError, ValueError) as exc:
            # a stalled projection, a non-finite state, H or [H, H], and a
            # user callable that passed the up-front checks but returns a
            # malformed result mid-run raise ValueError: from the checks of
            # the hot loop, or from numpy (LinAlgError too)
            raise StepFailureError(
                f"step to t = {i * dt:.6g} failed: {exc}",
                time=t_prev, state=rec.states[rec.m - 1].copy(),
                partial=rec.partial()) from exc
    return rec.build()


def _rk4_coefficients(h: float) -> tuple:
    """RK4's constants h/2, h, h/6 and 2 at step size h, as 0-d float64
    arrays: numpy converts a Python float on every call with an array, a
    0-d array it takes as it is, and the product is the same."""
    return tuple(np.array(v) for v in (0.5 * h, h, h / 6.0, 2.0))


def _rk4_step(f: Callable, x: np.ndarray, fx: np.ndarray,
              coeffs: tuple) -> np.ndarray:
    """One classical RK4 step; ``coeffs`` from :func:`_rk4_coefficients`
    and ``fx`` = f(x)."""
    half_h, h, sixth_h, two = coeffs
    k1 = fx
    k2 = f(x + half_h * k1)
    k3 = f(x + half_h * k2)
    k4 = f(x + h * k3)
    return x + sixth_h * (k1 + two * (k2 + k3) + k4)


def simulate(sys: DIHSystem, x0, config: IntegratorConfig) -> Trajectory:
    """Integrate with fixed-step RK4 plus post-step constraint projection.

    The initial state must lie in chi_c (ConsistencyError otherwise); a
    stalled projection, singular multiplier system, non-finite state, H or
    [H, H], or a user callable that raises ValueError mid-run or returns a
    result of the wrong shape raises StepFailureError carrying the partial
    trajectory.
    """
    return _run(sys, x0, config, _rk4_step, _rk4_coefficients,
                substeps=1)


def _gbs_coefficients(h: float) -> tuple:
    """The constants of a GBS step of size h, as 0-d float64 arrays (see
    :func:`_rk4_coefficients`): for the chains of 2 and 4 substeps,
    (nsub, h_c, 2 h_c, h_c / 2) with h_c = h / nsub, then 0.5 and 3."""
    def chain(nsub: int) -> tuple:
        h_c = h / nsub
        return (nsub, np.array(h_c), np.array(2.0 * h_c),
                np.array(0.5 * h_c))

    return chain(2), chain(4), np.array(0.5), np.array(3.0)


def _midpoint_chain(f: Callable, y0: np.ndarray, f0: np.ndarray,
                    chain: tuple, half: np.ndarray) -> np.ndarray:
    nsub, h, two_h, half_h = chain
    z_prev = y0
    z = y0 + h * f0
    for _ in range(nsub - 1):
        z_prev, z = z, z_prev + two_h * f(z)
    # halving each term first keeps a sum of values near the float
    # maximum finite; halving is exact, so the result is otherwise the same
    return half * z + half * z_prev + half_h * f(z)


def _gbs_step(f: Callable, y: np.ndarray, f0: np.ndarray,
              coeffs: tuple) -> np.ndarray:
    """One extrapolated Gragg modified-midpoint step.

    Two smoothed modified-midpoint passes with 2 and 4 substeps are
    Richardson-extrapolated in the even h^2 error expansion, giving a
    4th-order one-step map built entirely from midpoint chains; ``f0`` is
    f(y) and ``coeffs`` comes from :func:`_gbs_coefficients`.
    """
    chain2, chain4, half, three = coeffs
    t1 = _midpoint_chain(f, y, f0, chain2, half)
    t2 = _midpoint_chain(f, y, f0, chain4, half)
    return t2 + (t2 - t1) / three


def oracle_simulate(sys: DIHSystem, x0, dt: float,
                    t_end: float) -> Trajectory:
    """Independent verification run on the same grid as :func:`simulate`.

    Steps with the extrapolated Gragg modified-midpoint map at half the user
    step (two substeps per grid interval), projects as :func:`simulate` does
    (residual at most 1e-10 in at most 25 Newton steps), and records only on
    the dt grid, so trajectories compare row by row.
    """
    return _run(sys, x0, IntegratorConfig(dt=dt, t_end=t_end), _gbs_step,
                _gbs_coefficients, substeps=2)


def audit_series(times, energies, rates) -> EnergyAudit:
    """Audit an energy series against its stored bracket rates.

    Finite-difference dH/dt uses central differences in the interior and
    one-sided differences at the ends of the sample grid.  Raises
    InputError unless the times increase strictly and every value is
    finite.
    """
    t = np.asarray(times, dtype=float)
    h = np.asarray(energies, dtype=float)
    r = np.asarray(rates, dtype=float)
    if t.ndim != 1 or t.shape != h.shape or t.shape != r.shape:
        raise InputError("times, energies and rates must be equal-length 1-d")
    if t.size == 0:
        raise InputError("audit needs at least one sample")
    for label, values in (("times", t), ("energies", h), ("rates", r)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise InputError(f"{label} must be finite; sample {bad[0]} is "
                             f"{values[bad[0]]}")
    bad = np.flatnonzero(np.diff(t) <= 0.0)
    if bad.size:
        i = bad[0] + 1
        raise InputError(f"times must increase strictly; sample {i} "
                         f"(t = {t[i]:.17g}) does not")
    if t.size < 2:
        deviation = 0.0
        max_increase = 0.0
        deviation_row = increase_row = 0
    else:
        fd = np.gradient(h, t, edge_order=2 if t.size >= 3 else 1)
        gaps = np.abs(fd - r)
        deviation_row = int(gaps.argmax())
        deviation = float(gaps[deviation_row])
        steps = np.diff(h)
        increase_row = int(steps.argmax()) + 1
        max_increase = float(steps[increase_row - 1])
    rate_row = int(r.argmax())
    max_rate = float(r[rate_row])
    positive = np.flatnonzero(r > RATE_TOL)
    return EnergyAudit(
        n_samples=int(t.size),
        energy_drift=float(h[-1] - h[0]),
        max_rate=max_rate,
        rates_nonpositive=max_rate <= RATE_TOL,
        max_energy_increase=max(max_increase, 0.0),
        energy_monotone=max_increase <= MONOTONE_TOL,
        max_rate_deviation=deviation,
        max_rate_row=rate_row,
        max_energy_increase_row=increase_row,
        max_rate_deviation_row=deviation_row,
        first_positive_rate_row=int(positive[0]) if positive.size else None,
    )


def energy_audit(trajectory: Trajectory) -> EnergyAudit:
    """Audit a trajectory's energy series; see :func:`audit_series`."""
    return audit_series(trajectory.times, trajectory.energies,
                        trajectory.energy_rates)
