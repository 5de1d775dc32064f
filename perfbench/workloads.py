"""The benchmark's four workloads: seeded inputs, operations and checks.

Every workload is a closed loop with one client: operation ``i + 1`` starts
when operation ``i`` returns.  A workload draws all of its inputs from the
seed in its constructor, with numpy only, so the program receives nothing
but generated specs, states, parameters and raw matrices.  ``build`` makes
the program's systems from those inputs; it is the part of set-up that
``setup_s`` times together with the import.  ``run_op`` performs one
operation, timed with the ``clock`` it is given, and returns an
:class:`OpResult`.

The ``check_*`` functions take program outputs and return the list of
checks they fail, so a test can feed them corrupted outputs.

Workloads reach the program only through the module objects they are
given (``ld`` is the ``ldkit`` package), never through names bound at
import time, so the traced run can swap in its timing wrappers.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import os
from dataclasses import dataclass, field

import numpy as np

DT = 1e-3
GATE_T_END = 10.0      # criterion 06 settings
CLI_T_END = 10.0       # the CLI's default end time: 10,001 rows
USER_FD_T_END = 2.0

# bounds of criterion 06 and of the other workloads' output checks
SURFACE_TOL = 1e-8
RESIDUAL_TOL = 1e-8
ENERGY_STEP_TOL = 1e-10
ORACLE_TOL = 1e-6
CLOSED_FORM_TOL = 1e-6
USER_FD_TOL = 1e-6
ISOTROPY_TOL = 1e-8
FLAG_TOL = 1e-8        # ldkit's default residual_eps
RATE_TOL = 1e-9        # closed-form multiplier and rhs at the start state

FLAG_NAMES = ("forward", "backward", "dirac", "symmetric_dirac", "separable")
CATALOG_NAMES = ("harmonic_oscillator", "gradient_flow", "damped_oscillator",
                 "damped_particle")
DISSIPATIVE = frozenset({"gradient_flow", "damped_oscillator",
                         "damped_particle"})


def steps_for(t_end: float) -> int:
    return int(round(t_end / DT))


@dataclass
class OpResult:
    """One operation: its latency, headline work and timed parts.

    ``units`` work units were done in ``unit_s`` seconds for the workload's
    headline rate; ``parts`` holds further timed quantities that the runner
    sums over the run; ``failures`` lists the checks the output failed.
    """

    ms: float
    units: int
    unit_s: float
    parts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def particle_state(rng: np.random.Generator) -> np.ndarray:
    """A state of the damped particle on its constraint surface p_z = y p_x,
    with unit-scale positions and momenta."""
    x, y, z, px, py = rng.standard_normal(5)
    return np.array([x, y, z, px, py, y * px])


def particle_rates(state: np.ndarray, mu) -> tuple[float, np.ndarray]:
    """Closed-form multiplier and right-hand side of the damped particle.

    Differentiating y p_x - p_z once along the flow gives
    lambda = (mu1 y p_x - p_x p_y - mu3 p_z) / (1 + y^2).
    """
    _, y, _, px, py, pz = state
    mu1, mu2, mu3 = mu
    lam = (mu1 * y * px - px * py - mu3 * pz) / (1.0 + y * y)
    xdot = np.array([px, py, pz, -mu1 * px + lam * y, -mu2 * py,
                     -mu3 * pz - lam])
    return lam, xdot


def catalog_parameters(rng: np.random.Generator) -> dict:
    """Seed-drawn parameters for every catalog system."""
    lo, hi = rng.uniform(0.5, 2.0, 2), rng.uniform(0.5, 1.5, 3)
    return {
        "harmonic_oscillator": {"omega": float(rng.uniform(0.5, 2.0))},
        "gradient_flow": {"g1": float(lo[0]), "g2": float(lo[1])},
        "damped_oscillator": {"mu": float(rng.uniform(0.1, 1.0))},
        "damped_particle": {"mu1": float(hi[0]), "mu2": float(hi[1]),
                            "mu3": float(hi[2])},
    }


def catalog_state(rng: np.random.Generator, name: str) -> np.ndarray:
    """A consistent initial state for a catalog system."""
    if name == "damped_particle":
        return particle_state(rng)
    return rng.standard_normal(2)


def closed_form_end(name: str, params: dict, x0: np.ndarray,
                    t: float) -> np.ndarray | None:
    """Exact state at time t for the systems that have one in closed form."""
    if name == "harmonic_oscillator":
        w = params["omega"]
        q, p = x0
        return np.array([q * np.cos(w * t) + p / w * np.sin(w * t),
                         -q * w * np.sin(w * t) + p * np.cos(w * t)])
    if name == "gradient_flow":
        return x0 * np.exp(-np.array([params["g1"], params["g2"]]) * t)
    return None


# -- checks ------------------------------------------------------------------


def _over(label: str, value: float, bound: float) -> list[str]:
    # written as "not <=" so that NaN fails
    if not value <= bound:
        return [f"{label} {value:.3e} > {bound:.0e}"]
    return []


def check_gate(traj, other) -> list[str]:
    """Criterion 06 on a simulate trajectory and its oracle twin."""
    s = traj.states
    failures = _over("surface residual",
                     float(np.abs(s[:, 1] * s[:, 3] - s[:, 5]).max()),
                     SURFACE_TOL)
    failures += _over("trajectory residual", float(traj.residuals.max()),
                      RESIDUAL_TOL)
    failures += _over("energy increase per step",
                      float(np.diff(traj.energies).max(initial=-np.inf)),
                      ENERGY_STEP_TOL)
    if other.states.shape != s.shape:
        return failures + [f"oracle shape {other.states.shape} != {s.shape}"]
    failures += _over("|simulate - oracle|",
                      float(np.abs(s - other.states).max()), ORACLE_TOL)
    return failures


def check_particle_rates(x0, mu, lam, xdot, in_chi_c: bool) -> list[str]:
    """``multipliers``/``rhs`` at the start state against the closed form,
    and ``check_consistency`` at the end state."""
    want_lam, want_xdot = particle_rates(x0, mu)
    failures = _over("multiplier error",
                     float(np.abs(np.asarray(lam) - want_lam).max()), RATE_TOL)
    failures += _over("rhs error",
                      float(np.abs(np.asarray(xdot) - want_xdot).max()),
                      RATE_TOL)
    if not in_chi_c:
        failures.append("end state left the consistency set")
    return failures


def parse_audit(text: str) -> dict:
    """The verdicts and the drift printed by ``ldkit audit``."""
    out = {}
    for line in text.splitlines():
        if line.startswith("energy rates nonpositive:"):
            out["rates_nonpositive"] = line.split(":")[1].split()[0] == "yes"
        elif line.startswith("energy monotone nonincreasing:"):
            out["energy_monotone"] = line.split(":")[1].split()[0] == "yes"
        elif line.startswith("energy drift"):
            out["drift"] = float(line.rsplit(":", 1)[1])
    return out


def check_pipeline(name: str, params: dict, x0, codes, audit_text: str,
                   traj, twin=None) -> list[str]:
    """One ``simulate`` + ``audit`` pipeline of a catalog system.

    ``traj`` is the trajectory read back from the written file; ``twin`` is
    the read-back of the same run in the other format, when there is one.
    """
    failures = [f"exit codes {tuple(codes)} != (0, 0)"] if tuple(codes) != (0, 0) else []
    rows = traj.times.shape[0]
    if rows != steps_for(CLI_T_END) + 1:
        failures.append(f"{rows} rows, expected {steps_for(CLI_T_END) + 1}")
    verdict = parse_audit(audit_text)
    if not verdict.get("rates_nonpositive", False):
        failures.append("audit: energy rates not nonpositive")
    if name in DISSIPATIVE:
        if not verdict.get("energy_monotone", False):
            failures.append("audit: dissipative energy not monotone")
    else:
        failures += _over("conservative energy drift",
                          abs(verdict.get("drift", np.inf)), CLOSED_FORM_TOL)
    exact = closed_form_end(name, params, np.asarray(x0), CLI_T_END)
    if exact is not None:
        failures += _over("closed-form end-state error",
                          float(np.abs(traj.states[-1] - exact).max()),
                          CLOSED_FORM_TOL)
    if twin is not None:
        for key in ("times", "states", "multipliers", "residuals", "energies",
                    "energy_rates"):
            if not np.array_equal(getattr(traj, key), getattr(twin, key)):
                failures.append(f"csv and json read-backs differ in {key}")
    return failures


def check_structure(predicted, residuals: dict, n: int, signature, basis,
                    gram, intersection_dim=None,
                    expected_intersection=None) -> list[str]:
    """Flags predicted by the construction, the split-pairing signature
    (n, n) and isotropy, and for K ⊕ ann K the dimension of L ∩ V."""
    failures = [f"flag {name} predicted but residual {residuals[name]:.3e}"
                for name in predicted if not residuals[name] <= FLAG_TOL]
    if tuple(signature) != (n, n):
        failures.append(f"signature {tuple(signature)} != ({n}, {n})")
    failures += _over("isotropy", float(np.abs(basis.T @ gram @ basis).max()),
                      ISOTROPY_TOL)
    if intersection_dim != expected_intersection:
        failures.append(f"dim(L ∩ V) = {intersection_dim}, expected "
                        f"{expected_intersection}")
    return failures


def check_user_fd(final, reference) -> list[str]:
    """Finite-difference-Jacobian end state against the analytic one."""
    return _over("|fd - analytic| end state",
                 float(np.abs(np.asarray(final) - reference).max()),
                 USER_FD_TOL)


# -- workloads ---------------------------------------------------------------


class Workload:
    """What the runner needs of a workload; see the module docstring.

    ``rate_name``/``op_name`` name the headline rate and the operation in
    the run record; a run measures whole ``cycle``s of operations, and a
    traced run does ``trace_ops`` operations.  ``kernel`` names the
    calibration kernel of the run's clock (see ``clock.py``).
    """

    name = rate_name = rate_unit = op_name = op_unit = ""
    cycle = trace_ops = 1
    kernel = "arrays"

    def build(self, ld) -> None:
        raise NotImplementedError

    def warm_up(self, ld) -> str:
        """Work done before timing starts, described for the run record."""
        raise NotImplementedError

    def run_op(self, ld, i: int, clock) -> OpResult:
        raise NotImplementedError

    def wrap_user_callables(self, wrap_system) -> None:
        """Swap in timed callables for systems that the catalog did not
        build; the traced run calls it after ``build``."""

    def layer_counts(self) -> dict:
        """Per-layer metrics that the workload counts itself."""
        return {}


class ParticleReference(Workload):
    """Criterion 06: damped particle, mu = (1, 1, 1), dt = 1e-3, t_end = 10;
    ``simulate``, then ``oracle_simulate`` on the same grid, then checks.

    Headline rate: grid steps per second of ``simulate``.  One operation is
    one gate cycle; its latency is the simulate plus the oracle time.
    """

    name = "particle_reference"
    rate_name, rate_unit = "sim_steps_per_s", "1/s"
    op_name, op_unit = "gate_cycle", "ms"
    mu = (1.0, 1.0, 1.0)

    def __init__(self, seed: int, workdir: str):
        self.x0 = particle_state(_rng(seed, 0))
        self.system = None

    def build(self, ld) -> None:
        params = dict(zip(("mu1", "mu2", "mu3"), self.mu))
        spec = ld.SystemSpec("damped_particle", params, tuple(self.x0))
        self.system, _ = ld.build_system(spec)

    def warm_up(self, ld) -> str:
        ld.simulate(self.system, self.x0, ld.IntegratorConfig(DT, 0.05))
        ld.oracle_simulate(self.system, self.x0, DT, 0.05)
        return "simulate and oracle_simulate to t = 0.05"

    def run_op(self, ld, i: int, clock) -> OpResult:
        steps = steps_for(GATE_T_END)
        t0 = clock()
        traj = ld.simulate(self.system, self.x0,
                           ld.IntegratorConfig(dt=DT, t_end=GATE_T_END))
        t1 = clock()
        other = ld.oracle_simulate(self.system, self.x0, DT, GATE_T_END)
        t2 = clock()
        lam, _ = ld.multipliers(self.system, self.x0)
        xdot = ld.rhs(self.system, self.x0)
        end = ld.check_consistency(self.system, traj.states[-1])
        failures = check_gate(traj, other)
        failures += check_particle_rates(self.x0, self.mu, lam[0], xdot,
                                         end.in_chi_c)
        return OpResult(ms=(t2 - t0) * 1e3, units=steps, unit_s=t1 - t0,
                        parts={"sim_s": t1 - t0, "sim_steps": steps,
                               "oracle_s": t2 - t1, "oracle_steps": steps},
                        failures=failures)


class CatalogCli(Workload):
    """The command-line path: for each catalog system and each format,
    ``ldkit simulate`` at dt = 1e-3 to t = 10, then ``ldkit audit``, both
    through ``ldkit.cli.main(argv)`` in this process.

    Headline rate: trajectory rows per second through a whole pipeline.  One
    operation is one pipeline; a run covers whole cycles of all eight.
    """

    name = "catalog_cli"
    rate_name, rate_unit = "pipeline_rows_per_s", "1/s"
    op_name, op_unit = "pipeline", "ms"
    formats = ("csv", "json")
    cycle = trace_ops = len(CATALOG_NAMES) * len(formats)

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, 1)
        self.params = catalog_parameters(rng)
        self.states = {name: catalog_state(rng, name) for name in CATALOG_NAMES}
        self.cases = [(name, fmt) for name in CATALOG_NAMES
                      for fmt in self.formats]
        self.specs, self.outputs = {}, {}
        for name in CATALOG_NAMES:
            spec = os.path.join(workdir, f"{name}.spec.json")
            with open(spec, "w", encoding="utf-8") as fh:
                json.dump({"name": name, "parameters": self.params[name],
                           "initial_state": self.states[name].tolist()}, fh)
            self.specs[name] = spec
            for fmt in self.formats:
                self.outputs[name, fmt] = os.path.join(
                    workdir, f"{name}.trajectory.{fmt}")
        self.readback = {}
        self.bytes = {fmt: 0 for fmt in self.formats}
        self.rows = {fmt: 0 for fmt in self.formats}

    def build(self, ld) -> None:
        for name in CATALOG_NAMES:
            ld.build_system(ld.SystemSpec(name, self.params[name],
                                          tuple(self.states[name])))

    def _pipeline(self, ld, name: str, fmt: str, t_end: float):
        out = self.outputs[name, fmt]
        captured = _io.StringIO()
        with contextlib.redirect_stdout(captured):
            sim_code = ld.cli.main(["simulate", self.specs[name], "--format",
                                    fmt, "--output", out, "--dt", repr(DT),
                                    "--t-end", repr(t_end)])
            mark = captured.tell()
            audit_code = ld.cli.main(["audit", out])
        return (sim_code, audit_code), captured.getvalue()[mark:]

    def warm_up(self, ld) -> str:
        for name, fmt in self.cases:
            self._pipeline(ld, name, fmt, 0.05)
        return "every pipeline to t = 0.05"

    def run_op(self, ld, i: int, clock) -> OpResult:
        name, fmt = self.cases[i % len(self.cases)]
        t0 = clock()
        codes, audit_text = self._pipeline(ld, name, fmt, CLI_T_END)
        elapsed = clock() - t0
        out = self.outputs[name, fmt]
        traj = ld.read_trajectory(out)
        rows = traj.times.shape[0]
        self.bytes[fmt] += os.path.getsize(out)
        self.rows[fmt] += rows
        twin = self.readback.pop(name, None)
        if twin is None:
            self.readback[name] = traj
        failures = check_pipeline(name, self.params[name], self.states[name],
                                  codes, audit_text, traj, twin)
        return OpResult(ms=elapsed * 1e3, units=rows, unit_s=elapsed,
                        failures=failures)

    def layer_counts(self) -> dict:
        return {f"io.{fmt}_bytes_per_row":
                self.bytes[fmt] / self.rows[fmt] if self.rows[fmt] else 0.0
                for fmt in self.formats}


STRUCTURE_KINDS = ("ab", "pair_forward", "pair_backward", "ksum", "deform",
                   "pointwise")
MAP_KINDS = ("skew", "sym", "general", "zero")
# flags every structure of a construction must carry, by generating map
MAP_FLAGS = {"skew": {"dirac"}, "sym": {"symmetric_dirac"}, "general": set(),
             "zero": set(FLAG_NAMES)}


def _random_map(rng: np.random.Generator, k: int, kind: str) -> np.ndarray:
    m = rng.standard_normal((k, k))
    if kind == "skew":
        return 0.5 * (m - m.T)
    if kind == "sym":
        return 0.5 * (m + m.T)
    if kind == "zero":
        return np.zeros((k, k))
    return m


def structure_cases(rng: np.random.Generator, count: int) -> list[dict]:
    """Raw inputs of ``count`` linear structures with n = 1..6."""
    cases = []
    for _ in range(count):
        kind = STRUCTURE_KINDS[int(rng.integers(len(STRUCTURE_KINDS)))]
        n = int(rng.integers(1, 7))
        case = {"kind": kind, "n": n}
        if kind == "ab":
            mk = MAP_KINDS[int(rng.integers(len(MAP_KINDS)))]
            a = rng.standard_normal((n, n))
            case.update(a=a, b=_random_map(rng, n, mk) @ a, orientation="forward",
                        predicted={"forward"} | MAP_FLAGS[mk]
                        | ({"backward"} if mk != "general" else set()))
        elif kind in ("pair_forward", "pair_backward"):
            mk = MAP_KINDS[int(rng.integers(len(MAP_KINDS)))]
            k = int(rng.integers(0, n + 1))
            orientation = kind.split("_")[1]
            case.update(span=rng.standard_normal((n, k)),
                        map=_random_map(rng, k, mk), orientation=orientation,
                        predicted={orientation} | MAP_FLAGS[mk])
        elif kind == "ksum":
            case.update(raw=rng.standard_normal((int(rng.integers(1, n + 1)), n)),
                        orientation="forward", predicted=set(FLAG_NAMES))
        elif kind == "deform":
            a = rng.standard_normal((n, n))
            direction = ("forward", "backward")[int(rng.integers(2))]
            case.update(a=a, b=_random_map(rng, n, "skew") @ a,
                        form=_random_map(rng, n, "sym"), orientation=direction,
                        predicted={direction})
        else:
            system = CATALOG_NAMES[int(rng.integers(len(CATALOG_NAMES)))]
            case.update(system=system, orientation="backward",
                        predicted={"backward"})
        cases.append(case)
    return cases


class StructureSweep(Workload):
    """Linear structures with n = 1..6 from seed-drawn raw inputs, built by
    every construction path, each then classified, converted to its pair and
    given its split pairing.

    Headline rate: structures per second; one operation is one structure.
    """

    name = "structure_sweep"
    rate_name, rate_unit = "structures_per_s", "1/s"
    op_name, op_unit = "structure", "us"
    kernel = "svd"
    pool = 6000
    trace_ops = 1500

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, 2)
        self.params = catalog_parameters(rng)
        self.cases = structure_cases(rng, self.pool)
        for case in self.cases:
            if case["kind"] == "pointwise":
                dim = 6 if case["system"] == "damped_particle" else 2
                case["point"] = rng.standard_normal(dim)
        self.fields = {}
        self.v_factor = {}

    def build(self, ld) -> None:
        for name in CATALOG_NAMES:
            system, _ = ld.build_system(ld.SystemSpec(name, self.params[name]))
            self.fields[name] = system.ld
        for n in range(1, 7):
            self.v_factor[n] = ld.Subspace(
                2 * n, np.vstack([np.eye(n), np.zeros((n, n))]))

    def warm_up(self, ld) -> str:
        for i in range(200):
            self._structure(ld, self.cases[i])
        return "the first 200 structures of the pool"

    def _structure(self, ld, case: dict):
        kind, n = case["kind"], case["n"]
        inter = None
        if kind == "ab":
            l = ld.from_ab(ld.ABRep(case["a"], case["b"]))
        elif kind in ("pair_forward", "pair_backward"):
            carrier = ld.Subspace.from_spanning(case["span"])
            l = ld.from_pair(ld.PairRep(case["orientation"], carrier,
                                        case["map"]))
        elif kind == "ksum":
            _, ker = ld.rank_kernel(case["raw"])
            ann = ld.annihilator(ker)
            basis = np.block([[ker.basis, np.zeros((n, ann.dim))],
                              [np.zeros((n, ker.dim)), ann.basis]])
            l = ld.from_subspace(ld.Subspace(2 * n, basis))
            inter = ld.intersect(l.space, self.v_factor[n]).dim
        elif kind == "deform":
            dirac = ld.from_ab(ld.ABRep(case["a"], case["b"]))
            l = ld.deform(dirac, case["form"], case["orientation"])
        else:
            l = ld.pointwise(self.fields[case["system"]], case["point"])
        residuals = ld.classification_residuals(l.space)
        ld.to_pair(l, case["orientation"])
        pairing = ld.split_pairing(l, case["orientation"])
        return l, residuals, pairing, inter

    def run_op(self, ld, i: int, clock) -> OpResult:
        case = self.cases[i % self.pool]
        t0 = clock()
        l, residuals, pairing, inter = self._structure(ld, case)
        elapsed = clock() - t0
        expected = case["n"] - case["raw"].shape[0] if case["kind"] == "ksum" else None
        failures = check_structure(case["predicted"], residuals, l.n,
                                   pairing.signature, l.space.basis,
                                   pairing.gram, inter, expected)
        return OpResult(ms=elapsed * 1e3, units=1, unit_s=elapsed,
                        failures=failures)


class UserFd(Workload):
    """The damped particle assembled through the public ``fields`` API with
    no ``constraint_jacobian``, so J comes from ``numdiff.central_jacobian``;
    ``simulate`` at dt = 1e-3 to t = 2.

    Headline rate: grid steps per second of ``simulate``.  The reference end
    state of the same inputs with the analytic Jacobian is computed in
    set-up, outside the timed region.
    """

    name = "user_fd"
    rate_name, rate_unit = "sim_steps_per_s", "1/s"
    op_name, op_unit = "simulate", "ms"
    mu = (1.0, 1.0, 1.0)

    def __init__(self, seed: int, workdir: str):
        self.x0 = particle_state(_rng(seed, 3))
        self.system = None
        self.reference = None

    def build(self, ld) -> None:
        mu = self.mu

        def pi_eval(x):
            out = np.zeros((6, 6))
            out[:3, 3:] = np.eye(3)
            out[3:, :3] = -np.eye(3)
            out[3:, 3:] = -np.diag(mu)
            return out

        def g_eval(x):
            out = np.zeros((6, 1))
            out[3, 0], out[5, 0] = x[1], -1.0
            return out

        ham = ld.ScalarField(
            6, value=lambda x: 0.5 * float(x[3:] @ x[3:]),
            gradient=lambda x: np.concatenate([np.zeros(3), x[3:]]))
        self.system = ld.DIHSystem(
            6, ld.LDField(ld.TensorField(6, pi_eval),
                          ld.ConstraintField(6, 1, g_eval)), ham)

    def warm_up(self, ld) -> str:
        ld.simulate(self.system, self.x0, ld.IntegratorConfig(DT, 0.05))
        analytic = ld.DIHSystem(
            6, self.system.ld, self.system.hamiltonian,
            constraint_jacobian=lambda x: np.array(
                [[0.0, x[3], 0.0, x[1], 0.0, -1.0]]))
        self.reference = ld.simulate(
            analytic, self.x0,
            ld.IntegratorConfig(dt=DT, t_end=USER_FD_T_END)).states[-1]
        return ("simulate to t = 0.05, then the analytic-Jacobian reference "
                "run to t = 2")

    def wrap_user_callables(self, wrap_system) -> None:
        self.system = wrap_system(self.system, "user")

    def run_op(self, ld, i: int, clock) -> OpResult:
        steps = steps_for(USER_FD_T_END)
        t0 = clock()
        traj = ld.simulate(self.system, self.x0,
                           ld.IntegratorConfig(dt=DT, t_end=USER_FD_T_END))
        elapsed = clock() - t0
        return OpResult(ms=elapsed * 1e3, units=steps, unit_s=elapsed,
                        parts={"sim_s": elapsed, "sim_steps": steps},
                        failures=check_user_fd(traj.states[-1], self.reference))


WORKLOADS = {w.name: w for w in (ParticleReference, CatalogCli,
                                 StructureSweep, UserFd)}
