#!/usr/bin/env python3
"""Check that two ldkit source trees integrate bit for bit alike.

Usage:
    python tools/compare_trajectories.py PARENT_SRC CHANGE_SRC [--t-end T]

PARENT_SRC and CHANGE_SRC are ``src`` directories (the ones that hold the
``ldkit`` package).  Each tree runs in its own Python process and makes:

- ``simulate`` of the 4 catalog systems from their default states at
  dt = 1e-3 to t = 10, the CSV and JSON files ``ldkit simulate`` writes
  for them, the six arrays ``read_trajectory`` reads back from each file
  and the output of ``ldkit audit`` of each file;
- ``oracle_simulate`` of ``damped_particle`` to t = 10;
- the damped oscillator built as ``demos/gradient_vs_metriplectic.py``
  builds it, by ``metriplectic_system`` of two ``TensorField.constant``
  tensors and H = |x|^2 / 2 (``demo_oscillator``), under ``simulate``
  from (1, 0) to t = 10;
- the particle without its analytic constraint Jacobian, under
  ``simulate`` and ``oracle_simulate`` to t = 2;
- the particle with a friction entry that is a callable of q (so Pi is
  evaluated per call), under ``simulate`` to t = 2;
- ``gradient_system`` of a metric that is a callable of x
  (``callable_gradient``), free and with a constant k = 1 G, under
  ``simulate`` to t = 2: its Pi is formed per call, which the catalog's
  constant metric never reaches;
- the particle at the coarse step COARSE_DT = 0.05 to t = 2, with and
  without its analytic constraint Jacobian, under ``simulate``: there each
  step leaves chi_c by more than the projection tolerance, so every step
  takes a Newton solve, which the runs at dt = 1e-3 never do;
- the particle with no analytic gradient of H, under ``simulate`` to
  t = 2, so that ``central_gradient`` and ``gradient_step`` run;
- a dense k = 2 system (``dense_system``), under ``simulate`` with and
  without its analytic constraint Jacobian and under ``oracle_simulate``,
  to t = 2: its G has no zero entry, so a reordered sum in G^T grad H or
  in the multiplier solve shows, where the particle's two nonzero entries
  hide it; and once more without J, with G a callable that returns it in
  F order, since G's memory order decides the last bits of the BLAS
  products with G, such as G^T grad H;
- a failing run: the particle whose G turns malformed once y passes its
  value at 60 % of the horizon (t = 1.2 of 2), under ``simulate``; its
  ``StepFailureError`` gives the six arrays of the partial trajectory and
  the last accepted state;
- one-point values of the 4 catalog systems at their default states and
  of the particle at PARTICLE_X0: ``multipliers`` (lambda and its
  residual), ``rhs``, ``energy_rate``, the ``check_consistency`` residual,
  the three arrays of ``kernel_form``, ``bracket(H, H)`` as (full, skew,
  sym), the basis of ``carrier_at``, and the basis and five flags of
  ``fields.pointwise``.  These reach the catalog callables, and the
  field layer's fixed cutoffs, by paths that no trajectory covers;
- the values a run's set-up solves, ``multipliers`` (lambda and its
  residual), ``rhs`` and the ``check_consistency`` residual, of the
  particle without its analytic constraint Jacobian at PARTICLE_X0 and of
  ``dense_system`` with and without J at its start: the multiplier solves
  by directional differences and the k = 2 solve, which the catalog
  points above do not reach;
- H, grad H, and G and J where the system has them, of the 4 catalog
  systems at each state of EDGE_STATES (its first n entries): signed
  zeros, subnormals and entries of 1e±150, which no run reaches, so that
  a rewritten catalog callable is checked at them too;
- the linear layer on fixed inputs drawn from LINEAR_SEED (``linear_runs``):
  the bases, flags and five ``classification_residuals`` values of
  ``from_ab``, ``from_pair`` and ``deform``, the carrier basis and map of
  ``to_pair`` and the Gram matrix and signature of ``split_pairing`` in
  each orientation a structure carries, and the bases of
  ``tangent_part``, ``cotangent_part``, ``intersect``, ``rank_kernel`` and
  ``project_factor``; one of the structures is ``from_ab`` of
  (diag(1, 1e-5), diag(0, 1)) classified again by ``dataclasses.replace``
  at rank_eps = residual_eps = 1e-3, where its forward carrier loses the
  1e-5 direction, so a rank kept from the first classification shows;
- the exit code, stdout and stderr of ``ldkit verify`` of the structure
  specs of VERIFY_SPECS, at the default cutoffs and with
  ``--tol-rank 1e-6 --tol-residual 1e-6``.

Every array of every trajectory, of the failing run, of every read-back,
every one-point, edge-state and linear-layer array must be bitwise equal,
and every file, audit and verify output byte-identical.  Each one that
is not is printed with its max |delta|, and the exit status is 1 (2 when a
tree fails to make its runs).  ``--t-end`` caps every horizon, for a quick
check.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

FIELDS = ("times", "states", "multipliers", "residuals", "energies",
          "energy_rates")
PARTICLE_X0 = (0.0, 0.3, 0.0, 1.0, 0.5, 0.3)
COARSE_DT = 0.05
DENSE_SEED = 20240917
LINEAR_SEED = 20241020
# catalog callables are compared at the first n entries of each
EDGE_STATES = (
    (-0.0, 0.0, -0.0, 0.0, -0.0, 0.0),
    (5e-324, -5e-324, 2.5e-310, -1e-310, 2.2250738585072014e-308, -0.0),
    (1e150, -1e150, 1e-150, -1e-150, 1e150, 1.0),
    (-1e-150, 1e150, -0.0, 5e-324, -1e150, -1e-150),
)
# structure specs for ldkit verify: a skew graph, one forward only at the
# default rank cutoff (A = diag(1, 1e-7)), a pair of each orientation and
# one that is not LD (exit 3)
VERIFY_SPECS = {
    "ab": {"kind": "ab", "n": 2, "a": [[1.0, 0.0], [0.0, 1.0]],
           "b": [[0.0, 1.0], [-1.0, 0.0]]},
    "near": {"kind": "ab", "n": 2, "a": [[1.0, 0.0], [0.0, 1e-7]],
             "b": [[0.0, 1.0], [-1.0, 0.0]]},
    "forward": {"kind": "pair", "n": 3, "orientation": "forward",
                "carrier": [[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]],
                "map": [[0.5, 2.0], [-1.0, 0.25]]},
    "backward": {"kind": "pair", "n": 3, "orientation": "backward",
                 "carrier": [[0.0, 0.6, 0.8]], "map": [[-3.0]]},
    "not_ld": {"kind": "ab", "n": 2, "a": [[1.0, 0.0], [0.0, 0.0]],
               "b": [[0.0, 1.0], [0.0, 0.0]]},
}
VERIFY_FLAGS = ((), ("--tol-rank", "1e-6", "--tol-residual", "1e-6"))


def dense_system(ldkit):
    """n = 6, k = 2: constant Pi = S - 0.1 B B^T (S skew), H = |x|^2 / 2,
    a constant G with orthonormal columns and J = G^T, all drawn from
    DENSE_SEED; returns the system and a start state with G^T x = 0.
    tests/test_dynamics.py runs it against the oracle."""
    rng = np.random.default_rng(DENSE_SEED)
    a, b = rng.standard_normal((2, 6, 6))
    g = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    v = rng.standard_normal(6)
    hamiltonian = ldkit.ScalarField(6, value=lambda x: 0.5 * float(x @ x),
                                    gradient=lambda x: x.copy())
    field = ldkit.LDField(ldkit.TensorField.constant(a - a.T - 0.1 * b @ b.T),
                          ldkit.ConstraintField.constant(g))
    system = ldkit.DIHSystem(6, field, hamiltonian,
                             constraint_jacobian=lambda x: g.T)
    return system, v - g @ (g.T @ v)


def demo_oscillator(ldkit):
    """Pi = [[0, 1], [-1, 0]] - diag(0, 0.5) by ``metriplectic_system`` of
    two constant tensors, H = |x|^2 / 2, as the gradient-vs-metriplectic
    demo builds it."""
    half_norm = ldkit.ScalarField(2, value=lambda x: 0.5 * float(x @ x),
                                  gradient=lambda x: x.copy())
    return ldkit.metriplectic_system(
        ldkit.TensorField.constant(np.array([[0.0, 1.0], [-1.0, 0.0]])),
        ldkit.TensorField.constant(np.diag([0.0, 0.5])), half_norm)


def callable_gradient(ldkit, forces=None):
    """``gradient_system`` of H = |x|^2 / 2 and the metric
    g(x) = diag(1, 2, 3) + v v^T with v = (x_2, 1, -x_1) / 2, a callable
    of x; ``forces`` as given."""
    def metric(x):
        v = 0.5 * np.array([x[1], 1.0, -x[0]])
        return np.diag([1.0, 2.0, 3.0]) + np.outer(v, v)

    half_norm = ldkit.ScalarField(3, value=lambda x: 0.5 * float(x @ x),
                                  gradient=lambda x: x.copy())
    return ldkit.gradient_system(ldkit.TensorField(3, metric), half_norm,
                                 forces)


def linear_runs(ldkit) -> dict:
    """The linear-layer arrays, by name, on inputs drawn from
    LINEAR_SEED."""
    rng = np.random.default_rng(LINEAR_SEED)
    a, b, s, f = rng.standard_normal((4, 4, 4))
    structures = {
        "from_ab generic": ldkit.from_ab(ldkit.ABRep(a, b)),
        "from_ab skew graph": ldkit.from_ab(ldkit.ABRep(np.eye(4), s - s.T)),
    }
    for orientation in ("forward", "backward"):
        carrier = ldkit.Subspace.from_spanning(rng.standard_normal((4, 2)))
        structures[f"from_pair {orientation}"] = ldkit.from_pair(
            ldkit.PairRep(orientation, carrier, rng.standard_normal((2, 2))))
    for direction in ("forward", "backward"):
        structures[f"deform {direction}"] = ldkit.deform(
            structures["from_ab skew graph"], f + f.T, direction)
    marginal = ldkit.from_ab(ldkit.ABRep(np.diag([1.0, 1e-5]),
                                         np.diag([0.0, 1.0])))
    ldkit.to_pair(marginal, "forward")   # a result cached on use would carry
    structures["from_ab marginal, replaced at 1e-3"] = dataclasses.replace(
        marginal, tol=ldkit.Tolerance(1e-3, 1e-3))
    runs = {}
    for label, structure in structures.items():
        runs[f"{label}: basis"] = structure.space.basis
        runs[f"{label}: flags"] = np.array(dataclasses.astuple(
            structure.flags))
        residuals = ldkit.classification_residuals(structure.space)
        runs[f"{label}: residuals"] = np.array(list(residuals.values()))
        for orientation in ("forward", "backward"):
            if getattr(structure.flags, orientation):
                pair = ldkit.to_pair(structure, orientation)
                runs[f"{label}: to_pair {orientation} carrier"] = \
                    pair.carrier.basis
                runs[f"{label}: to_pair {orientation} map"] = pair.matrix
                pairing = ldkit.split_pairing(structure, orientation)
                runs[f"{label}: split_pairing {orientation} gram"] = \
                    pairing.gram
                runs[f"{label}: split_pairing {orientation} signature"] = \
                    np.array(pairing.signature)
        runs[f"{label}: tangent_part"] = ldkit.tangent_part(structure).basis
        runs[f"{label}: cotangent_part"] = ldkit.cotangent_part(
            structure).basis
        for which in ("first", "second"):
            runs[f"{label}: project_factor {which}"] = ldkit.project_factor(
                structure.space, which).basis
    # rank 2 of 5 columns, and two 3-dimensional subspaces of R^4
    planted = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 5))
    rank, kernel = ldkit.rank_kernel(planted)
    runs["rank_kernel: rank"] = np.array(rank)
    runs["rank_kernel: kernel"] = kernel.basis
    u, v = (ldkit.Subspace.from_spanning(rng.standard_normal((4, 3)))
            for _ in range(2))
    runs["intersect"] = ldkit.intersect(u, v).basis
    return runs


def edge_runs(ldkit) -> dict:
    """H, grad H, G and J of each catalog system at each of EDGE_STATES,
    by name; G and J only where the system has them."""
    runs = {}
    for name in sorted(ldkit.CATALOG):
        system, _ = ldkit.build_system(ldkit.SystemSpec(name, {}, ()))
        callables = {"H": system.hamiltonian.value,
                     "grad H": system.hamiltonian.gradient,
                     "G": system.ld.forces.evaluate,
                     "J": system.constraint_jacobian}
        for i, state in enumerate(EDGE_STATES):
            x = np.array(state[:system.n])
            for role, evaluate in callables.items():
                if evaluate is not None:
                    with np.errstate(all="ignore"):
                        runs[f"{name} at EDGE_STATES[{i}]: {role}"] = \
                            np.asarray(evaluate(x))
    return runs


def verify_runs(cli_main, tmp: str) -> dict:
    """The exit code, stdout and stderr of ``ldkit verify`` of each spec of
    VERIFY_SPECS with each of VERIFY_FLAGS, as bytes, by command line."""
    runs = {}
    for name, doc in VERIFY_SPECS.items():
        spec = Path(tmp, f"{name}.json")
        spec.write_text(json.dumps(doc))
        for flags in VERIFY_FLAGS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli_main(["verify", str(spec), *flags])
            text = f"exit {code}\n{out.getvalue()}{err.getvalue()}"
            runs[" ".join(["verify", spec.name, *flags])] = np.frombuffer(
                text.replace(tmp, "TMP").encode(), dtype=np.uint8)
    return runs


def record_runs(src: str, t_end: float, out: Path) -> None:
    """Make every run with the ldkit package under ``src``; save them to
    ``out``."""
    sys.path.insert(0, src)
    import ldkit
    from ldkit.cli import main as cli_main

    if not ldkit.__file__.startswith(src):
        raise SystemExit(f"imported {ldkit.__file__}, not the ldkit in {src}")

    runs = {}

    def keep(label, trajectory):
        for name in FIELDS:
            runs[f"{label}: {name}"] = getattr(trajectory, name)

    def config(horizon):
        return ldkit.IntegratorConfig(dt=1e-3, t_end=min(horizon, t_end))

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(ldkit.CATALOG):
            system, x0 = ldkit.build_system(ldkit.SystemSpec(name, {}, ()))
            keep(f"simulate {name}", ldkit.simulate(system, x0, config(10.0)))
            spec = Path(tmp, f"{name}.json")
            spec.write_text(json.dumps({"name": name, "initial_state": []}))
            for fmt in ("csv", "json"):
                path = Path(tmp, f"{name}.{fmt}")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(["simulate", str(spec), "--format", fmt,
                                     "--t-end", repr(config(10.0).t_end),
                                     "--output", str(path)])
                if code != 0:
                    raise SystemExit(f"ldkit simulate {name} exited {code}")
                runs[f"file {path.name}"] = np.frombuffer(path.read_bytes(),
                                                          dtype=np.uint8)
                keep(f"read {path.name}", ldkit.read_trajectory(str(path)))
                audit = io.StringIO()
                with contextlib.redirect_stdout(audit):
                    code = cli_main(["audit", str(path)])
                if code != 0:
                    raise SystemExit(f"ldkit audit {path.name} exited {code}")
                runs[f"audit {path.name}"] = np.frombuffer(
                    audit.getvalue().encode(), dtype=np.uint8)
        runs.update(verify_runs(cli_main, tmp))

    x0 = np.array(PARTICLE_X0)
    particle = ldkit.damped_particle()
    c = config(10.0)
    keep("oracle damped_particle",
         ldkit.oracle_simulate(particle, x0, c.dt, c.t_end))
    keep("simulate demo-style metriplectic oscillator",
         ldkit.simulate(demo_oscillator(ldkit), np.array([1.0, 0.0]), c))
    no_jac = dataclasses.replace(particle, constraint_jacobian=None)
    c = config(2.0)
    keep("simulate particle without J", ldkit.simulate(no_jac, x0, c))
    keep("oracle particle without J",
         ldkit.oracle_simulate(no_jac, x0, c.dt, c.t_end))
    friction = ldkit.damped_particle((lambda q: 1.0 + q[1] ** 2, 1.0, 0.5))
    keep("simulate particle with callable friction",
         ldkit.simulate(friction, x0, c))
    keep("simulate gradient system with callable metric", ldkit.simulate(
        callable_gradient(ldkit), np.array([1.0, -0.5, 0.25]), c))
    along_x1_x2 = ldkit.ConstraintField.constant(np.array([[1.0], [1.0],
                                                           [0.0]]))
    keep("simulate gradient system with callable metric and k=1 G",
         ldkit.simulate(callable_gradient(ldkit, along_x1_x2),
                        np.array([1.0, -1.0, 0.5]), c))
    # whole coarse steps within the horizon cap
    coarse = ldkit.IntegratorConfig(
        dt=COARSE_DT,
        t_end=COARSE_DT * math.floor(min(2.0, t_end) / COARSE_DT + 1e-9))
    keep("simulate particle at dt 0.05", ldkit.simulate(particle, x0, coarse))
    keep("simulate particle without J at dt 0.05",
         ldkit.simulate(no_jac, x0, coarse))
    no_grad = dataclasses.replace(particle, hamiltonian=dataclasses.replace(
        particle.hamiltonian, gradient=None))
    keep("simulate particle without grad H", ldkit.simulate(no_grad, x0, c))
    dense, dense_x0 = dense_system(ldkit)
    keep("simulate dense k=2", ldkit.simulate(dense, dense_x0, c))
    keep("simulate dense k=2 without J", ldkit.simulate(
        dataclasses.replace(dense, constraint_jacobian=None), dense_x0, c))
    keep("oracle dense k=2",
         ldkit.oracle_simulate(dense, dense_x0, c.dt, c.t_end))
    g_f = np.asfortranarray(dense.ld.forces(dense_x0))
    keep("simulate dense k=2 without J, G in F order", ldkit.simulate(
        dataclasses.replace(dense, constraint_jacobian=None, ld=ldkit.LDField(
            dense.ld.pi, ldkit.ConstraintField(6, 2, lambda x: g_f))),
        dense_x0, c))
    # with mu_y = 1, y = y0 + p_y0 (1 - e^-t) increases monotonically
    y_bad = PARTICLE_X0[1] + PARTICLE_X0[4] * (1.0 - math.exp(-0.6 * c.t_end))
    forces = particle.ld.forces.evaluate

    def going_bad(x):
        g = forces(x)
        return g if x[1] <= y_bad else g[:, 0]

    failing = dataclasses.replace(particle, ld=ldkit.LDField(
        particle.ld.pi, ldkit.ConstraintField(6, 1, going_bad)))
    try:
        ldkit.simulate(failing, x0, c)
    except ldkit.StepFailureError as exc:
        keep("failed particle with G going bad", exc.partial)
        runs["failed particle with G going bad: state"] = exc.state
    else:
        raise SystemExit("the particle with G going bad did not fail")

    points = {name: ldkit.build_system(ldkit.SystemSpec(name, {}, ()))
              for name in sorted(ldkit.CATALOG)}
    points["damped_particle at PARTICLE_X0"] = (particle, x0)
    for label, (system, x) in points.items():
        lam, residual = ldkit.multipliers(system, x)
        report = ldkit.check_consistency(system, x)
        form = ldkit.kernel_form(system, x)
        structure = ldkit.fields.pointwise(system.ld, x)
        h = system.hamiltonian
        values = {
            "multipliers": lam, "multipliers residual": residual,
            "rhs": ldkit.rhs(system, x),
            "energy_rate": ldkit.energy_rate(system, x),
            "consistency residual": report.residual,
            "kernel_form k_matrix": form.k_matrix,
            "kernel_form reduced_lhs": form.reduced_lhs,
            "kernel_form reduced_rhs": form.reduced_rhs,
            "bracket (full, skew, sym)": ldkit.bracket(system.ld, h, h, x),
            "carrier_at basis": ldkit.carrier_at(system.ld, x).basis,
            "pointwise basis": structure.space.basis,
            "pointwise flags": dataclasses.astuple(structure.flags),
        }
        for name, value in values.items():
            runs[f"point {label}: {name}"] = np.asarray(value)
    starts = {"damped_particle without J at PARTICLE_X0": (no_jac, x0),
              "dense k=2 at its start": (dense, dense_x0),
              "dense k=2 without J at its start": (dataclasses.replace(
                  dense, constraint_jacobian=None), dense_x0)}
    for label, (system, x) in starts.items():
        lam, residual = ldkit.multipliers(system, x)
        values = {"multipliers": lam, "multipliers residual": residual,
                  "rhs": ldkit.rhs(system, x),
                  "consistency residual": ldkit.check_consistency(
                      system, x).residual}
        for name, value in values.items():
            runs[f"point {label}: {name}"] = np.asarray(value)
    for name, value in edge_runs(ldkit).items():
        runs[f"edge {name}"] = value
    for name, value in linear_runs(ldkit).items():
        runs[f"linear {name}"] = value
    np.savez(out, **runs)


def differences(parent: dict, change: dict) -> list[str]:
    """One line for each run that is missing on a side or not bitwise
    equal, with its max |delta| when the shapes agree."""
    lines = []
    for key in sorted(set(parent) | set(change)):
        if key not in parent or key not in change:
            lines.append(f"{key}: only in the "
                         f"{'parent' if key in parent else 'change'}")
            continue
        a, b = parent[key], change[key]
        if a.shape != b.shape:
            lines.append(f"{key}: shape {a.shape} != {b.shape}")
        elif a.dtype != b.dtype or a.tobytes() != b.tobytes():
            delta = np.abs(a.astype(float) - b.astype(float))
            lines.append(f"{key}: max |delta| = "
                         f"{float(np.nanmax(delta, initial=0.0)):.3e}")
    return lines


def load_runs(src: str, t_end: float, tmp: str, label: str) -> dict:
    """Make the runs of the tree ``src`` in a new Python process."""
    out = Path(tmp, f"{label}.npz")
    src = str(Path(src).resolve())
    code = (f"import sys; "
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            f"import compare_trajectories as c; "
            f"c.record_runs({src!r}, {t_end!r}, c.Path({str(out)!r}))")
    if subprocess.run([sys.executable, "-B", "-c", code]).returncode:
        print(f"the runs of {src} failed", file=sys.stderr)
        raise SystemExit(2)
    with np.load(out) as data:
        return {key: data[key] for key in data.files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--t-end", type=float, default=10.0,
                        help="cap on every run's horizon (default 10)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        parent = load_runs(args.parent_src, args.t_end, tmp, "parent")
        change = load_runs(args.change_src, args.t_end, tmp, "change")
    lines = differences(parent, change)
    for line in lines:
        print(line)
    counts = {kind: sum(key.startswith(kind + " ") for key in parent)
              for kind in ("failed", "point", "edge", "file", "read",
                           "audit", "linear", "verify")}
    print(f"{len(parent) - sum(counts.values())} trajectory arrays, "
          f"{counts['failed']} failing-run arrays, {counts['point']} "
          f"one-point arrays, {counts['edge']} edge-state arrays, "
          f"{counts['file']} files, {counts['read']} "
          f"read-back arrays, {counts['audit']} audit outputs, "
          f"{counts['linear']} linear-layer arrays and {counts['verify']} "
          f"verify outputs compared: {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
