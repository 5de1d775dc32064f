"""Spans for the traced run, and the per-layer metrics computed from them.

Tracing is done from outside the program.  For the traced pass, every
binding of an instrumented public function in a loaded ``ldkit`` module is
replaced by a timing wrapper, and restored afterwards; systems are rebuilt
through the public ``DIHSystem``/``LDField``/``TensorField``/
``ConstraintField``/``ScalarField`` constructors with wrappers around their
callables.  No program file changes, and untraced runs load no wrapper.

A span records its name, start, end, parent span and operation id, plus a
size (grid steps of an integrator call, rows of a trajectory read or
written).  Start and end are read from the run's clock, in seconds.  Spans
stay in memory, in flat arrays, until the run writes them out.
"""

from __future__ import annotations

import contextlib
import sys
from array import array

import numpy as np

OP_SPAN = "bench.op"
INTEGRATORS = ("dynamics.simulate", "dynamics.oracle_simulate")

# per-layer metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "catalog.pi_us": "us", "catalog.g_us": "us", "catalog.grad_us": "us",
    "catalog.jac_us": "us", "catalog.build_ms": "ms",
    "dynamics.pi_evals_per_step": "evals/step",
    "dynamics.g_evals_per_step": "evals/step",
    "dynamics.grad_evals_per_step": "evals/step",
    "dynamics.jac_evals_per_step": "evals/step",
    "dynamics.oracle_pi_evals_per_interval": "evals/interval",
    "dynamics.self_us_per_step": "us/step", "dynamics.rhs_us": "us",
    "dynamics.multipliers_us": "us", "dynamics.check_consistency_us": "us",
    "dynamics.audit_series_ms": "ms",
    "numdiff.central_jacobian_us": "us", "numdiff.central_gradient_us": "us",
    "io.csv_write_us_per_row": "us/row", "io.csv_read_us_per_row": "us/row",
    "io.json_write_us_per_row": "us/row", "io.json_read_us_per_row": "us/row",
    "io.csv_bytes_per_row": "B/row", "io.json_bytes_per_row": "B/row",
    "cli.simulate_ms": "ms", "cli.audit_ms": "ms", "cli.overhead_ms": "ms",
    "subspaces.rank_kernel_us": "us", "subspaces.annihilator_us": "us",
    "subspaces.intersect_us": "us",
    "linear.build_us": "us", "linear.classify_us": "us",
    "linear.to_pair_us": "us", "linear.split_pairing_us": "us",
    "linear.deform_us": "us",
    "fields.pointwise_us": "us",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Collects spans in flat arrays; one instance per traced pass."""

    def __init__(self, clock):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self._stack: list[int] = []
        self._op = -1

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.size.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self):
        """The root span of one benchmark operation; children share its id."""
        self._op += 1
        idx = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, size=None):
        """``fn`` timed as a span; ``name`` may be a function of the call's
        arguments, ``size`` a function of (arguments, result)."""
        def traced(*args, **kwargs):
            idx = self._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if size is not None:
                self.size[idx] = size(args, result)
            return result
        return traced

    def wrap_system(self, ld, system, prefix: str):
        """``system`` rebuilt through the public constructors, with its
        callables timed as ``<prefix>.pi|g|value|grad|jac`` spans."""
        field = system.ld
        forces = field.forces
        if forces.k:
            forces = ld.ConstraintField(forces.dim, forces.k,
                                        self.wrap(f"{prefix}.g", forces.evaluate))
        ham = system.hamiltonian
        gradient = (None if ham.gradient is None
                    else self.wrap(f"{prefix}.grad", ham.gradient))
        jac = (None if system.constraint_jacobian is None
               else self.wrap(f"{prefix}.jac", system.constraint_jacobian))
        return ld.DIHSystem(
            system.n,
            ld.LDField(ld.TensorField(field.pi.dim,
                                      self.wrap(f"{prefix}.pi", field.pi.evaluate)),
                       forces),
            ld.ScalarField(ham.dim, self.wrap(f"{prefix}.value", ham.value),
                           gradient),
            jac)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "start_s": np.frombuffer(self.start, dtype=np.float64),
            "end_s": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "size": np.frombuffer(self.size, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())


def _steps(args, traj) -> int:
    return traj.times.shape[0] - 1


def _rows_written(args, result) -> int:
    return args[0].times.shape[0]


def _rows_read(args, traj) -> int:
    return traj.times.shape[0]


def _read_span(args) -> str:
    return "io.read_json" if str(args[0]).endswith(".json") else "io.read_csv"


def _cli_span(args) -> str:
    return f"cli.{args[0][0]}"


# (span name, module, function, size); names may depend on the arguments
INSTRUMENTED = (
    ("subspaces.rank_kernel", "ldkit.subspaces", "rank_kernel", None),
    ("subspaces.annihilator", "ldkit.subspaces", "annihilator", None),
    ("subspaces.intersect", "ldkit.subspaces", "intersect", None),
    ("linear.from_ab", "ldkit.linear", "from_ab", None),
    ("linear.from_pair", "ldkit.linear", "from_pair", None),
    ("linear.from_subspace", "ldkit.linear", "from_subspace", None),
    ("linear.classification_residuals", "ldkit.linear",
     "classification_residuals", None),
    ("linear.to_pair", "ldkit.linear", "to_pair", None),
    ("linear.split_pairing", "ldkit.linear", "split_pairing", None),
    ("linear.deform", "ldkit.linear", "deform", None),
    ("fields.pointwise", "ldkit.fields", "pointwise", None),
    ("numdiff.central_jacobian", "ldkit.numdiff", "central_jacobian", None),
    ("numdiff.central_gradient", "ldkit.numdiff", "central_gradient", None),
    ("dynamics.simulate", "ldkit.dynamics", "simulate", _steps),
    ("dynamics.oracle_simulate", "ldkit.dynamics", "oracle_simulate", _steps),
    ("dynamics.rhs", "ldkit.dynamics", "rhs", None),
    ("dynamics.multipliers", "ldkit.dynamics", "multipliers", None),
    ("dynamics.check_consistency", "ldkit.dynamics", "check_consistency", None),
    ("dynamics.audit_series", "ldkit.dynamics", "audit_series", None),
    ("io.load_system_spec", "ldkit.io", "load_system_spec", None),
    ("io.write_csv", "ldkit.io", "write_trajectory_csv", _rows_written),
    ("io.write_json", "ldkit.io", "write_trajectory_json", _rows_written),
    (_read_span, "ldkit.io", "read_trajectory", _rows_read),
    (_cli_span, "ldkit.cli", "main", None),
)


@contextlib.contextmanager
def instrumented(tracer: Tracer, ld):
    """Swap every binding of the instrumented functions, in every loaded
    ``ldkit`` module, for its timing wrapper; restore them on exit.

    ``build_system`` additionally returns its system with timed callables,
    so systems that the CLI builds are traced too.
    """
    modules = [m for name, m in sys.modules.items()
               if name == "ldkit" or name.startswith("ldkit.")]
    replacements = []
    for span, module, func, size in INSTRUMENTED:
        original = getattr(sys.modules[module], func)
        replacements.append((original, tracer.wrap(span, original, size)))
    build = sys.modules["ldkit.catalog"].build_system
    timed_build = tracer.wrap("catalog.build_system", build)

    def build_system(spec):
        system, x0 = timed_build(spec)
        return tracer.wrap_system(ld, system, "catalog"), x0

    replacements.append((build, build_system))
    restore = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            for original, wrapper in replacements:
                if value is original:
                    setattr(module, attr, wrapper)
                    restore.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in restore:
            setattr(module, attr, original)


def _integrator_ancestor(parent: np.ndarray, is_integrator: np.ndarray) -> np.ndarray:
    """Index of the innermost integrator span enclosing each span, or -1."""
    idx = np.arange(parent.shape[0])
    has_parent = parent >= 0
    safe_parent = np.where(has_parent, parent, 0)
    anc = np.where(is_integrator, idx, -1)
    while True:
        nxt = np.where(is_integrator, idx,
                       np.where(has_parent, anc[safe_parent], -1))
        if np.array_equal(nxt, anc):
            return anc
        anc = nxt


def layer_metrics(tracer: Tracer, extra: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, plus a summary of the spans.

    ``extra`` supplies the metrics that are not span times (bytes per row,
    tracing overhead).  A layer that the workload leaves idle reads 0.
    """
    a = tracer.arrays()
    names, nid, parent = list(a["names"]), a["name_id"], a["parent"]
    dur = (a["end_s"] - a["start_s"]) * 1e6     # microseconds
    size = a["size"]
    n = dur.shape[0]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                        minlength=n)
    self_us = dur - child
    ids = {name: i for i, name in enumerate(names)}

    def mask(*span_names) -> np.ndarray:
        wanted = [ids[s] for s in span_names if s in ids]
        return np.isin(nid, wanted)

    def mean(m: np.ndarray, scale: float = 1.0) -> float:
        return float(dur[m].mean()) / scale if m.any() else 0.0

    def per_size(m: np.ndarray) -> float:
        total = int(size[m].sum())
        return float(dur[m].sum()) / total if total else 0.0

    anc = _integrator_ancestor(parent, mask(*INTEGRATORS))
    anc_name = np.where(anc >= 0, nid[np.maximum(anc, 0)], -1)
    sim_id, oracle_id = ids.get(INTEGRATORS[0], -2), ids.get(INTEGRATORS[1], -2)
    in_sim, in_oracle = anc_name == sim_id, anc_name == oracle_id
    sim_steps = int(size[nid == sim_id].sum())
    oracle_steps = int(size[nid == oracle_id].sum())

    def evals(role: str, inside: np.ndarray, steps: int) -> float:
        m = inside & mask(f"catalog.{role}", f"user.{role}")
        if role == "jac":
            m |= inside & mask("numdiff.central_jacobian")
        return int(m.sum()) / steps if steps else 0.0

    top = (parent >= 0) & (nid[np.maximum(parent, 0)] == ids.get(OP_SPAN, -1))
    in_dynamics = np.isin(nid, [i for i, s in enumerate(names)
                                if s.startswith("dynamics.")])
    cli = mask("cli.simulate", "cli.audit")
    m = {
        "catalog.pi_us": mean(mask("catalog.pi")),
        "catalog.g_us": mean(mask("catalog.g")),
        "catalog.grad_us": mean(mask("catalog.grad")),
        "catalog.jac_us": mean(mask("catalog.jac")),
        "catalog.build_ms": mean(mask("catalog.build_system"), 1e3),
        "dynamics.pi_evals_per_step": evals("pi", in_sim, sim_steps),
        "dynamics.g_evals_per_step": evals("g", in_sim, sim_steps),
        "dynamics.grad_evals_per_step": evals("grad", in_sim, sim_steps),
        "dynamics.jac_evals_per_step": evals("jac", in_sim, sim_steps),
        "dynamics.oracle_pi_evals_per_interval":
            evals("pi", in_oracle, oracle_steps),
        "dynamics.self_us_per_step":
            float(self_us[in_sim & in_dynamics].sum()) / sim_steps
            if sim_steps else 0.0,
        "dynamics.rhs_us": mean(mask("dynamics.rhs")),
        "dynamics.multipliers_us": mean(mask("dynamics.multipliers")),
        "dynamics.check_consistency_us":
            mean(mask("dynamics.check_consistency")),
        "dynamics.audit_series_ms": mean(mask("dynamics.audit_series"), 1e3),
        "numdiff.central_jacobian_us":
            mean(mask("numdiff.central_jacobian")),
        "numdiff.central_gradient_us":
            mean(mask("numdiff.central_gradient")),
        "io.csv_write_us_per_row": per_size(mask("io.write_csv")),
        "io.csv_read_us_per_row": per_size(mask("io.read_csv")),
        "io.json_write_us_per_row": per_size(mask("io.write_json")),
        "io.json_read_us_per_row": per_size(mask("io.read_json")),
        "cli.simulate_ms": mean(mask("cli.simulate"), 1e3),
        "cli.audit_ms": mean(mask("cli.audit"), 1e3),
        "cli.overhead_ms": float(self_us[cli].mean()) / 1e3 if cli.any() else 0.0,
        "subspaces.rank_kernel_us": mean(mask("subspaces.rank_kernel")),
        "subspaces.annihilator_us": mean(mask("subspaces.annihilator")),
        "subspaces.intersect_us": mean(mask("subspaces.intersect")),
        "linear.build_us": mean(top & mask("linear.from_ab", "linear.from_pair",
                                           "linear.from_subspace")),
        "linear.classify_us":
            mean(mask("linear.classification_residuals")),
        "linear.to_pair_us": mean(mask("linear.to_pair")),
        "linear.split_pairing_us": mean(mask("linear.split_pairing")),
        "linear.deform_us": mean(mask("linear.deform")),
        "fields.pointwise_us": mean(mask("fields.pointwise")),
    }
    m.update(extra)
    metrics = {name: m.get(name, 0.0) for name in PER_LAYER_UNITS}
    summary = {
        "spans": n,
        "operations": int(tracer._op + 1),
        # children run inside their parent, one after another
        "nesting_violations": int(np.count_nonzero(child > dur + 1e-3)),
        "span_counts": {name: int(np.count_nonzero(nid == i))
                        for i, name in enumerate(names)},
        "simulate_steps": sim_steps,
        "oracle_intervals": oracle_steps,
    }
    return metrics, summary
