"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from the
checkout's ``src`` directory, in this one process, with the BLAS and OpenMP
thread pools capped at 1.

``--trace 0`` runs the workload's closed loop for S seconds with tracing
off and reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs a fixed amount of the workload twice, untraced and then traced, and
reports the per-layer metrics, including the tracing overhead.

The last line of standard output is {"correct", "attempted", "failed",
"metrics"}.  A full record of the run (the metrics named per workload, the
environment, the failed checks) goes to ``perfbench/out/runs`` or
``--results``, a traced run's spans to ``perfbench/out/spans``, and a
readable summary to standard error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPS = 7
# tail percentiles reported when at least ten samples lie beyond them
TAIL_PERCENTILES = (90.0, 99.0, 99.9)
WINDOW_S = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(OUT / "runs"),
                        help="directory for the full run record")
    return parser.parse_args(argv)


def import_ldkit():
    """A fresh import of ``ldkit`` (and its CLI) from the checkout."""
    for name in [n for n in sys.modules if n == "ldkit" or n.startswith("ldkit.")]:
        del sys.modules[name]
    ld = importlib.import_module("ldkit")
    importlib.import_module("ldkit.cli")
    if Path(ld.__file__).resolve().parent != (SRC / "ldkit").resolve():
        raise RuntimeError(f"imported ldkit from {ld.__file__}, not {SRC}")
    return ld


def setup(workload, clock) -> tuple[object, list[float]]:
    """Import the program and build the workload's systems SETUP_REPS times.

    numpy is already loaded, by the input generator; every repetition
    re-executes the ``ldkit`` modules and the catalog's probe validation.
    """
    times = []
    for _ in range(SETUP_REPS):
        clock.calibrate()
        t0 = clock()
        ld = import_ldkit()
        workload.build(ld)
        times.append(clock() - t0)
    return ld, times


class Tally:
    """What a run keeps of its operations: counts, the first failures, one
    latency per operation and the headline rate of each window.

    The headline rate is the median over consecutive windows of whole
    cycles that each hold at least WINDOW_S of timed work, so that a burst
    the clock does not remove moves one window only.  Memory stays flat as
    operations accumulate, so that ``peak_rss_mb`` does not depend on how
    many operations fit into the run.
    """

    def __init__(self, cycle: int):
        self.cycle = cycle
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.ms = array("d")
        self.units, self.unit_s = 0, 0.0
        self.windows: list[float] = []
        self._window = [0, 0.0]
        self.part_rates: dict[str, list[float]] = {}

    def add(self, result) -> None:
        self.attempted += 1
        if result.failures:
            self.failed += 1
            self.failures.extend(result.failures[:20 - len(self.failures)])
        if not math.isnan(result.ms):
            self.ms.append(result.ms)
        self.units += result.units
        self.unit_s += result.unit_s
        self._window[0] += result.units
        self._window[1] += result.unit_s
        if self.attempted % self.cycle == 0 and self._window[1] >= WINDOW_S:
            self.windows.append(self._window[0] / self._window[1])
            self._window = [0, 0.0]
        for key, value in result.parts.items():
            if key.endswith("_steps"):
                self.part_rates.setdefault(f"{key}_per_s", []).append(
                    value / result.parts[key[:-6] + "_s"])

    def rate(self) -> float:
        return self.units / self.unit_s if self.unit_s else 0.0

    def window_rate(self) -> float:
        return statistics.median(self.windows) if self.windows else self.rate()


def measure(workload, ld, clock, seconds=None, ops=None, tracer=None) -> Tally:
    """The closed loop: ``ops`` operations, or whole cycles of operations
    until ``seconds`` of real time have passed."""
    from workloads import OpResult

    tally = Tally(workload.cycle)
    start = perf_counter()
    i = 0
    while True:
        if ops is not None:
            if i >= ops:
                break
        elif perf_counter() - start >= seconds and i % workload.cycle == 0:
            break
        try:
            if tracer is None:
                result = workload.run_op(ld, i, clock)
            else:
                with tracer.operation():
                    result = workload.run_op(ld, i, clock)
        except Exception as exc:  # an operation that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            result = OpResult(ms=math.nan, units=0, unit_s=0.0,
                              failures=[f"raised {type(exc).__name__}: {exc}"])
        tally.add(result)
        i += 1
    return tally


def summarize(workload, tally: Tally, setup_times) -> tuple[dict, dict]:
    """The end-to-end metrics of BENCHMARK.json, and the same measurements
    under the names used for this workload as {name: (value, unit)}."""
    done = tally.ms
    values = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": tally.window_rate(),
        "op_p50_ms": statistics.median(done) if done else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    named = {"setup_s": (values["setup_s"], "s"),
             workload.rate_name: (values["throughput_per_s"], workload.rate_unit),
             "rate_windows": (len(tally.windows), "count")}
    for name, rates in tally.part_rates.items():
        named.setdefault(name, (statistics.median(rates), "1/s"))
    scale, unit = (1e3, "us") if workload.op_unit == "us" else (1.0, "ms")
    if done:
        named[f"{workload.op_name}_p50_{unit}"] = (values["op_p50_ms"] * scale, unit)
        cuts = statistics.quantiles(done, n=1000) if len(done) > 1 else []
        for q in TAIL_PERCENTILES:
            if len(done) * (100.0 - q) / 100.0 >= 10:
                label = f"{q:g}".replace(".", "_")
                named[f"{workload.op_name}_p{label}_{unit}"] = (
                    cuts[round(q * 10) - 1] * scale, unit)
    named[f"{workload.op_name}_samples"] = (len(done), "count")
    named["peak_rss_mb"] = (values["peak_rss_mb"], "MB")
    named["error_rate"] = (tally.failed / tally.attempted if tally.attempted
                           else 1.0, "ratio")
    return values, named


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, warm_up: str) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_reps": SETUP_REPS,
        "warm_up": warm_up,
    }


UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "op_p50_ms": "ms",
         "peak_rss_mb": "MB"}


def run(args, workload) -> tuple[dict, dict]:
    """Set up, warm up and measure; returns (result line, full record)."""
    from clock import ReferenceClock

    with ReferenceClock(workload.kernel) as clock:
        ld, setup_times = setup(workload, clock)
        warm = workload.warm_up(ld)
        tally = measure(workload, ld, clock, seconds=args.seconds)
    values, named = summarize(workload, tally, setup_times)
    record = {"workload": workload.name, "setup_times_s": setup_times,
              "environment": environment(args, warm),
              "clock": clock.summary(), "named_metrics": named}
    return finish(record, [tally], values, UNITS)


def run_traced(args, workload) -> tuple[dict, dict]:
    """The same fixed work untraced, then traced."""
    from clock import ReferenceClock
    from spans import PER_LAYER_UNITS, Tracer, instrumented, layer_metrics

    with ReferenceClock(workload.kernel) as clock:
        ld, setup_times = setup(workload, clock)
        warm = workload.warm_up(ld)
        untraced = measure(workload, ld, clock, ops=workload.trace_ops)
        tracer = Tracer(clock)
        with instrumented(tracer, ld):
            workload.build(ld)
            workload.wrap_user_callables(
                lambda system, prefix: tracer.wrap_system(ld, system, prefix))
            traced = measure(workload, ld, clock, ops=workload.trace_ops,
                             tracer=tracer)
    extra = {"trace.overhead_pct":
             (untraced.rate() / traced.rate() - 1.0) * 100.0
             if traced.rate() else 0.0}
    extra.update(workload.layer_counts())
    values, summary = layer_metrics(tracer, extra)
    summary.update(untraced_rate=untraced.rate(), traced_rate=traced.rate(),
                   rate_unit=workload.rate_unit)
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.save(str(spans_dir / f"{workload.name}-seed{args.seed}-{os.getpid()}.npz"))
    record = {"workload": workload.name, "setup_times_s": setup_times,
              "environment": environment(args, warm), "clock": clock.summary(),
              "trace": summary}
    return finish(record, [untraced, traced], values, PER_LAYER_UNITS,
                  nesting_ok=summary["nesting_violations"] == 0)


def finish(record, tallies, values, units, nesting_ok=True) -> tuple[dict, dict]:
    failed = sum(t.failed for t in tallies)
    record["failures"] = [f for t in tallies for f in t.failures][:20]
    line = {"correct": failed == 0 and nesting_ok,
            "attempted": sum(t.attempted for t in tallies), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}
    record["result"] = line
    return line, record


def print_summary(record: dict) -> None:
    env = record["environment"]
    print(f"{record['workload']}: seed {env['seed']}, python {env['python']}, "
          f"numpy {env['numpy']}, nproc {env['nproc']}, commit "
          f"{env['git_commit']}, warm-up: {env['warm_up']}", file=sys.stderr)
    named = record.get("named_metrics") or {
        name: (m["value"], m["unit"]) for name, m in record["result"]["metrics"].items()}
    for name, (value, unit) in named.items():
        print(f"  {name:40s} {value:14.6g} {unit}", file=sys.stderr)
    for failure in record["failures"]:
        print(f"  FAILED: {failure}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ldkit" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'ldkit'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        line, record = (run_traced if args.trace else run)(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print_summary(record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
