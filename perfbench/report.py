"""Run every workload over several seeds and print every metric with its unit.

    python3 perfbench/report.py [--seeds 1-10] [--seconds S] [--workloads a,b]
                                [--trace 0|1] [--results DIR]

Each run is one ``run.py`` process, started after the previous one has
ended.  For every workload the report prints the end-to-end metrics under
the names used for that workload (``sim_steps_per_s``,
``pipeline_rows_per_s``, ``structure_p99_us``, ``error_rate``...), then
each BENCHMARK.json metric with the median of its runs, its spread (the
distance between the quartiles over the median) and, for end-to-end
metrics, whether the spread is within a third of the metric's bound.
The run records stay in ``--results`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(xs: list[float]) -> float:
    if len(xs) < 2 or not statistics.median(xs):
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / abs(statistics.median(xs))


def run_one(workload: str, seed: int, seconds: float, trace: int,
            results: str) -> tuple[dict, dict]:
    """One benchmark process; returns (result line, run record)."""
    before = set(Path(results).glob("*.json")) if Path(results).is_dir() else set()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--results", results],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    new = sorted(set(Path(results).glob("*.json")) - before)
    return line, json.loads(new[-1].read_text())


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(BENCH / "out" / "runs"))
    args = parser.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    steady = True
    for workload in args.workloads.split(","):
        lines, named = [], {}
        for seed in parse_seeds(args.seeds):
            line, record = run_one(workload, seed, args.seconds, args.trace,
                                   args.results)
            lines.append(line)
            for name, (value, unit) in record.get("named_metrics", {}).items():
                named.setdefault((name, unit), []).append(value)
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']}",
                  file=sys.stderr, flush=True)
        attempted = sum(line["attempted"] for line in lines)
        failed = sum(line["failed"] for line in lines)
        print(f"\n{workload}: {len(lines)} runs, {attempted} operations, "
              f"{failed} failed (error_rate {failed / attempted:.3g})")
        for (name, unit), xs in named.items():
            print(f"  {name:38s} {statistics.median(xs):14.6g} {unit:10s} "
                  f"spread {spread(xs):.4f}")
        for metric in metrics:
            xs = [line["metrics"][metric["name"]]["value"] for line in lines]
            note = ""
            if "bound" in metric:
                ok = metric["name"] == "setup_s" or spread(xs) <= metric["bound"] / 3
                steady &= ok
                note = (f"bound {metric['bound']:.2f} "
                        f"{'steady' if ok else 'NOT STEADY'}")
            print(f"  {metric['name']:38s} {statistics.median(xs):14.6g} "
                  f"{metric['unit']:10s} spread {spread(xs):.4f} {note}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
