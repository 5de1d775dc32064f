#!/usr/bin/env python3
"""Summarize one source tree's benchmark runs in ``BENCH_<LABEL>.json`` at
the repository root.

Usage:
    python tools/bench_record.py LABEL RESULTS_DIR

RESULTS_DIR holds the run records that one tree's ``perfbench/report.py
--results RESULTS_DIR`` wrote.  To compare two trees, call each tree's
``report.py`` in turn on the same seeds, one directory per tree, then
summarize each directory.

The file holds, for each workload, the seeds of its untraced runs, their
attempted and failed operations and, for each end-to-end metric, its unit,
run count, median and quartiles, loaded, grouped and taken as
``perfbench/compare.py`` does.  It also holds the commit, Python and numpy
versions and nproc that the run records carry: one value when every record
agrees, else the sorted distinct values.  A tree copied without its
``.git`` records no commit.  Two runs of one workload and seed, say from a
rerun into the same directory, are refused.
"""

from __future__ import annotations

import argparse
import json
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENVIRONMENT = {"commit": "git_commit", "python": "python", "numpy": "numpy",
               "nproc": "nproc"}


def load_compare():
    # executed from its source, so no bytecode cache is written beside it
    path = ROOT / "perfbench" / "compare.py"
    module = types.ModuleType("perfbench_compare")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


COMPARE = load_compare()


def one_or_all(values: list):
    distinct = sorted(set(values), key=str)
    return distinct[0] if len(distinct) == 1 else distinct


def summarize(records: list[dict], label: str) -> dict:
    """The BENCH record of ``records``, the run records of one tree."""
    workloads = COMPARE.by_workload(records, 0)
    if not workloads:
        raise ValueError("no untraced run records to summarize")
    out = {}
    for name, group in sorted(workloads.items()):
        seeds = [r["environment"]["seed"] for r in group]
        repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
        if repeated:
            raise ValueError(f"{name}: more than one run of seed {repeated}")
        units = {metric: entry["unit"] for r in group
                 for metric, entry in r["result"]["metrics"].items()}
        metrics = {}
        for metric, unit in units.items():
            xs = COMPARE.values(group, metric)
            q1, median, q3 = COMPARE.quartiles(xs)
            metrics[metric] = {"unit": unit, "runs": len(xs),
                               "median": median, "q1": q1, "q3": q3}
        out[name] = {
            "seeds": seeds,
            "attempted": sum(r["result"]["attempted"] for r in group),
            "failed": sum(r["result"]["failed"] for r in group),
            "metrics": metrics,
        }
    untraced = [r for group in workloads.values() for r in group]
    return {
        "label": label,
        "seconds": one_or_all([r["environment"]["seconds"]
                               for r in untraced]),
        "environment": {key: one_or_all([r["environment"][field]
                                         for r in untraced])
                        for key, field in ENVIRONMENT.items()},
        "workloads": out,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("results", help="directory of one tree's run records")
    args = parser.parse_args(argv)
    bench = summarize(COMPARE.load_runs(args.results), args.label)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    count = sum(len(w["seeds"]) for w in bench["workloads"].values())
    print(f"wrote {path.name} from {count} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
