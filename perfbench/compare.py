"""Turn two sets of benchmark runs, parent and change, into a verdict.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records that ``run.py`` writes (its
``--results`` directory), made with the same benchmark code and settings.
Make the runs in alternating pairs, parent then change then parent..., on
the same seeds.

One row per workload and metric gives each side's median and quartiles,
the change's win share over the pairs (runs matched by seed, ties count
for neither side) and a verdict by the rules of the benchmark guide:

* ``unresolved``: either side's spread, the distance between its
  quartiles over its median, exceeds the metric's bound from
  BENCHMARK.json, and not every run of the change beats every run of the
  parent;
* ``better``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the distance between the parent's quartiles
  (or every change run beats every parent run);
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``no regression``: none of these.

Per-layer metrics of traced runs are listed for reading, with no verdict.
The exit code is 1 when a metric is worse or the change fails more
checks than the parent, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: str) -> list[dict]:
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if "result" in record and "workload" in record:
            runs.append(record)
    return runs


def by_workload(runs, trace: int) -> dict:
    out: dict = {}
    for record in runs:
        if record["environment"]["trace"] == trace:
            out.setdefault(record["workload"], []).append(record)
    for records in out.values():
        records.sort(key=lambda r: r["environment"]["seed"])
    return out


def values(records, metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in records
            if metric in r["result"]["metrics"]]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(parent, change, pairs, better: str, bound: float) -> tuple[str, int]:
    """(verdict, wins over ``pairs``) for one metric of one workload."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(parent) < 2 or len(change) < 2:
        return "unresolved (fewer than 2 runs)", wins
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if better == "higher":
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm)) > bound:
        return ("better" if all_better else "unresolved"), wins
    if all_better or (pairs and wins >= 0.9 * len(pairs)
                      and sign * (cm - pm) > p3 - p1):
        return "better", wins
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse", wins
    return "no regression", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="directory of the parent's run records")
    parser.add_argument("change", help="directory of the change's run records")
    parser.add_argument("--benchmark", default=str(BENCHMARK_JSON),
                        help="BENCHMARK.json with the metrics and bounds")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text())
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    bad = False
    header = (f"{'workload':20s} {'metric':34s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>6s}  verdict")
    print(header)
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        parent, change = by_workload(parent_runs, trace), by_workload(change_runs, trace)
        for workload in [w["name"] for w in spec["workloads"]]:
            p_recs, c_recs = parent.get(workload, []), change.get(workload, [])
            if not p_recs or not c_recs:
                continue
            p_failed = sum(r["result"]["failed"] for r in p_recs)
            c_failed = sum(r["result"]["failed"] for r in c_recs)
            if c_failed > p_failed:
                bad = True
                print(f"{workload:20s} {'failed checks':34s} {p_failed:>34d} "
                      f"{c_failed:>34d} {'':8s} {'':6s}  more failures")
            c_by_seed = {r["environment"]["seed"]: r for r in c_recs}
            matched = [(p, c_by_seed[p["environment"]["seed"]]) for p in p_recs
                       if p["environment"]["seed"] in c_by_seed]
            for metric in metrics:
                name = metric["name"]
                pv, cv = values(p_recs, name), values(c_recs, name)
                if not pv or not cv:
                    continue
                p1, pm, p3 = quartiles(pv)
                c1, cm, c3 = quartiles(cv)
                delta = (cm - pm) / abs(pm) * 100.0 if pm else float("nan")
                pairs = [(p["result"]["metrics"][name]["value"],
                          c["result"]["metrics"][name]["value"])
                         for p, c in matched]
                if trace:
                    result, wins = "no bound (per layer)", 0
                else:
                    result, wins = verdict(pv, cv, pairs, metric["better"],
                                           metric["bound"])
                bad |= result == "worse"
                unit = metric["unit"]
                print(f"{workload:20s} {name + ' [' + unit + ']':34s} "
                      f"{pm:12.5g} [{p1:9.4g}, {p3:9.4g}] "
                      f"{cm:12.5g} [{c1:9.4g}, {c3:9.4g}] {delta:+7.1f}% "
                      f"{wins:>2d}/{len(pairs):<3d}  {result}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
