"""Each workload's checks count a deliberately corrupted output as failed.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
The runs are shortened through the workloads' time constants; every test
first shows that the same operation passes its checks when nothing is
corrupted.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter

import numpy as np
import pytest

import ldkit
import ldkit.cli  # noqa: F401  (catalog_cli reaches it as ldkit.cli)
import run
import workloads


class Corrupted:
    """``ldkit`` with some attributes replaced."""

    def __init__(self, ld, **overrides):
        self._ld = ld
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._ld, name)


@pytest.fixture
def short_runs(monkeypatch):
    monkeypatch.setattr(workloads, "GATE_T_END", 0.2)
    monkeypatch.setattr(workloads, "CLI_T_END", 0.2)
    monkeypatch.setattr(workloads, "USER_FD_T_END", 0.2)


def prepared(cls, tmp_path):
    workload = cls(7, str(tmp_path))
    workload.build(ldkit)
    workload.warm_up(ldkit)
    return workload


def failed_ops(workload, ld) -> int:
    return run.measure(workload, ld, perf_counter, ops=workload.cycle).failed


def test_particle_reference_counts_an_oracle_mismatch(short_runs, tmp_path):
    workload = prepared(workloads.ParticleReference, tmp_path)
    assert failed_ops(workload, ldkit) == 0

    def oracle(*args, **kwargs):
        traj = ldkit.oracle_simulate(*args, **kwargs)
        return dataclasses.replace(traj, states=traj.states + 1e-5)

    assert failed_ops(workload, Corrupted(ldkit, oracle_simulate=oracle)) == 1


def test_catalog_cli_counts_a_truncated_trajectory(short_runs, tmp_path):
    workload = prepared(workloads.CatalogCli, tmp_path)
    assert failed_ops(workload, ldkit) == 0

    def main(argv):
        code = ldkit.cli.main(argv)
        if argv[0] == "simulate" and argv[argv.index("--format") + 1] == "csv":
            path = argv[argv.index("--output") + 1]
            with open(path) as fh:
                lines = fh.readlines()
            with open(path, "w") as fh:
                fh.writelines(lines[:-1])
        return code

    cli = Corrupted(ldkit.cli, main=main)
    # the csv runs lose a row; their json twins then differ from them too
    assert failed_ops(workload, Corrupted(ldkit, cli=cli)) == workload.cycle


def test_structure_sweep_counts_a_wrong_signature(tmp_path):
    workload = prepared(workloads.StructureSweep, tmp_path)
    assert failed_ops(workload, ldkit) == 0

    def split_pairing(l, orientation, *args):
        pairing = ldkit.split_pairing(l, orientation, *args)
        pos, neg = pairing.signature
        return dataclasses.replace(pairing, signature=(pos + 1, neg - 1))

    assert failed_ops(workload,
                      Corrupted(ldkit, split_pairing=split_pairing)) == 1


def test_structure_sweep_counts_a_lost_flag(tmp_path):
    workload = prepared(workloads.StructureSweep, tmp_path)

    def residuals(space, *args):
        out = ldkit.classification_residuals(space, *args)
        return {**out, "forward": 1.0, "backward": 1.0}

    assert failed_ops(workload,
                      Corrupted(ldkit, classification_residuals=residuals)) == 1


def test_user_fd_counts_a_drifted_end_state(short_runs, tmp_path):
    workload = prepared(workloads.UserFd, tmp_path)
    assert failed_ops(workload, ldkit) == 0

    def simulate(*args, **kwargs):
        traj = ldkit.simulate(*args, **kwargs)
        return dataclasses.replace(traj, states=traj.states * (1.0 + 1e-5))

    assert failed_ops(workload, Corrupted(ldkit, simulate=simulate)) == 1


def test_pipeline_checks_reject_wrong_physics():
    x0 = np.array([1.0, 0.5])
    params = {"g1": 1.0, "g2": 2.0}
    t = workloads.CLI_T_END
    times = np.linspace(0.0, t, workloads.steps_for(t) + 1)
    states = x0 * np.exp(-np.outer(times, [1.0, 2.0]))
    traj = ldkit.Trajectory(times, states, np.zeros((times.size, 0)),
                            np.zeros(times.size), np.zeros(times.size),
                            np.zeros(times.size))
    good = ("energy drift H(end) - H(start): -6.2e-01\n"
            "energy rates nonpositive: yes\n"
            "energy monotone nonincreasing: yes (max step increase 0)\n")
    assert workloads.check_pipeline("gradient_flow", params, x0, (0, 0),
                                    good, traj) == []
    bad = good.replace("monotone nonincreasing: yes", "monotone nonincreasing: no")
    assert workloads.check_pipeline("gradient_flow", params, x0, (0, 0),
                                    bad, traj)
    assert workloads.check_pipeline("gradient_flow", params, x0, (0, 5),
                                    good, traj)


def test_windows_take_whole_cycles():
    tally = run.Tally(cycle=2)
    for units, seconds in [(10, 0.6), (30, 0.6), (10, 0.6), (30, 0.6), (5, 0.1)]:
        tally.add(workloads.OpResult(ms=1.0, units=units, unit_s=seconds))
    assert tally.windows == [40 / 1.2, 40 / 1.2]
    assert tally.attempted == 5 and tally.failed == 0


def test_compare_verdicts():
    import compare

    parent = [100.0 + i for i in range(10)]

    def judge(change, better="higher"):
        return compare.verdict(parent, change, list(zip(parent, change)),
                               better, 0.2)[0]

    assert judge([70.0 + i for i in range(10)]) == "worse"
    assert judge([90.0 + i for i in range(10)]) == "no regression"
    assert judge([120.0 + i for i in range(10)]) == "better"
    assert judge([130.0 + i for i in range(10)], better="lower") == "worse"
    assert judge([50.0, 150.0] * 5) == "unresolved"
