"""End-to-end command line tests driven through main(argv)."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ldkit
from ldkit import PreconditionError, SpecFormatError, cli
from ldkit.cli import (EXIT_INCONSISTENT, EXIT_NOT_LD, EXIT_OK, EXIT_SPEC,
                       EXIT_STEP_FAILURE, EXIT_UNEXPECTED, main)
from ldkit.io import read_trajectory

SRC = Path(ldkit.__file__).resolve().parents[1]  # the ldkit under test
CANONICAL_AB = {"kind": "ab", "n": 2,
                "a": [[1.0, 0.0], [0.0, 1.0]],
                "b": [[0.0, 1.0], [-1.0, 0.0]]}


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parser behavior --------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_version_flag_reports_package_version(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert ldkit.__version__ in capsys.readouterr().out


# -- verify -----------------------------------------------------------------


def test_verify_canonical_poisson_graph(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", CANONICAL_AB)
    code, out, _ = run(capsys, "verify", spec)
    assert code == EXIT_OK
    assert "structure: n=2, subspace dimension 2" in out
    assert "dirac: true" in out
    assert "forward: true" in out
    assert "backward: true" in out
    assert "symmetric_dirac: false" in out
    assert "split pairing signature (forward): (2, 2)" in out


def test_verify_factor_annihilator_sum_is_separable(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", {
        "kind": "ab", "n": 2,
        "a": [[1.0, 0.0], [0.0, 0.0]], "b": [[0.0, 0.0], [0.0, 1.0]]})
    code, out, _ = run(capsys, "verify", spec)
    assert code == EXIT_OK
    assert "separable: true" in out
    assert "dirac: true" in out
    assert "symmetric_dirac: true" in out


def test_verify_degenerate_representation_exits_not_ld(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", {
        "kind": "ab", "n": 2,
        "a": [[1.0, 0.0], [0.0, 0.0]], "b": [[1.0, 0.0], [0.0, 0.0]]})
    code, _, err = run(capsys, "verify", spec)
    assert code == EXIT_NOT_LD
    assert "degenerate" in err


def test_verify_non_ld_subspace_exits_not_ld(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", {
        "kind": "ab", "n": 2,
        "a": [[1.0, 0.0], [0.0, 0.0]], "b": [[0.0, 1.0], [0.0, 0.0]]})
    code, _, err = run(capsys, "verify", spec)
    assert code == EXIT_NOT_LD
    assert "error:" in err


def test_verify_carrier_off_orthonormal_exits_spec_error(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", {
        "kind": "pair", "n": 2, "orientation": "forward",
        "carrier": [[1.0 + 4e-6, 0.0], [0.0, 1.0 - 4e-6]],
        "map": [[0.0, 1.0], [-1.0, 0.0]]})
    code, _, err = run(capsys, "verify", spec)
    assert code == EXIT_SPEC
    assert "carrier vectors must be orthonormal" in err


@pytest.mark.parametrize("orientation", ["forward", "backward"])
def test_verify_of_a_pair_with_an_empty_carrier(tmp_path, capsys,
                                                 orientation):
    # [] is a carrier of no vectors and a 0×0 map: L = V* forward, V
    # backward, which are both a product of a subspace and its annihilator
    spec = write_json(tmp_path, "s.json", {
        "kind": "pair", "n": 2, "orientation": orientation,
        "carrier": [], "map": []})
    code, out, err = run(capsys, "verify", spec)
    assert (code, err) == (EXIT_OK, "")
    assert "structure: n=2, subspace dimension 2" in out
    for name in ("forward", "backward", "dirac", "symmetric_dirac",
                 "separable"):
        assert f"{name}: true (residual 0.000e+00)" in out


def test_verify_parse_failure_exits_spec_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, "verify", str(path))
    assert code == EXIT_SPEC
    assert "invalid JSON" in err


def test_verify_missing_file_exits_spec_error(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == EXIT_SPEC
    assert "cannot read" in err


def test_verify_accepts_tolerance_flags(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", CANONICAL_AB)
    code, out, _ = run(capsys, "verify", spec,
                       "--tol-rank", "1e-6", "--tol-residual", "1e-6")
    assert code == EXIT_OK
    assert "dirac: true" in out


def test_verify_reads_the_rank_tolerance_from_its_flag_only(tmp_path, capsys,
                                                          monkeypatch):
    # A = diag(1, 1e-7): forward at the default rank cutoff, not at 1e-6,
    # so an environment variable that set the cutoff would show here
    spec = write_json(tmp_path, "s.json",
                      {"kind": "ab", "n": 2, "a": [[1.0, 0.0], [0.0, 1e-7]],
                       "b": [[0.0, 1.0], [-1.0, 0.0]]})
    monkeypatch.delenv("LDKIT_TOL_RANK", raising=False)
    code, default, _ = run(capsys, "verify", spec)
    assert code == EXIT_OK
    assert "forward: true" in default
    code, coarse, _ = run(capsys, "verify", spec, "--tol-rank", "1e-6")
    assert "forward: false" in coarse
    for value in ("1e-6", "not-a-number"):
        monkeypatch.setenv("LDKIT_TOL_RANK", value)
        assert run(capsys, "verify", spec) == (EXIT_OK, default, "")


@pytest.mark.parametrize("flag, value", [
    ("--tol-residual", "inf"), ("--tol-residual", "nan"),
    ("--tol-rank", "inf"), ("--tol-rank", "1")])
def test_verify_refuses_a_non_finite_or_all_cutting_tolerance(tmp_path, capsys,
                                                              flag, value):
    # --tol-residual inf would pass every flag; --tol-rank 1 or above would
    # make every rank 0 and the pair degenerate
    spec = write_json(tmp_path, "s.json", CANONICAL_AB)
    code, out, err = run(capsys, "verify", spec, flag, value)
    assert code == EXIT_SPEC
    assert out == ""
    assert "tolerance cutoffs must be finite and positive" in err


@pytest.mark.parametrize("command", ["simulate", "audit"])
@pytest.mark.parametrize("flag", ["--tol-rank", "--tol-residual"])
def test_tolerance_flags_belong_to_verify_only(tmp_path, capsys, command,
                                               flag):
    with pytest.raises(SystemExit) as err:
        main([command, str(tmp_path / "input"), flag, "1e-6"])
    assert err.value.code == EXIT_SPEC
    assert "unrecognized arguments" in capsys.readouterr().err


# -- simulate ---------------------------------------------------------------


def test_simulate_writes_csv_and_prints_summary(tmp_path, capsys):
    spec = write_json(tmp_path, "run.json", {
        "name": "harmonic_oscillator", "initial_state": []})
    out_path = str(tmp_path / "traj.csv")
    code, out, _ = run(capsys, "simulate", spec, "--dt", "1e-2",
                       "--t-end", "1.0", "--output", out_path)
    assert code == EXIT_OK
    assert "system: harmonic_oscillator, 101 samples" in out
    assert "H(start) = 0.5" in out
    assert "final state:" in out
    assert f"wrote {out_path}" in out
    traj = read_trajectory(out_path)
    assert traj.times.shape == (101,)
    assert traj.k == 0


def test_simulate_json_format(tmp_path, capsys):
    spec = write_json(tmp_path, "run.json", {
        "name": "gradient_flow", "initial_state": [1.0, 1.0]})
    out_path = str(tmp_path / "traj.json")
    code, out, _ = run(capsys, "simulate", spec, "--dt", "1e-2",
                       "--t-end", "0.5", "--format", "json",
                       "--output", out_path)
    assert code == EXIT_OK
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["schema_version"] == 1
    assert len(doc["times"]) == 51


def test_simulate_default_output_path_uses_format(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = write_json(tmp_path, "run.json", {
        "name": "gradient_flow", "initial_state": []})
    code, out, _ = run(capsys, "simulate", spec, "--dt", "1e-2",
                       "--t-end", "0.1")
    assert code == EXIT_OK
    assert "wrote trajectory.csv" in out
    assert (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_to_an_unwritable_output_exits_spec_error(tmp_path, capsys,
                                                          fmt):
    spec = write_json(tmp_path, "run.json", {
        "name": "gradient_flow", "initial_state": []})
    out_path = str(tmp_path / "missing" / f"traj.{fmt}")
    code, out, err = run(capsys, "simulate", spec, "--dt", "1e-2",
                         "--t-end", "0.1", "--format", fmt,
                         "--output", out_path)
    assert code == EXIT_SPEC
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}: [Errno 2] ")


def test_simulate_particle_summary_shows_decay_and_small_residual(tmp_path,
                                                                  capsys):
    spec = write_json(tmp_path, "run.json", {
        "name": "damped_particle", "initial_state": []})
    out_path = str(tmp_path / "traj.csv")
    code, out, _ = run(capsys, "simulate", spec, "--dt", "1e-3",
                       "--t-end", "2.0", "--output", out_path)
    assert code == EXIT_OK
    traj = read_trajectory(out_path)
    assert traj.residuals.max() <= 1e-8
    assert traj.energies[-1] < traj.energies[0]
    assert "max constraint residual" in out


def test_simulate_inconsistent_state_exits_with_consistency_code(tmp_path,
                                                                 capsys):
    spec = write_json(tmp_path, "run.json", {
        "name": "damped_particle",
        "initial_state": [0.0, 0.0, 0.0, 1.0, 0.0, 1.0]})
    code, _, err = run(capsys, "simulate", spec, "--dt", "1e-3",
                       "--t-end", "1.0", "--output",
                       str(tmp_path / "t.csv"))
    assert code == EXIT_INCONSISTENT
    assert "chi_c" in err


def test_simulate_unknown_system_exits_spec_error(tmp_path, capsys):
    spec = write_json(tmp_path, "run.json", {
        "name": "pendulum", "initial_state": []})
    code, _, err = run(capsys, "simulate", spec, "--output",
                       str(tmp_path / "t.csv"))
    assert code == EXIT_SPEC
    assert "known systems" in err


@pytest.mark.parametrize("dt,t_end", [("1e-300", "1e300"), ("5e-324", "1")])
def test_simulate_overflowing_step_count_exits_spec_error(tmp_path, capsys,
                                                          dt, t_end):
    spec = write_json(tmp_path, "run.json", {
        "name": "harmonic_oscillator", "initial_state": []})
    out_path = tmp_path / "t.csv"
    code, _, err = run(capsys, "simulate", spec, "--dt", dt, "--t-end", t_end,
                       "--output", str(out_path))
    assert code == EXIT_SPEC
    assert "overflows" in err
    assert not out_path.exists()


@pytest.mark.parametrize("dt,t_end", [("1", "1e300"), ("1e-3", "1e9")])
def test_simulate_step_count_above_the_ceiling_exits_before_a_run(
        tmp_path, capsys, monkeypatch, dt, t_end):
    def no_run(*args):
        raise AssertionError("a run was started")

    monkeypatch.setattr(cli, "simulate", no_run)
    spec = write_json(tmp_path, "run.json", {
        "name": "harmonic_oscillator", "initial_state": []})
    out_path = tmp_path / "t.csv"
    code, _, err = run(capsys, "simulate", spec, "--dt", dt, "--t-end", t_end,
                       "--output", str(out_path))
    assert code == EXIT_SPEC
    assert "ceiling of 100,000,000 steps" in err
    assert not out_path.exists()


def test_simulate_of_a_trajectory_too_big_to_allocate_exits_spec_error(
        tmp_path, capsys, monkeypatch):
    empty = np.empty

    def no_memory(shape, *args, **kwargs):
        # only the recorder asks for rows of the whole 10,001-row run
        if (shape if isinstance(shape, int) else shape[0]) == 10_001:
            raise MemoryError
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(ldkit.dynamics.np, "empty", no_memory)
    spec = write_json(tmp_path, "run.json", {
        "name": "harmonic_oscillator", "initial_state": []})
    out_path = tmp_path / "t.csv"
    code, out, err = run(capsys, "simulate", spec, "--output", str(out_path))
    assert code == EXIT_SPEC
    assert out == ""
    assert "cannot allocate the trajectory: 10,001 rows" in err
    assert not out_path.exists()


@pytest.mark.parametrize("name", sorted(ldkit.CATALOG))
def test_simulate_csv_and_json_read_back_equal_and_audit(tmp_path, capsys,
                                                         name):
    spec = write_json(tmp_path, "run.json", {"name": name,
                                             "initial_state": []})
    back = {}
    for fmt in ("csv", "json"):
        out_path = str(tmp_path / f"traj.{fmt}")
        assert run(capsys, "simulate", spec, "--t-end", "0.5", "--format",
                   fmt, "--output", out_path)[0] == EXIT_OK
        assert run(capsys, "audit", out_path)[0] == EXIT_OK
        back[fmt] = read_trajectory(out_path)
    assert back["csv"].times.shape == (501,)
    for field in ("times", "states", "multipliers", "residuals", "energies",
                  "energy_rates"):
        assert np.array_equal(getattr(back["csv"], field),
                              getattr(back["json"], field)), field


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_step_failure_exits_with_failure_code(tmp_path, capsys):
    spec = write_json(tmp_path, "run.json", {
        "name": "damped_particle", "initial_state": []})
    code, _, err = run(capsys, "simulate", spec, "--dt", "1e80",
                       "--t-end", "3e80", "--output",
                       str(tmp_path / "t.csv"))
    assert code == EXIT_STEP_FAILURE
    assert "step to t" in err


# -- audit ------------------------------------------------------------------


def test_audit_reports_dissipative_run_as_monotone(tmp_path, capsys):
    spec = write_json(tmp_path, "run.json", {
        "name": "gradient_flow", "initial_state": []})
    out_path = str(tmp_path / "traj.csv")
    assert run(capsys, "simulate", spec, "--dt", "1e-2", "--t-end", "2.0",
               "--output", out_path)[0] == EXIT_OK
    code, out, _ = run(capsys, "audit", out_path)
    assert code == EXIT_OK
    assert "samples: 201" in out
    assert "energy rates nonpositive: yes" in out
    assert "energy monotone nonincreasing: yes" in out


def test_audit_reports_conservative_run_with_zero_bracket(tmp_path, capsys):
    spec = write_json(tmp_path, "run.json", {
        "name": "harmonic_oscillator", "initial_state": []})
    out_path = str(tmp_path / "traj.json")
    assert run(capsys, "simulate", spec, "--dt", "1e-2", "--t-end", "2.0",
               "--format", "json", "--output", out_path)[0] == EXIT_OK
    code, out, _ = run(capsys, "audit", out_path)
    assert code == EXIT_OK
    assert "max bracket value [H,H]: 0.000000e+00" in out
    assert "energy drift" in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_audit_says_where_after_its_six_verdict_lines(tmp_path, capsys, fmt):
    # H falls by 1/8 per row of 1/4 with a bump of 1/2 at row 6; the rate
    # is -1/2 except 1e-9 at row 3 and 2e-9 at row 8
    rows = np.arange(10)
    rates = np.full(10, -0.5)
    rates[3], rates[8] = 1e-9, 2e-9
    traj = ldkit.Trajectory(
        times=rows * 0.25, states=np.zeros((10, 2)),
        multipliers=np.zeros((10, 0)), residuals=np.zeros(10),
        energies=1.0 - 0.125 * rows + 0.5 * (rows == 6), energy_rates=rates)
    path = str(tmp_path / f"bump.{fmt}")
    (ldkit.write_trajectory_csv if fmt == "csv"
     else ldkit.write_trajectory_json)(traj, path)
    code, out, _ = run(capsys, "audit", path)
    assert code == EXIT_OK
    assert out.splitlines() == [
        "samples: 10",
        "energy drift H(end) - H(start): -1.125000e+00",
        "max bracket value [H,H]: 2.000000e-09",
        "max |dH/dt - [H,H]| (finite differences): 1.000000e+00",
        "energy rates nonpositive: no",
        "energy monotone nonincreasing: no (max step increase 3.750e-01)",
        "max [H,H] at row 8 (t = 2)",
        "max step increase ends at row 6 (t = 1.5)",
        "max |dH/dt - [H,H]| at row 5 (t = 1.25)",
        "first [H,H] above 1e-12: row 3 (t = 0.75)",
    ]


def test_audit_of_one_sample_points_at_row_zero(tmp_path, capsys):
    traj = ldkit.Trajectory(
        times=np.array([0.5]), states=np.zeros((1, 2)),
        multipliers=np.zeros((1, 0)), residuals=np.zeros(1),
        energies=np.array([1.0]), energy_rates=np.array([-0.5]))
    path = str(tmp_path / "one.csv")
    ldkit.write_trajectory_csv(traj, path)
    code, out, _ = run(capsys, "audit", path)
    assert code == EXIT_OK
    assert out.splitlines()[6:] == [
        "max [H,H] at row 0 (t = 0.5)",
        "max step increase ends at row 0 (t = 0.5)",
        "max |dH/dt - [H,H]| at row 0 (t = 0.5)",
        "first [H,H] above 1e-12: none",
    ]


def test_audit_malformed_file_exits_spec_error(tmp_path, capsys):
    path = tmp_path / "other.csv"
    path.write_text("time,value\n0.0,1.0\n", encoding="utf-8")
    code, _, err = run(capsys, "audit", str(path))
    assert code == EXIT_SPEC
    assert "error:" in err


def test_audit_of_a_json_trajectory_with_no_times_exits_spec_error(
        tmp_path, capsys):
    path = write_json(tmp_path, "empty.json", {
        "times": [], "states": [], "multipliers": [], "residuals": [],
        "energies": [], "energy_rates": []})
    with pytest.raises(SpecFormatError, match="at least one sample"):
        read_trajectory(path)
    code, _, err = run(capsys, "audit", path)
    assert code == EXIT_SPEC
    assert "at least one sample" in err


@pytest.mark.parametrize("command, doc", [
    ("verify", {"kind": "ab", "n": True, "a": [[1.0]], "b": [[0.0]]}),
    ("verify", {**CANONICAL_AB, "schema_version": True}),
    ("simulate", {"name": "harmonic_oscillator",
                  "parameters": {"omega": True}, "initial_state": []}),
    ("simulate", {"name": "harmonic_oscillator",
                  "initial_state": [True, False]}),
    ("audit", {"times": [0.0, 0.1], "states": [[1.0], [0.5]],
               "multipliers": [[], []], "residuals": [0.0, 0.0],
               "energies": [True, 0.5], "energy_rates": [0.0, 0.0]}),
    ("audit", {"times": [0.0, 0.1], "states": [[1, 2], [3, 4], [5, 6]],
               "multipliers": [[], []], "residuals": [0.0, 0.0],
               "energies": [1.0, 0.5], "energy_rates": [0.0, 0.0]}),
    ("simulate", {"name": "damped_oscillator", "parameters": {"mu": "0.5"},
                  "initial_state": []}),
    ("simulate", {"name": "damped_oscillator",
                  "initial_state": ["1.0", "0.0"]}),
    ("audit", {"times": ["0.0", "0.1"], "states": [[1.0], [0.5]],
               "multipliers": [[], []], "residuals": [0.0, 0.0],
               "energies": [1.0, 0.5], "energy_rates": [0.0, 0.0]}),
], ids=["verify-n", "verify-version", "simulate-parameter",
        "simulate-state", "audit-energy", "audit-three-state-rows",
        "simulate-string-parameter", "simulate-string-state",
        "audit-string-times"])
def test_a_boolean_or_misshapen_field_exits_spec_error(tmp_path, capsys,
                                                       command, doc):
    path = write_json(tmp_path, "doc.json", doc)
    argv = [command, path]
    if command == "simulate":
        argv += ["--t-end", "0.01", "--output", str(tmp_path / "t.csv")]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_SPEC
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("command, name", [
    ("verify", "spec.json"), ("simulate", "run.json"),
    ("audit", "t.json"), ("audit", "t.csv"), ("audit", "trajectory")])
def test_a_file_that_is_not_utf8_exits_spec_error(tmp_path, capsys, command,
                                                  name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe{}\n")
    argv = [command, str(path)]
    if command == "simulate":
        argv += ["--t-end", "0.01", "--output", str(tmp_path / "out.csv")]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_SPEC
    assert out == ""
    assert err.startswith(f"error: {path}: not UTF-8 text")


HUGE = 10 ** 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("command, doc, message", [
    ("verify", {**CANONICAL_AB, "a": [[HUGE, 0], [0, 1]]},
     "field 'a' has non-finite entries"),
    ("simulate", {"name": "harmonic_oscillator", "initial_state": [HUGE, 0]},
     "initial_state has non-finite entries"),
    ("simulate", {"name": "damped_oscillator", "parameters": {"mu": -HUGE},
                  "initial_state": []},
     "parameter 'mu' must be finite"),
    ("audit", {"times": [0.0, HUGE], "states": [[1.0], [0.5]],
               "multipliers": [[], []], "residuals": [0.0, 0.0],
               "energies": [1.0, 0.5], "energy_rates": [0.0, 0.0]},
     "times must be finite; sample 1 holds inf"),
], ids=["verify-a", "simulate-state", "simulate-parameter", "audit-times"])
def test_an_integer_beyond_the_float_range_exits_spec_error(tmp_path, capsys,
                                                            command, doc,
                                                            message):
    path = write_json(tmp_path, "doc.json", doc)
    argv = [command, path]
    if command == "simulate":
        argv += ["--t-end", "0.01", "--output", str(tmp_path / "t.csv")]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_SPEC
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("doc, message", [
    ({"name": "harmonic_oscillator", "parameters": {"omega": 1e200},
      "initial_state": []}, "non-finite"),
], ids=["omega-squared-overflows"])
def test_a_catalog_parameter_near_the_float_maximum_exits_spec_error(
        tmp_path, capsys, doc, message):
    path = write_json(tmp_path, "doc.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, out, err = run(capsys, "simulate", path, "--t-end", "0.01",
                             "--output", str(tmp_path / "t.csv"))
    assert code == EXIT_SPEC
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_friction_near_the_float_maximum_passes_the_start_and_fails_a_step(
        tmp_path, capsys):
    # [H, H] = -1e300 at the start is finite, as sym(Pi) is; the explicit
    # step cannot follow a friction of 1e308 and reaches a non-finite state
    path = write_json(tmp_path, "doc.json", {
        "name": "damped_particle", "parameters": {"mu1": 1e300, "mu2": 1e308},
        "initial_state": []})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, out, err = run(capsys, "simulate", path, "--t-end", "0.01",
                             "--output", str(tmp_path / "t.csv"))
    assert code == EXIT_STEP_FAILURE
    assert out == ""
    assert err.startswith("error: step to t = 0.001 failed")
    assert "non-finite state" in err


def test_a_failing_simulate_prints_one_error_line_and_no_numpy_warning(
        tmp_path):
    # the run above, in a process of its own, where numpy's RuntimeWarnings
    # (overflow in the products with Pi) would reach stderr
    path = write_json(tmp_path, "doc.json", {
        "name": "damped_particle", "parameters": {"mu1": 1e300, "mu2": 1e308},
        "initial_state": []})
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "ldkit.cli", "simulate", path, "--t-end",
         "0.01", "--output", str(tmp_path / "t.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_STEP_FAILURE
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr


# (times, H, [H,H]) of three rows, and the error the audit must report
CORRUPT_SERIES = {
    "repeated-time": (([0.0, 1.0, 1.0], [1.0, 0.5, 0.25], [-1.0, -0.5, -0.25]),
                      "times must increase strictly"),
    "nan-H": (([0.0, 1.0, 2.0], [1.0, np.nan, 0.25], [-1.0, -0.5, -0.25]),
              "energies must be finite"),
    "nan-rate": (([0.0, 1.0, 2.0], [1.0, 0.5, 0.25], [-1.0, np.nan, -0.25]),
                 "rates must be finite"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CORRUPT_SERIES))
def test_audit_of_a_corrupt_series_exits_spec_error(tmp_path, capsys, case,
                                                    fmt):
    series, message = CORRUPT_SERIES[case]
    times, energies, rates = (np.array(v) for v in series)
    traj = ldkit.Trajectory(times=times, states=np.zeros((3, 2)),
                            multipliers=np.zeros((3, 0)),
                            residuals=np.zeros(3), energies=energies,
                            energy_rates=rates)
    path = str(tmp_path / f"corrupt.{fmt}")
    write = (ldkit.write_trajectory_csv if fmt == "csv"
             else ldkit.write_trajectory_json)
    write(traj, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "audit", path)
    assert code == EXIT_SPEC
    assert out == ""
    assert message in err


# -- unexpected failures ----------------------------------------------------


@pytest.mark.parametrize("exc,message", [
    (PreconditionError("no Dirac structure"), "error: no Dirac structure"),
    (RuntimeError("boom"), "unexpected error: RuntimeError: boom"),
], ids=["unmapped-ldkit-error", "foreign-error"])
def test_errors_without_a_code_of_their_own_exit_unexpected(
        capsys, monkeypatch, exc, message):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_audit", fail)
    code, out, err = run(capsys, "audit", "trajectory.csv")
    assert code == EXIT_UNEXPECTED
    assert out == ""
    assert err == message + "\n"
