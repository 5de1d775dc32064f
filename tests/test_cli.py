"""End-to-end command line tests driven through main(argv)."""

import json

import numpy as np
import pytest

import ldkit
from ldkit import PreconditionError, cli
from ldkit.cli import (EXIT_INCONSISTENT, EXIT_NOT_LD, EXIT_OK, EXIT_SPEC,
                       EXIT_STEP_FAILURE, EXIT_UNEXPECTED, main)
from ldkit.io import read_trajectory

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


def test_verify_reads_rank_tolerance_from_environment(tmp_path, capsys,
                                                      monkeypatch):
    spec = write_json(tmp_path, "s.json", CANONICAL_AB)
    monkeypatch.setenv("LDKIT_TOL_RANK", "1e-6")
    code, out, _ = run(capsys, "verify", spec)
    assert code == EXIT_OK
    assert "dirac: true" in out
    monkeypatch.setenv("LDKIT_TOL_RANK", "not-a-number")
    code, _, err = run(capsys, "verify", spec)
    assert code == EXIT_SPEC
    assert "LDKIT_TOL_RANK" in err


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


def test_audit_malformed_file_exits_spec_error(tmp_path, capsys):
    path = tmp_path / "other.csv"
    path.write_text("time,value\n0.0,1.0\n", encoding="utf-8")
    code, _, err = run(capsys, "audit", str(path))
    assert code == EXIT_SPEC
    assert "error:" in err


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
