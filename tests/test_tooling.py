"""The benchmark and the demos reach library functions by name; a rename or
a deletion in ``src/`` must fail here rather than in a benchmark run or a
demo.  The trajectory comparison in ``tools/`` is checked here too."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def load_spans():
    # executed from its source, so no bytecode cache is written beside it
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


INSTRUMENTED = load_spans().INSTRUMENTED


@pytest.mark.parametrize("module,function",
                         [(m, f) for _, m, f, _ in INSTRUMENTED],
                         ids=[f"{m}.{f}" for _, m, f, _ in INSTRUMENTED])
def test_every_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))


def test_the_tracer_rebuilds_systems_through_public_constructors():
    ldkit = importlib.import_module("ldkit")
    for name in ("DIHSystem", "LDField", "TensorField", "ConstraintField",
                 "ScalarField"):
        assert callable(getattr(ldkit, name, None))
    assert callable(getattr(importlib.import_module("ldkit.catalog"),
                            "build_system", None))


CATALOG_NAMES = sorted(importlib.import_module("ldkit.catalog").CATALOG)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_a_traced_catalog_system_runs_bitwise_as_the_untraced_one(name):
    # the tracer's wrapped Pi takes the per-call path, the catalog's
    # constant Pi the path that reads it once at set-up
    ldkit = importlib.import_module("ldkit")
    system, x0 = ldkit.build_system(ldkit.SystemSpec(name, {}, None))
    traced = load_spans().Tracer(time.perf_counter).wrap_system(
        ldkit, system, "catalog")
    config = ldkit.IntegratorConfig(dt=1e-3, t_end=0.5)
    plain = ldkit.simulate(system, x0, config)
    wrapped = ldkit.simulate(traced, x0, config)
    for field in ("times", "states", "multipliers", "residuals", "energies",
                  "energy_rates"):
        a, b = getattr(plain, field), getattr(wrapped, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


def names_reached_through_ld(path: Path) -> set:
    # ``ld`` is the ldkit package in the benchmark's workloads and tracer;
    # an attribute chain such as ``system.ld.pi`` is not a package lookup
    return set(re.findall(r"(?<![\w.])ld\.(\w+)", path.read_text()))


@pytest.mark.parametrize("source", ["workloads.py", "spans.py"])
def test_every_name_the_benchmark_reaches_on_the_package_resolves(source):
    ldkit = importlib.import_module("ldkit")
    names = names_reached_through_ld(ROOT / "perfbench" / source)
    assert names
    missing = sorted(name for name in names
                     if not hasattr(ldkit, name)
                     and importlib.util.find_spec(f"ldkit.{name}") is None)
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_every_demo_runs_to_completion(demo, tmp_path):
    # run from a scratch directory: a demo may write its output files there
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


COMPARE = ROOT / "tools" / "compare_trajectories.py"


def test_compare_trajectories_finds_a_tree_equal_to_itself():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(COMPARE), str(ROOT / "src"), str(ROOT / "src"),
         "--t-end", "0.01"], env=env, capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == (
        "108 trajectory arrays, 7 failing-run arrays, 72 one-point arrays, "
        "40 edge-state arrays, 8 files, 48 read-back arrays, 8 audit "
        "outputs, 108 linear-layer arrays and 10 verify outputs compared: "
        "0 differ")


def test_compare_trajectories_reports_each_array_that_differs():
    spec = importlib.util.spec_from_file_location("compare_trajectories",
                                                  COMPARE)
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    parent = {"a": np.zeros(3), "b": np.ones(2), "c": np.ones(1)}
    change = {"a": np.array([0.0, -0.0, 2e-16]), "b": np.ones(3),
              "d": np.ones(1)}
    assert compare.differences(parent, parent) == []
    assert compare.differences(parent, change) == [
        "a: max |delta| = 2.000e-16", "b: shape (2,) != (3,)",
        "c: only in the parent", "d: only in the change"]


BENCH_RECORD = ROOT / "tools" / "bench_record.py"


def fake_run_record(workload, seed, trace, throughput, failed=0,
                    commit="abc123"):
    return {
        "workload": workload,
        "environment": {"seed": seed, "trace": trace, "seconds": 8.0,
                        "git_commit": commit, "python": "3.11.7",
                        "numpy": "2.4.6", "nproc": 2},
        "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                   "metrics": {
                       "throughput_per_s": {"value": throughput, "unit": "1/s"},
                       "op_p50_ms": {"value": 1e3 / throughput, "unit": "ms"}}},
    }


def test_bench_record_summarizes_fabricated_run_records(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_record", BENCH_RECORD)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    records = [fake_run_record("user_fd", 3, 0, 300.0),
               fake_run_record("user_fd", 1, 0, 100.0, failed=2),
               fake_run_record("user_fd", 2, 0, 200.0),
               fake_run_record("user_fd", 4, 0, 400.0),
               fake_run_record("user_fd", 5, 1, 9e9),  # traced: left out
               fake_run_record("catalog_cli", 1, 0, 50.0, commit=None)]
    for i, record in enumerate(records):
        (tmp_path / f"run{i}.json").write_text(json.dumps(record))
    (tmp_path / "notes.txt").write_text("not a run record")
    out = bench.summarize(bench.COMPARE.load_runs(tmp_path), "test")
    assert out["label"] == "test" and out["seconds"] == 8.0
    assert out["environment"] == {"commit": [None, "abc123"],
                                  "python": "3.11.7", "numpy": "2.4.6",
                                  "nproc": 2}
    assert list(out["workloads"]) == ["catalog_cli", "user_fd"]
    fd = out["workloads"]["user_fd"]
    assert fd["seeds"] == [1, 2, 3, 4]
    assert (fd["attempted"], fd["failed"]) == (40, 2)
    # statistics.quantiles' default method, as perfbench/compare.py uses
    assert fd["metrics"]["throughput_per_s"] == {
        "unit": "1/s", "runs": 4, "median": 250.0, "q1": 125.0, "q3": 375.0}
    assert fd["metrics"]["op_p50_ms"]["unit"] == "ms"
    single = out["workloads"]["catalog_cli"]["metrics"]["throughput_per_s"]
    assert single == {"unit": "1/s", "runs": 1, "median": 50.0, "q1": 50.0,
                      "q3": 50.0}
    with pytest.raises(ValueError, match="no untraced run records"):
        bench.summarize([], "empty")
    # a rerun into the same directory adds a second run of a seed
    with pytest.raises(ValueError, match=r"user_fd: more than one run of "
                                         r"seed \[2\]"):
        bench.summarize(records + [fake_run_record("user_fd", 2, 0, 250.0)],
                        "rerun")


# -- the floating-point rule ---------------------------------------------------

SRC = ROOT / "src" / "ldkit"
RULED_MODULES = ("subspaces", "linear", "fields", "dynamics", "catalog", "io")


def carries_the_rule(function) -> bool:
    rule = importlib.import_module("ldkit.subspaces").float_rule
    return any(cell.cell_contents is rule
               for cell in getattr(function, "__closure__", None) or ())


def test_the_package_has_one_errstate_and_one_floating_point_catch():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert sum(text.count("np.errstate") for text in sources.values()) == 1
    # user callables may still raise FloatingPointError under an errstate
    # of their own.  Two handlers decide what it becomes: the set-up of a
    # start (_Compiled.__init__) turns it into an InputError, since the
    # input failed before any step, and the run loop (_run) into a
    # StepFailureError that carries the partial trajectory
    catches = []
    for name, text in sources.items():
        tree = ast.parse(text)
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                catches += [
                    (name, function.name) for handler in ast.walk(function)
                    if isinstance(handler, ast.ExceptHandler)
                    and "FloatingPointError" in ast.unparse(handler.type)]
    assert sorted(catches) == [("dynamics.py", "__init__"),
                               ("dynamics.py", "_run")]


def test_the_declared_numpy_floor_is_the_one_the_rule_needs():
    # numpy 1 saved the caller's errstate on the shared errstate object, so
    # a nested ruled call left the caller at "ignore"; numpy 2 saves it per
    # call, in a context variable
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r'"numpy[^"]*"', text) == ['"numpy>=2.0"']
    assert int(np.__version__.split(".")[0]) >= 2


@pytest.mark.parametrize("module", RULED_MODULES)
def test_every_exported_function_carries_the_rule(module):
    mod = importlib.import_module(f"ldkit.{module}")
    functions = [name for name in mod.__all__
                 if inspect.isfunction(getattr(mod, name))]
    assert functions
    assert [name for name in functions
            if not carries_the_rule(getattr(mod, name))] == []


def test_the_constructors_and_methods_that_do_float_work_carry_the_rule():
    ldkit = importlib.import_module("ldkit")
    methods = [
        ldkit.Subspace.__post_init__, ldkit.LinearLD.__post_init__,
        ldkit.Subspace.from_spanning.__func__,
        ldkit.Subspace.membership_residual, ldkit.Subspace.contains_subspace,
        ldkit.Subspace.projector.fget, ldkit.ScalarField.__call__,
        ldkit.ScalarField.grad, ldkit.ScalarField.check_gradient,
        ldkit.TensorField.__call__, ldkit.ConstraintField.matrix,
        ldkit.ConstraintField.__call__,
        importlib.import_module("ldkit.cli").main]
    assert [m.__qualname__ for m in methods if not carries_the_rule(m)] == []


def test_numdiff_and_the_step_loop_carry_no_rule():
    # a ruled call costs about 0.6 us, and the no-Jacobian path makes
    # thousands of numdiff calls per run
    numdiff = importlib.import_module("ldkit.numdiff")
    dynamics = importlib.import_module("ldkit.dynamics")
    assert "float_rule" not in (SRC / "numdiff.py").read_text()
    loop = [getattr(numdiff, name) for name in numdiff.__all__] + [
        getattr(dynamics, name) for name in (
            "_run", "_rhs_raw", "_terms", "_lambda_at", "_project",
            "_solve_constraint", "_checked_pi", "_bracket_hh", "_rk4_step",
            "_gbs_step", "_midpoint_chain", "_all_finite")] + [
        dynamics._Recorder.record]
    assert [f.__name__ for f in loop if carries_the_rule(f)] == []
