"""The benchmark's tracer looks library functions up by name; a rename or a
deletion in ``src/`` must fail here rather than in a traced benchmark run."""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
