"""The command line on extreme and malformed input: every run of ``ldkit
simulate``, ``audit`` and ``verify`` ends in one of its stable exit codes,
never in the "unexpected error" exit 1."""

import contextlib
import functools
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldkit import CATALOG
from ldkit.cli import main

STABLE_EXITS = {0, 2, 3, 4, 5}
# signed zeros, a subnormal, magnitudes whose squares underflow or
# overflow, the float maximum's neighbourhood and a JSON integer beyond
# the float range
EXTREMES = (0.0, -0.0, 5e-324, 1e-200, -1e-200, 1e154, -1e154, 1e308,
            -1e308, 10 ** 400, -10 ** 400)
ORDINARY = (1.0, -1.0, 0.5, 2.0)
WRONG_TYPES = ("1.0", True, None, [], {}, [[1.0]])
numbers = st.sampled_from(EXTREMES + ORDINARY)
# --dt and --t-end values; the valid ones repeated, so that most runs start
DT_VALUES = ("1e-3", "0.01") * 3 + ("0", "-1e-3", "5e-324", "1e308", "inf",
                                    "nan")
T_END_VALUES = ("0.02",) * 5 + ("0", "-1", "1e-300", "inf", "nan")


def run(argv) -> int:
    with warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in STABLE_EXITS, err.getvalue()
    return code


def matrices(rows: int, cols: int):
    return st.lists(st.lists(numbers, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def mutated(draw, doc):
    """``doc`` with at most one value, at any depth, replaced by a value of
    a wrong type or an extreme number, or one member or entry dropped; or
    no JSON object at all."""
    how = draw(st.sampled_from(("keep", "keep", "keep", "replace",
                                "replace", "drop", "not an object")))
    if how == "not an object":
        return draw(st.sampled_from(WRONG_TYPES + (1.0,)))
    if how == "keep":
        return doc
    doc = json.loads(json.dumps(doc))
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (
            parent is None or draw(st.booleans())):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(list(keys)))
        node = parent[key]
    if parent is None:
        return doc
    if how == "drop":
        del parent[key]
    else:
        parent[key] = draw(st.one_of(st.sampled_from(WRONG_TYPES), numbers))
    return doc


@st.composite
def system_specs(draw):
    name = draw(st.sampled_from(sorted(CATALOG)))
    entry = CATALOG[name]
    n = len(entry.default_state)
    doc = {"name": name,
           "parameters": {key: draw(numbers) for key in sorted(entry.defaults)
                          if draw(st.booleans())},
           "initial_state": draw(st.one_of(
               st.just([]), st.lists(numbers, min_size=n, max_size=n),
               st.lists(numbers, max_size=7)))}
    return draw(mutated(doc))


@st.composite
def structure_specs(draw):
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        doc = {"kind": "ab", "n": n, "a": draw(matrices(n, n)),
               "b": draw(matrices(n, n))}
    else:
        k = draw(st.integers(0, n))
        # signed rows of the identity pass the orthonormality check
        rows = draw(st.permutations(range(n)))[:k]
        carrier = [[float(draw(st.sampled_from((1, -1)))) if j == i else 0.0
                    for j in range(n)] for i in rows]
        if draw(st.integers(0, 3)) == 0:
            carrier = draw(matrices(k, n))
        doc = {"kind": "pair", "n": n,
               "orientation": draw(st.sampled_from(("forward", "backward"))),
               "carrier": carrier, "map": draw(matrices(k, k))}
    return draw(mutated(doc))


@functools.cache
def trajectory_files() -> dict:
    """The text of a short run of the particle in each file format."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp, "run.json")
        spec.write_text(json.dumps({"name": "damped_particle",
                                    "initial_state": []}))
        texts = {}
        for fmt in ("csv", "json"):
            out = Path(tmp, f"t.{fmt}")
            assert run(["simulate", str(spec), "--dt", "0.01", "--t-end",
                        "0.05", "--format", fmt, "--output", str(out)]) == 0
            texts[fmt] = out.read_text()
    return texts


CSV_TOKENS = ("nan", "inf", "-inf", "1e400", "", "x", "5e-324", "-0",
              "1e308", "0.05", "1,2")


@st.composite
def csv_texts(draw):
    lines = trajectory_files()["csv"].splitlines()
    how = draw(st.sampled_from(("token", "drop", "repeat", "cut", "none")))
    i = draw(st.integers(0, len(lines) - 1))
    if how == "token":
        fields = lines[i].split(",")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(
            st.sampled_from(CSV_TOKENS))
        lines[i] = ",".join(fields)
    elif how == "drop":
        del lines[i]
    elif how == "repeat":
        lines.insert(i, lines[i])
    text = "\n".join(lines) + "\n"
    if how == "cut":
        text = text[:draw(st.integers(0, len(text)))]
    return text


@given(doc=system_specs(), dt=st.sampled_from(DT_VALUES),
       t_end=st.sampled_from(T_END_VALUES))
@example(doc={"name": "harmonic_oscillator", "parameters": {"omega": 1e200},
              "initial_state": []}, dt="1e-3", t_end="0.02")
@example(doc={"name": "damped_particle",
              "parameters": {"mu1": 1e300, "mu2": 1e308},
              "initial_state": []}, dt="1e-3", t_end="0.02")
@settings(max_examples=300)
def test_simulate_of_any_spec_exits_with_a_stable_code(doc, dt, t_end):
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp, "run.json")
        spec.write_text(json.dumps(doc))
        run(["simulate", str(spec), f"--dt={dt}", f"--t-end={t_end}",
             "--output", str(Path(tmp, "t.csv"))])


@given(doc=structure_specs(),
       flags=st.sampled_from(((),) * 4 + (
           ("--tol-rank=1e-6",), ("--tol-residual=0",), ("--tol-rank=-1",),
           ("--tol-rank=nan",))))
@settings(max_examples=150)
def test_verify_of_any_spec_exits_with_a_stable_code(doc, flags):
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp, "spec.json")
        spec.write_text(json.dumps(doc))
        run(["verify", str(spec), *flags])


@given(data=st.data(), fmt=st.sampled_from(("csv", "json")))
@settings(max_examples=150)
def test_audit_of_any_mutated_file_exits_with_a_stable_code(data, fmt):
    if fmt == "csv":
        text = data.draw(csv_texts())
    else:
        doc = json.loads(trajectory_files()["json"])
        text = json.dumps(data.draw(mutated(doc)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, f"t.{fmt}")
        path.write_text(text)
        run(["audit", str(path)])
