"""File formats: structure specs, system specs, trajectory CSV/JSON.

JSON documents carry ``"schema_version": 1`` (absent is read as 1, any other
value is rejected).  The trajectory CSV has the fixed column layout

    t,x1..xn,lambda1..lambdak,constraint_residual,H,bracket_HH

and is identified by that header; it carries no version field.  Floats are
written with 17 significant digits so both formats round-trip exactly.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .catalog import SystemSpec
from .dynamics import Trajectory
from .errors import InputError, SpecFormatError
from .linear import ABRep, LinearLD, PairRep, from_ab, from_pair
from .subspaces import DEFAULT_TOLERANCE, Subspace, Tolerance

__all__ = [
    "SCHEMA_VERSION",
    "load_structure_spec",
    "load_system_spec",
    "write_trajectory_csv",
    "write_trajectory_json",
    "read_trajectory",
]

SCHEMA_VERSION = 1
_FIELDS = ("times", "states", "multipliers", "residuals", "energies",
           "energy_rates")
_ROW_FIELDS = ("states", "multipliers")


def _read_text(path: str, size: int = -1) -> str:
    """The first ``size`` characters (all, by default) of the UTF-8 text
    file ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read(size)
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _holds_bool(value) -> bool:
    """Whether ``value`` is, or holds at any depth, a JSON true or false."""
    if isinstance(value, (list, dict)):
        return any(map(_holds_bool, value.values()
                       if isinstance(value, dict) else value))
    return isinstance(value, bool)


def _load_json(path: str, numeric: tuple[str, ...]) -> dict:
    """The JSON object in ``path``.  Its schema_version and each field named
    in ``numeric`` must hold numbers only: Python would read a true or
    false there as 1 or 0."""
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecFormatError(f"{path}: top level must be a JSON object")
    if "true" in text or "false" in text:  # else no field holds a boolean
        for key in ("schema_version",) + numeric:
            if _holds_bool(doc.get(key)):
                raise SpecFormatError(
                    f"{path}: field {key!r} holds a boolean, not a number")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SpecFormatError(
            f"{path}: unsupported schema_version {version!r}; "
            f"this build reads version {SCHEMA_VERSION}")
    return doc


def _matrix_from(doc: dict, key: str, path: str) -> np.ndarray:
    if key not in doc:
        raise SpecFormatError(f"{path}: missing required field {key!r}")
    try:
        arr = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(
            f"{path}: field {key!r} is not a numeric array") from exc
    if arr.ndim != 2:
        raise SpecFormatError(
            f"{path}: field {key!r} must be a nested (row-major) array")
    if arr.size and not np.isfinite(arr).all():
        raise SpecFormatError(f"{path}: field {key!r} has non-finite entries")
    return arr


def load_structure_spec(path: str,
                        tol: Tolerance = DEFAULT_TOLERANCE) -> LinearLD:
    """Load and build a linear structure from a spec file.

    ``kind: "ab"`` requires n×n fields "a" and "b"; ``kind: "pair"`` requires
    "orientation", a "carrier" whose rows are orthonormal vectors in R^n (by
    the rule of :class:`Subspace`), and a k×k "map" in those carrier
    coordinates.  Parse and shape problems raise SpecFormatError; degenerate
    pairs and non-LD subspaces raise their own library errors.
    """
    doc = _load_json(path, ("n", "a", "b", "carrier", "map"))
    n = doc.get("n")
    if not isinstance(n, int) or n < 1:
        raise SpecFormatError(f"{path}: field 'n' must be a positive integer")
    kind = doc.get("kind")
    if kind == "ab":
        a = _matrix_from(doc, "a", path)
        b = _matrix_from(doc, "b", path)
        if a.shape != (n, n) or b.shape != (n, n):
            raise SpecFormatError(
                f"{path}: 'a' and 'b' must both be {n}x{n}")
        return from_ab(ABRep(a, b), tol)
    if kind == "pair":
        orientation = doc.get("orientation")
        if orientation not in ("forward", "backward"):
            raise SpecFormatError(
                f"{path}: field 'orientation' must be 'forward' or 'backward'")
        carrier_rows = _matrix_from(doc, "carrier", path)
        if carrier_rows.shape[0] and carrier_rows.shape[1] != n:
            raise SpecFormatError(
                f"{path}: carrier vectors must have length n = {n}")
        k = carrier_rows.shape[0]
        try:
            carrier = Subspace(n, carrier_rows.T if k else np.zeros((n, 0)))
        except InputError as exc:
            raise SpecFormatError(
                f"{path}: carrier vectors must be orthonormal") from exc
        mapping = _matrix_from(doc, "map", path)
        if mapping.shape != (k, k):
            raise SpecFormatError(
                f"{path}: 'map' must be {k}x{k} for {k} carrier vectors")
        return from_pair(PairRep(orientation, carrier, mapping), tol)
    raise SpecFormatError(f"{path}: field 'kind' must be 'ab' or 'pair'")


def load_system_spec(path: str) -> SystemSpec:
    """Load a run request: {"name", "parameters", "initial_state"}."""
    doc = _load_json(path, ("parameters", "initial_state"))
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise SpecFormatError(f"{path}: field 'name' must be a string")
    parameters = doc.get("parameters", {})
    if not isinstance(parameters, dict):
        raise SpecFormatError(f"{path}: field 'parameters' must be an object")
    state = doc.get("initial_state")
    if state is None:
        raise SpecFormatError(f"{path}: missing required field 'initial_state'")
    if not isinstance(state, (list, tuple)):
        raise SpecFormatError(f"{path}: 'initial_state' must be an array")
    try:
        values = tuple(float(v) for v in state)
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(
            f"{path}: 'initial_state' must contain numbers") from exc
    return SystemSpec(name=name, parameters=dict(parameters),
                      initial_state=values)


def _csv_header(n: int, k: int) -> list[str]:
    return (["t"] + [f"x{i}" for i in range(1, n + 1)]
            + [f"lambda{i}" for i in range(1, k + 1)]
            + ["constraint_residual", "H", "bracket_HH"])


def write_trajectory_csv(trajectory: Trajectory, path: str) -> None:
    """Write the fixed-layout trajectory CSV."""
    block = np.column_stack([getattr(trajectory, name) for name in _FIELDS])
    # the spreadsheet ("excel") CSV dialect: CRLF line ends; no number
    # needs quoting
    row = ",".join(["%.17g"] * block.shape[1]) + "\r\n"
    text = "".join([row % tuple(values) for values in block.tolist()])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_csv_header(trajectory.n, trajectory.k)) + "\r\n"
                 + text)


def write_trajectory_json(trajectory: Trajectory, path: str) -> None:
    """Write the JSON mirror of the trajectory fields."""
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update((name, getattr(trajectory, name).tolist()) for name in _FIELDS)
    # json.dumps runs the C encoder; json.dump streams through the Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


def _misshapen(name: str, path: str) -> SpecFormatError:
    return SpecFormatError(
        f"{path}: field {name!r} must have one "
        f"{'row' if name in _ROW_FIELDS else 'value'} per sample")


def _field_array(fields: dict, name: str, path: str) -> np.ndarray:
    """Field ``name`` of ``fields`` as floats.  A value that numpy cannot
    convert is misshapen when it nests too shallow (ragged rows) or holds
    a list where a number belongs; otherwise it holds a non-number."""
    value = fields[name]
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        cells = np.asarray(value, dtype=object)
        if (cells.ndim < 1 + (name in _ROW_FIELDS)
                or any(isinstance(cell, list) for cell in cells.flat)):
            raise _misshapen(name, path) from exc
        raise SpecFormatError(
            f"{path}: field {name!r} holds a non-number") from exc


def _trajectory_from_arrays(fields: dict, path: str) -> Trajectory:
    """The trajectory of ``fields`` (holding each of _FIELDS): states and
    multipliers one row per sample (a k = 0 row is empty), the rest one
    value per sample."""
    arrays = {name: _field_array(fields, name, path) for name in _FIELDS}
    t = arrays["times"]
    m = t.shape[0] if t.ndim == 1 else -1
    if m < 1:
        raise SpecFormatError(f"{path}: trajectory needs at least one sample")
    for name, arr in arrays.items():
        if arr.ndim != 1 + (name in _ROW_FIELDS) or arr.shape[0] != m:
            raise _misshapen(name, path)
    return Trajectory(**arrays)


def _read_trajectory_csv(path: str) -> Trajectory:
    text = _read_text(path)
    lines = [(lineno, line) for lineno, line
             in enumerate(text.split("\n"), start=1) if line]
    if not lines:
        raise SpecFormatError(f"{path}: empty trajectory file")
    header = [h.strip() for h in lines[0][1].split(",")]
    if (len(header) < 4 or header[0] != "t"
            or header[-3:] != ["constraint_residual", "H", "bracket_HH"]):
        raise SpecFormatError(
            f"{path}: not a trajectory CSV (unexpected header)")
    middle = header[1:-3]
    n = sum(1 for name in middle if name.startswith("x"))
    k = len(middle) - n
    if middle != [f"x{i}" for i in range(1, n + 1)] + \
            [f"lambda{i}" for i in range(1, k + 1)]:
        raise SpecFormatError(
            f"{path}: not a trajectory CSV (unexpected state/multiplier "
            f"columns)")
    body = lines[1:]
    if not body:
        raise SpecFormatError(f"{path}: trajectory has no samples")
    width = len(header)
    for lineno, line in body:
        if line.count(",") != width - 1:
            raise SpecFormatError(
                f"{path}: line {lineno} has {line.count(',') + 1} fields, "
                f"expected {width}")
    try:
        arr = np.array(",".join([line for _, line in body]).split(","),
                       dtype=float).reshape(len(body), width)
    except ValueError:
        # name the first line that the same parser rejects
        for lineno, line in body:
            try:
                np.array(line.split(","), dtype=float)
            except ValueError as exc:
                raise SpecFormatError(
                    f"{path}: line {lineno} has non-numeric data") from exc
        raise
    return _trajectory_from_arrays(dict(zip(_FIELDS, (
        arr[:, 0], arr[:, 1:1 + n], arr[:, 1 + n:1 + n + k],
        arr[:, 1 + n + k], arr[:, 2 + n + k], arr[:, 3 + n + k]))), path)


def _read_trajectory_json(path: str) -> Trajectory:
    doc = _load_json(path, _FIELDS)
    missing = [key for key in _FIELDS if key not in doc]
    if missing:
        raise SpecFormatError(f"{path}: missing trajectory fields {missing}")
    return _trajectory_from_arrays(doc, path)


def read_trajectory(path: str) -> Trajectory:
    """Read a trajectory in either format, chosen by extension or content."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".json":
        return _read_trajectory_json(path)
    if ext == ".csv":
        return _read_trajectory_csv(path)
    if _read_text(path, 1).strip() == "{":
        return _read_trajectory_json(path)
    return _read_trajectory_csv(path)
