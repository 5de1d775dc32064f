"""File formats: structure specs, system specs, trajectory CSV/JSON.

JSON documents carry ``"schema_version": 1`` (absent is read as 1, any other
value is rejected); a NaN or Infinity literal anywhere in one is refused,
and so is a boolean or a string in a numeric field.  A number beyond the
float range, 1e400 or an integer of 400 digits, reads as infinite and is
refused as non-finite by the field that holds it.
The trajectory CSV has the fixed column layout

    t,x1..xn,lambda1..lambdak,constraint_residual,H,bracket_HH

and is identified by that header; it carries no version field.  Floats are
written with 17 significant digits so both formats round-trip exactly.

Trajectory files are written and read a block of rows at a time: a writer's
memory does not grow with the trajectory, and the CSV reader's stays within
a small multiple of the arrays it returns (the JSON reader also holds the
file's text, which stdlib json cannot decode piecewise).  A writer fills a
new file next to its output and moves it onto the output only once the last
row is written.  The readers refuse non-finite data.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import re

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
_BLOCK = 2048  # rows formatted, parsed or converted at a time


@contextlib.contextmanager
def _text_file(path: str):
    """``path`` open as UTF-8 text.  Failing to open, read or decode it,
    also in the body of the ``with``, is a SpecFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_text(path: str, size: int = -1) -> str:
    """The first ``size`` characters (all, by default) of the UTF-8 text
    file ``path``."""
    with _text_file(path) as fh:
        return fh.read(size)


class _NonFinite(ValueError):
    """A NaN, Infinity or -Infinity literal: Python's json reads them, but
    they are not JSON and no ldkit field may hold them."""


def _refuse_constant(literal: str):
    raise _NonFinite(f"non-finite number {literal}")


def _parse_int(literal: str):
    """A JSON integer as an int; one beyond the float range as the infinity
    that a decimal literal such as 1e400 reads as, so that the readers'
    finite checks name its field instead of float() overflowing."""
    value = int(literal)
    try:
        float(value)
    except OverflowError:
        return -math.inf if value < 0 else math.inf
    return value


# every JSON file is decoded with these hooks: member by member through
# _DECODER, whole by json.loads (which also refuses a UTF-8 BOM)
_HOOKS = {"parse_constant": _refuse_constant, "parse_int": _parse_int}
_DECODER = json.JSONDecoder(**_HOOKS)
_SPACE = re.compile(r"[ \t\n\r]*")  # JSON's whitespace


def _decode(text: str, path: str):
    """The JSON document ``text`` of the file ``path``."""
    try:
        return json.loads(text, **_HOOKS)
    except ValueError as exc:  # a JSONDecodeError or _NonFinite
        raise SpecFormatError(f"{path}: invalid JSON: {exc}") from exc


def _holds(value, kind: type) -> bool:
    """Whether ``value`` is, or holds at any depth, an instance of
    ``kind``."""
    if isinstance(value, (list, dict)):
        return any(_holds(item, kind) for item in (
            value.values() if isinstance(value, dict) else value))
    return isinstance(value, kind)


def _checked(doc, text: str, path: str, numeric: tuple[str, ...]) -> dict:
    """``doc``, decoded from ``text``, once it is an object of this
    schema_version.  Its schema_version and each field named in ``numeric``
    must hold numbers only: Python would read a true or false there as 1
    or 0, and numpy and float() a string such as "0.5" as 0.5."""
    if not isinstance(doc, dict):
        raise SpecFormatError(f"{path}: top level must be a JSON object")
    if "true" in text or "false" in text:  # else no field holds a boolean
        for key in ("schema_version",) + numeric:
            if _holds(doc.get(key), bool):
                raise SpecFormatError(
                    f"{path}: field {key!r} holds a boolean, not a number")
    for key in numeric:
        if _holds(doc.get(key), str):
            raise SpecFormatError(
                f"{path}: field {key!r} holds a non-number: a string where "
                f"numbers belong")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SpecFormatError(
            f"{path}: unsupported schema_version {version!r}; "
            f"this build reads version {SCHEMA_VERSION}")
    return doc


def _load_json(path: str, numeric: tuple[str, ...]) -> dict:
    """The JSON object in ``path``, checked as :func:`_checked` says."""
    text = _read_text(path)
    return _checked(_decode(text, path), text, path, numeric)


def _matrix_from(doc: dict, key: str, path: str, cols: int = 0) -> np.ndarray:
    """The field ``key`` as a matrix of rows; ``[]`` has no rows and
    ``cols`` columns."""
    if key not in doc:
        raise SpecFormatError(f"{path}: missing required field {key!r}")
    try:
        arr = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(
            f"{path}: field {key!r} is not a numeric array") from exc
    if arr.shape == (0,):
        arr = arr.reshape(0, cols)
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
    the rule of :class:`Subspace`; ``[]`` for none), and a k×k "map" in
    those carrier coordinates (``[]`` for k = 0).  Parse and shape problems
    raise SpecFormatError; degenerate pairs and non-LD subspaces raise
    their own library errors.
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
        carrier_rows = _matrix_from(doc, "carrier", path, cols=n)
        if carrier_rows.shape[1] != n:
            raise SpecFormatError(
                f"{path}: carrier vectors must have length n = {n}")
        k = carrier_rows.shape[0]
        try:
            carrier = Subspace(n, carrier_rows.T)
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


def _write_replacing(path: str, chunks) -> None:
    """Write the strings of ``chunks`` to a new file next to ``path`` and
    move it onto ``path`` once the last is written.  A failed write removes
    the new file and leaves ``path`` as it was; an OSError is an
    InputError."""
    part = f"{path}.{os.urandom(4).hex()}.part"
    created = False
    try:
        with open(part, "x", newline="", encoding="utf-8") as fh:
            created = True
            fh.writelines(chunks)
        os.replace(part, path)
    except BaseException as exc:
        if created:
            with contextlib.suppress(OSError):
                os.remove(part)
        if isinstance(exc, OSError):
            raise InputError(f"cannot write {path}: {exc}") from exc
        raise


def write_trajectory_csv(trajectory: Trajectory, path: str) -> None:
    """Write the fixed-layout trajectory CSV, a block of rows at a time."""
    fields = [getattr(trajectory, name) for name in _FIELDS]
    n, k = trajectory.n, trajectory.k
    # the spreadsheet ("excel") CSV dialect: CRLF line ends; no number
    # needs quoting
    row = ",".join(["%.17g"] * (n + k + 4)) + "\r\n"

    def chunks():
        yield ",".join(_csv_header(n, k)) + "\r\n"
        for start in range(0, trajectory.times.shape[0], _BLOCK):
            block = np.column_stack([f[start:start + _BLOCK] for f in fields])
            yield "".join([row % tuple(values) for values in block.tolist()])

    _write_replacing(path, chunks())


def write_trajectory_json(trajectory: Trajectory, path: str) -> None:
    """Write the JSON mirror of the trajectory fields, a block of rows at a
    time: the bytes of ``json.dumps(doc) + "\\n"``."""

    def chunks():
        yield f'{{"schema_version": {SCHEMA_VERSION}'
        for name in _FIELDS:
            values = getattr(trajectory, name)
            yield f', "{name}": ['
            for start in range(0, values.shape[0], _BLOCK):
                if start:
                    yield ", "
                # json.dumps runs the C encoder; json.dump, the Python one
                yield json.dumps(values[start:start + _BLOCK].tolist())[1:-1]
            yield "]"
        yield "}\n"

    _write_replacing(path, chunks())


def _misshapen(name: str, path: str) -> SpecFormatError:
    return SpecFormatError(
        f"{path}: field {name!r} must have one "
        f"{'row' if name in _ROW_FIELDS else 'value'} per sample")


def _first_non_finite(arr: np.ndarray):
    """The index of the first entry of ``arr`` that is nan or infinite, or
    None."""
    finite = np.isfinite(arr)
    return None if finite.all() else tuple(np.argwhere(~finite)[0])


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
    finite value per sample."""
    arrays = {name: _field_array(fields, name, path) for name in _FIELDS}
    t = arrays["times"]
    m = t.shape[0] if t.ndim == 1 else -1
    if m < 1:
        raise SpecFormatError(f"{path}: trajectory needs at least one sample")
    for name, arr in arrays.items():
        if arr.ndim != 1 + (name in _ROW_FIELDS) or arr.shape[0] != m:
            raise _misshapen(name, path)
        bad = _first_non_finite(arr)
        if bad:
            raise SpecFormatError(f"{path}: {name} must be finite; sample "
                                  f"{bad[0]} holds {arr[bad]}")
    return Trajectory(**arrays)


def _csv_block(block: list, columns: tuple, path: str) -> np.ndarray:
    """The (line number, line) pairs of ``block`` as a float array, one row
    per line and one column per entry of ``columns``, the column's field."""
    width = len(columns)
    for lineno, line in block:
        if line.count(",") != width - 1:
            raise SpecFormatError(
                f"{path}: line {lineno} has {line.count(',') + 1} fields, "
                f"expected {width}")
    try:
        arr = np.array(",".join([line for _, line in block]).split(","),
                       dtype=float).reshape(len(block), width)
    except ValueError:
        # name the first line that the same parser rejects
        for lineno, line in block:
            try:
                np.array(line.split(","), dtype=float)
            except ValueError as exc:
                raise SpecFormatError(
                    f"{path}: line {lineno} has non-numeric data") from exc
        raise
    bad = _first_non_finite(arr)
    if bad:
        row, col = bad
        raise SpecFormatError(f"{path}: {columns[col]} must be finite; line "
                              f"{block[row][0]} holds {arr[bad]}")
    return arr


def _read_trajectory_csv(path: str) -> Trajectory:
    with _text_file(path) as fh:
        # the non-blank lines, numbered as in the file and read as needed
        lines = ((lineno, line.rstrip("\n"))
                 for lineno, line in enumerate(fh, start=1) if line != "\n")
        _, first = next(lines, (0, ""))
        if not first:
            raise SpecFormatError(f"{path}: empty trajectory file")
        header = [h.strip() for h in first.split(",")]
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
        columns = (("times",) + ("states",) * n + ("multipliers",) * k
                   + _FIELDS[3:])
        blocks = []
        while block := list(itertools.islice(lines, _BLOCK)):
            blocks.append(_csv_block(block, columns, path))
    if not blocks:
        raise SpecFormatError(f"{path}: trajectory has no samples")
    keys = (0, slice(1, 1 + n), slice(1 + n, 1 + n + k), 1 + n + k,
            2 + n + k, 3 + n + k)
    return Trajectory(**{name: np.concatenate([b[:, key] for b in blocks])
                         for name, key in zip(_FIELDS, keys)})


def _trajectory_members(text: str) -> dict | None:
    """The schema_version and trajectory fields of the JSON object
    ``text``, decoded one member at a time.  Each field becomes a float
    array before the next member is decoded, unless it holds a boolean, a
    string (its text holds a quote) or a value numpy cannot convert: the
    checks after decoding name those.  None unless ``text`` is one
    well-formed JSON object with a member."""
    bools = "true" in text or "false" in text
    space = _SPACE.match
    doc = {}
    pos = space(text).end()
    if not text.startswith("{", pos):
        return None
    pos = space(text, pos + 1).end()
    try:
        while True:
            if not text.startswith('"', pos):
                return None
            key, pos = _DECODER.raw_decode(text, pos)
            pos = space(text, pos).end()
            if not text.startswith(":", pos):
                return None
            pos = space(text, pos + 1).end()
            start = pos
            try:
                value, pos = _DECODER.raw_decode(text, pos)
            except _NonFinite:
                if key not in _FIELDS:
                    raise
                # read as Python's json reads it, so that the finite check
                # names the sample
                value, pos = json.JSONDecoder(
                    parse_int=_parse_int).raw_decode(text, pos)
            if (key in _FIELDS and not (bools and _holds(value, bool))
                    and text.find('"', start, pos) < 0):
                try:
                    value = np.asarray(value, dtype=float)
                except (TypeError, ValueError):
                    pass
            if key in _FIELDS or key == "schema_version":
                doc[key] = value
            pos = space(text, pos).end()
            if text.startswith("}", pos):
                break
            if not text.startswith(",", pos):
                return None
            pos = space(text, pos + 1).end()
    except ValueError:  # a JSONDecodeError, or _NonFinite outside a field
        return None
    return doc if space(text, pos + 1).end() == len(text) else None


def _read_trajectory_json(path: str) -> Trajectory:
    text = _read_text(path)
    doc = _trajectory_members(text)
    if doc is None:  # json.loads names the fault
        doc = _decode(text, path)
    doc = _checked(doc, text, path, _FIELDS)
    missing = [key for key in _FIELDS if key not in doc]
    if missing:
        raise SpecFormatError(f"{path}: missing trajectory fields {missing}")
    return _trajectory_from_arrays(doc, path)


def read_trajectory(path: str) -> Trajectory:
    """Read a trajectory in either format, chosen by extension or else by
    the first character that is not whitespace."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".json":
        return _read_trajectory_json(path)
    if ext == ".csv":
        return _read_trajectory_csv(path)
    if _read_text(path, 256).lstrip(" \t\n\r").startswith("{"):
        return _read_trajectory_json(path)
    return _read_trajectory_csv(path)
