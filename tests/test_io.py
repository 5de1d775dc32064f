"""Round-trip and rejection tests for the file formats."""

import csv
import json
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _gen import subspace_residual
from ldkit.catalog import CATALOG, SystemSpec, build_system, damped_particle
from ldkit.dynamics import IntegratorConfig, Trajectory, simulate
from ldkit.errors import (DegenerateRepresentationError, InputError,
                          NotLDStructureError, SpecFormatError)
from ldkit.io import (_BLOCK, SCHEMA_VERSION, load_structure_spec,
                      load_system_spec, read_trajectory, write_trajectory_csv,
                      write_trajectory_json)
from ldkit.linear import ABRep, PairRep, from_ab, from_pair
from ldkit.subspaces import Subspace

POISSON = [[0.0, 1.0], [-1.0, 0.0]]
FIELDS = ("times", "states", "multipliers", "residuals", "energies",
          "energy_rates")


def dump(path, doc):
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def particle_trajectory(t_end=0.05):
    sys = damped_particle((1.0, 1.0, 1.0))
    x0 = np.array([0.0, 0.5, 0.0, 1.0, 0.3, 0.5])
    return simulate(sys, x0, IntegratorConfig(dt=1e-2, t_end=t_end))


def trajectories_equal(a, b):
    return (np.array_equal(a.times, b.times)
            and np.array_equal(a.states, b.states)
            and np.array_equal(a.multipliers, b.multipliers)
            and np.array_equal(a.residuals, b.residuals)
            and np.array_equal(a.energies, b.energies)
            and np.array_equal(a.energy_rates, b.energy_rates))


def reference_csv(trajectory, path):
    """The row-by-row csv.writer CSV writer that the block writer replaced."""
    n, k = trajectory.n, trajectory.k
    header = (["t"] + [f"x{i}" for i in range(1, n + 1)]
              + [f"lambda{i}" for i in range(1, k + 1)]
              + ["constraint_residual", "H", "bracket_HH"])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(trajectory.times.shape[0]):
            row = [trajectory.times[i], *trajectory.states[i],
                   *trajectory.multipliers[i], trajectory.residuals[i],
                   trajectory.energies[i], trajectory.energy_rates[i]]
            writer.writerow(f"{float(v):.17g}" for v in row)


def reference_json(trajectory, path):
    """The streaming json.dump JSON writer that json.dumps replaced."""
    doc = {"schema_version": SCHEMA_VERSION}
    for name in FIELDS:
        doc[name] = getattr(trajectory, name).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def written_bytes(writer, trajectory, path):
    writer(trajectory, str(path))
    return path.read_bytes()


# -- structure specs --------------------------------------------------------


def test_load_structure_spec_ab_kind(tmp_path):
    path = dump(tmp_path / "s.json", {
        "schema_version": SCHEMA_VERSION, "kind": "ab", "n": 2,
        "a": [[1.0, 0.0], [0.0, 1.0]], "b": POISSON})
    report = load_structure_spec(path).flags
    assert report.dirac and report.forward and report.backward


def test_load_structure_spec_pair_kind_matches_graph(tmp_path):
    path = dump(tmp_path / "s.json", {
        "kind": "pair", "n": 2, "orientation": "forward",
        "carrier": [[1.0, 0.0], [0.0, 1.0]], "map": POISSON})
    ld = load_structure_spec(path)
    graph = from_ab(ABRep(np.eye(2), np.array(POISSON)))
    assert subspace_residual(ld.space, graph.space) <= 1e-10


def test_structure_spec_version_absent_reads_as_current(tmp_path):
    path = dump(tmp_path / "s.json", {
        "kind": "ab", "n": 1, "a": [[1.0]], "b": [[0.0]]})
    assert load_structure_spec(path).n == 1


def test_structure_spec_rejects_future_version(tmp_path):
    path = dump(tmp_path / "s.json", {
        "schema_version": 2, "kind": "ab", "n": 1, "a": [[1.0]], "b": [[0.0]]})
    with pytest.raises(SpecFormatError, match="schema_version"):
        load_structure_spec(path)


def test_structure_spec_rejects_invalid_json(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SpecFormatError, match="invalid JSON"):
        load_structure_spec(str(path))


def test_structure_spec_rejects_non_object_top_level(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("[1, 2, 3]\n", encoding="utf-8")
    with pytest.raises(SpecFormatError, match="object"):
        load_structure_spec(str(path))


def test_structure_spec_rejects_missing_file(tmp_path):
    with pytest.raises(SpecFormatError, match="cannot read"):
        load_structure_spec(str(tmp_path / "absent.json"))


def test_structure_spec_rejects_bad_n(tmp_path):
    for n in (None, 0, -1, 1.5, "2"):
        path = dump(tmp_path / "s.json", {
            "kind": "ab", "n": n, "a": [[1.0]], "b": [[0.0]]})
        with pytest.raises(SpecFormatError, match="'n'"):
            load_structure_spec(path)


def test_structure_spec_rejects_unknown_kind(tmp_path):
    path = dump(tmp_path / "s.json", {"kind": "graph", "n": 1})
    with pytest.raises(SpecFormatError, match="kind"):
        load_structure_spec(path)


def test_structure_spec_rejects_wrong_matrix_shape(tmp_path):
    path = dump(tmp_path / "s.json", {
        "kind": "ab", "n": 2, "a": [[1.0]], "b": POISSON})
    with pytest.raises(SpecFormatError, match="2x2"):
        load_structure_spec(path)


def test_structure_spec_rejects_flat_matrix(tmp_path):
    path = dump(tmp_path / "s.json", {
        "kind": "ab", "n": 1, "a": [1.0], "b": [[0.0]]})
    with pytest.raises(SpecFormatError, match="row-major"):
        load_structure_spec(path)


def test_structure_spec_rejects_non_finite_entries(tmp_path):
    path = dump(tmp_path / "s.json", {
        "kind": "ab", "n": 1, "a": [[float("inf")]], "b": [[0.0]]})
    with pytest.raises(SpecFormatError, match="non-finite"):
        load_structure_spec(path)


def test_structure_spec_rejects_bad_orientation(tmp_path):
    path = dump(tmp_path / "s.json", {
        "kind": "pair", "n": 2, "orientation": "sideways",
        "carrier": [[1.0, 0.0]], "map": [[0.0]]})
    with pytest.raises(SpecFormatError, match="orientation"):
        load_structure_spec(path)


def test_structure_spec_rejects_non_orthonormal_carrier(tmp_path):
    path = dump(tmp_path / "s.json", {
        "kind": "pair", "n": 2, "orientation": "forward",
        "carrier": [[1.0, 1.0]], "map": [[0.0]]})
    with pytest.raises(SpecFormatError, match="orthonormal"):
        load_structure_spec(path)


def test_structure_spec_carrier_meets_the_subspace_orthonormality_bound(
        tmp_path):
    # row norms off by 4e-6 put Gram entries 8e-6 off the identity
    path = dump(tmp_path / "s.json", {
        "kind": "pair", "n": 2, "orientation": "forward",
        "carrier": [[1.0 + 4e-6, 0.0], [0.0, 1.0 - 4e-6]],
        "map": POISSON})
    message = f"{path}: carrier vectors must be orthonormal"
    with pytest.raises(SpecFormatError, match=f"^{re.escape(message)}$"):
        load_structure_spec(path)


def test_structure_spec_rejects_carrier_length_mismatch(tmp_path):
    path = dump(tmp_path / "s.json", {
        "kind": "pair", "n": 3, "orientation": "forward",
        "carrier": [[1.0, 0.0]], "map": [[0.0]]})
    with pytest.raises(SpecFormatError, match="length n"):
        load_structure_spec(path)


@pytest.mark.parametrize("orientation", ["forward", "backward"])
def test_structure_spec_reads_an_empty_carrier_as_no_vectors(tmp_path,
                                                             orientation):
    path = dump(tmp_path / "s.json", {
        "kind": "pair", "n": 2, "orientation": orientation,
        "carrier": [], "map": []})
    built = from_pair(PairRep(orientation, Subspace.zero(2),
                              np.zeros((0, 0))))
    loaded = load_structure_spec(path)
    assert loaded.space.basis.tobytes() == built.space.basis.tobytes()
    assert loaded.flags == built.flags


@pytest.mark.parametrize("doc, match", [
    ({"kind": "pair", "n": 2, "orientation": "forward", "carrier": [],
      "map": [[0.0]]}, "'map' must be 0x0"),
    ({"kind": "pair", "n": 2, "orientation": "forward", "carrier": [[]],
      "map": [[0.0]]}, "length n"),
    ({"kind": "ab", "n": 2, "a": [], "b": []}, "must both be 2x2"),
], ids=["map", "carrier-of-an-empty-row", "ab"])
def test_structure_spec_refuses_empty_arrays_where_entries_belong(
        tmp_path, doc, match):
    with pytest.raises(SpecFormatError, match=match):
        load_structure_spec(dump(tmp_path / "s.json", doc))


def test_structure_spec_rejects_map_shape_mismatch(tmp_path):
    path = dump(tmp_path / "s.json", {
        "kind": "pair", "n": 2, "orientation": "forward",
        "carrier": [[1.0, 0.0]], "map": POISSON})
    with pytest.raises(SpecFormatError, match="'map'"):
        load_structure_spec(path)


def test_structure_spec_surfaces_degenerate_representation(tmp_path):
    path = dump(tmp_path / "s.json", {
        "kind": "ab", "n": 2, "a": [[1.0, 0.0], [0.0, 0.0]],
        "b": [[1.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(DegenerateRepresentationError):
        load_structure_spec(path)


def test_structure_spec_surfaces_non_ld_subspace(tmp_path):
    path = dump(tmp_path / "s.json", {
        "kind": "ab", "n": 2, "a": [[1.0, 0.0], [0.0, 0.0]],
        "b": [[0.0, 1.0], [0.0, 0.0]]})
    with pytest.raises(NotLDStructureError):
        load_structure_spec(path)


# -- system specs -----------------------------------------------------------


def test_load_system_spec_full_document(tmp_path):
    path = dump(tmp_path / "run.json", {
        "schema_version": 1, "name": "damped_particle",
        "parameters": {"mu2": 0.5},
        "initial_state": [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]})
    spec = load_system_spec(path)
    assert spec.name == "damped_particle"
    assert spec.parameters == {"mu2": 0.5}
    assert spec.initial_state == (0.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def test_load_system_spec_empty_state_defers_to_catalog_default(tmp_path):
    path = dump(tmp_path / "run.json", {
        "name": "harmonic_oscillator", "initial_state": []})
    assert load_system_spec(path).initial_state == ()


def test_system_spec_rejects_missing_name(tmp_path):
    path = dump(tmp_path / "run.json", {"initial_state": [1.0, 0.0]})
    with pytest.raises(SpecFormatError, match="'name'"):
        load_system_spec(path)


def test_system_spec_rejects_non_object_parameters(tmp_path):
    path = dump(tmp_path / "run.json", {
        "name": "gradient_flow", "parameters": [1.0],
        "initial_state": [1.0, 1.0]})
    with pytest.raises(SpecFormatError, match="parameters"):
        load_system_spec(path)


def test_system_spec_rejects_missing_initial_state(tmp_path):
    path = dump(tmp_path / "run.json", {"name": "gradient_flow"})
    with pytest.raises(SpecFormatError, match="initial_state"):
        load_system_spec(path)


def test_system_spec_rejects_non_numeric_state(tmp_path):
    path = dump(tmp_path / "run.json", {
        "name": "gradient_flow", "initial_state": [1.0, "two"]})
    with pytest.raises(SpecFormatError, match="numbers"):
        load_system_spec(path)


def test_system_spec_rejects_scalar_state(tmp_path):
    path = dump(tmp_path / "run.json", {
        "name": "gradient_flow", "initial_state": 1.0})
    with pytest.raises(SpecFormatError, match="array"):
        load_system_spec(path)


# -- trajectory files -------------------------------------------------------


def test_trajectory_csv_round_trips_exactly(tmp_path):
    traj = particle_trajectory()
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv(traj, path)
    assert trajectories_equal(read_trajectory(path), traj)


def test_trajectory_csv_header_with_multiplier_column(tmp_path):
    traj = particle_trajectory()
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ("t,x1,x2,x3,x4,x5,x6,lambda1,"
                      "constraint_residual,H,bracket_HH")


def test_trajectory_csv_header_without_multipliers(tmp_path):
    from ldkit.catalog import SystemSpec, build_system
    sys, x0 = build_system(SystemSpec(name="harmonic_oscillator"))
    traj = simulate(sys, x0, IntegratorConfig(dt=1e-2, t_end=0.05))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "t,x1,x2,constraint_residual,H,bracket_HH"
    back = read_trajectory(str(path))
    assert back.k == 0
    assert trajectories_equal(back, traj)


@pytest.mark.parametrize("t_end", [0.0, 0.5], ids=["1 row", "51 rows"])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_trajectory_files_match_the_reference_writers_byte_for_byte(
        tmp_path, name, t_end):
    sys, x0 = build_system(SystemSpec(name=name))
    traj = simulate(sys, x0, IntegratorConfig(dt=1e-2, t_end=t_end))
    for writer, reference, ext in (
            (write_trajectory_csv, reference_csv, "csv"),
            (write_trajectory_json, reference_json, "json")):
        assert (written_bytes(writer, traj, tmp_path / f"a.{ext}")
                == written_bytes(reference, traj, tmp_path / f"b.{ext}"))


@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2),
       st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=4 * 9, max_size=4 * 9))
@example(2, 1, 1, [-0.0, 5e-324, 1e308, -1e308, 2.2250738585072014e-308,
                   -4.9e-324, 0.1, 1 / 3, 1e-300] * 4)
def test_trajectory_files_round_trip_every_finite_float(
        tmp_path_factory, m, n, k, values):
    block = np.array(values[:m * (n + k + 4)]).reshape(m, n + k + 4)
    traj = Trajectory(times=block[:, 0], states=block[:, 1:1 + n],
                      multipliers=block[:, 1 + n:1 + n + k],
                      residuals=block[:, -3], energies=block[:, -2],
                      energy_rates=block[:, -1])
    folder = tmp_path_factory.mktemp("round_trip")
    for writer, reference, ext in (
            (write_trajectory_csv, reference_csv, "csv"),
            (write_trajectory_json, reference_json, "json")):
        path = folder / f"a.{ext}"
        assert (written_bytes(writer, traj, path)
                == written_bytes(reference, traj, folder / f"b.{ext}"))
        back = read_trajectory(str(path))
        # bytes, not array_equal, which takes -0.0 for 0.0
        for name in FIELDS:
            assert (getattr(back, name).tobytes()
                    == getattr(traj, name).tobytes()), name


def test_trajectory_json_round_trips_exactly(tmp_path):
    traj = particle_trajectory()
    path = str(tmp_path / "traj.json")
    write_trajectory_json(traj, path)
    assert trajectories_equal(read_trajectory(path), traj)
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["schema_version"] == SCHEMA_VERSION


def test_read_trajectory_sniffs_format_without_extension(tmp_path):
    traj = particle_trajectory()
    as_json = str(tmp_path / "a.dat")
    as_csv = str(tmp_path / "b.dat")
    write_trajectory_json(traj, as_json)
    write_trajectory_csv(traj, as_csv)
    assert trajectories_equal(read_trajectory(as_json), traj)
    assert trajectories_equal(read_trajectory(as_csv), traj)
    # the first character that is not whitespace decides
    padded = tmp_path / "c"
    padded.write_text("\n \t\r\n" + open(as_json, encoding="utf-8").read(),
                      encoding="utf-8", newline="")
    assert trajectories_equal(read_trajectory(str(padded)), traj)


def test_read_trajectory_rejects_unrelated_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("time,value\n0.0,1.0\n", encoding="utf-8")
    with pytest.raises(SpecFormatError, match="unexpected header"):
        read_trajectory(str(path))


def test_read_trajectory_rejects_misordered_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,lambda1,x1,constraint_residual,H,bracket_HH\n",
                    encoding="utf-8")
    with pytest.raises(SpecFormatError, match="state/multiplier"):
        read_trajectory(str(path))


def test_read_trajectory_rejects_short_row_with_line_number(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,x1,constraint_residual,H,bracket_HH\n"
                    "0.0,1.0,0.0,0.5,0.0\n"
                    "0.1,1.0,0.0\n", encoding="utf-8")
    with pytest.raises(SpecFormatError,
                       match="line 3 has 3 fields, expected 5$"):
        read_trajectory(str(path))


def test_read_trajectory_rejects_non_numeric_cell(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,x1,constraint_residual,H,bracket_HH\n"
                    "0.0,one,0.0,0.5,0.0\n", encoding="utf-8")
    with pytest.raises(SpecFormatError, match="line 2"):
        read_trajectory(str(path))


HEADER = "t,x1,constraint_residual,H,bracket_HH"
ROWS = ["0,1,0,0.5,0", "0.5,0.25,1e-17,0.03125,-0.0625"]


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_read_trajectory_csv_reads_either_line_end_and_skips_blank_lines(
        tmp_path, eol):
    path = tmp_path / "t.csv"
    path.write_text(eol.join([HEADER, "", ROWS[0], "", "", ROWS[1], ""]),
                    encoding="utf-8", newline="")
    traj = read_trajectory(str(path))
    assert traj.times.tolist() == [0.0, 0.5]
    assert traj.states.tolist() == [[1.0], [0.25]]
    assert traj.residuals.tolist() == [0.0, 1e-17]
    assert traj.energy_rates.tolist() == [0.0, -0.0625]


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("bad,message", [
    ("0.1,1.0,0.0", "line 5 has 3 fields, expected 5$"),
    ("0.1,1.0,0.0,0.5,0.0,7", "line 5 has 6 fields, expected 5$"),
    ("0.1,1.0,,0.5,0.0", "line 5 has non-numeric data$"),
    ("0.1,1.0,0.0,0.5,zero", "line 5 has non-numeric data$")])
def test_read_trajectory_csv_names_the_file_line_of_a_bad_row(
        tmp_path, eol, bad, message):
    path = tmp_path / "t.csv"
    # blank lines count: the message names the line as an editor shows it
    path.write_text(eol.join([HEADER, ROWS[0], "", ROWS[1], bad, ROWS[1]]),
                    encoding="utf-8", newline="")
    with pytest.raises(SpecFormatError, match=message):
        read_trajectory(str(path))


def test_read_trajectory_rejects_empty_and_headerless_files(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(SpecFormatError, match="empty"):
        read_trajectory(str(empty))
    for text in (HEADER + "\n", HEADER, HEADER + "\r\n\r\n"):
        header_only = tmp_path / "h.csv"
        header_only.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(SpecFormatError, match="no samples"):
            read_trajectory(str(header_only))


def test_trajectory_json_rejects_missing_fields(tmp_path):
    path = dump(tmp_path / "t.json", {"times": [0.0], "states": [[1.0]]})
    with pytest.raises(SpecFormatError, match="missing trajectory fields"):
        read_trajectory(path)


def test_trajectory_json_rejects_mismatched_column_length(tmp_path):
    path = dump(tmp_path / "t.json", {
        "times": [0.0, 0.1], "states": [[1.0], [0.9]],
        "multipliers": [[], []], "residuals": [0.0],
        "energies": [0.5, 0.4], "energy_rates": [0.0, 0.0]})
    with pytest.raises(SpecFormatError, match="residuals"):
        read_trajectory(path)


def test_trajectory_json_rejects_future_version(tmp_path):
    path = dump(tmp_path / "t.json", {
        "schema_version": 99, "times": [0.0], "states": [[1.0]],
        "multipliers": [[]], "residuals": [0.0], "energies": [0.5],
        "energy_rates": [0.0]})
    with pytest.raises(SpecFormatError, match="schema_version"):
        read_trajectory(path)


def two_sample_trajectory(**fields):
    """A two-sample, n = 2, k = 0 trajectory document with ``fields``
    replaced."""
    doc = {"times": [0.0, 0.1], "states": [[1.0, 2.0], [3.0, 4.0]],
           "multipliers": [[], []], "residuals": [0.0, 0.0],
           "energies": [1.0, 0.5], "energy_rates": [-1.0, -0.5]}
    doc.update(fields)
    return doc


@pytest.mark.parametrize("field, value", [
    ("states", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
    ("states", [1.0, 2.0, 3.0, 4.0]),
    ("states", [[[1.0], [2.0]], [[3.0], [4.0]]]),
    ("multipliers", [0.5, 0.25]),
    ("multipliers", []),
    ("multipliers", [[], [], []]),
], ids=["three-rows", "flat-states", "3d-states", "flat-multipliers",
        "empty-multipliers", "three-empty-rows"])
def test_trajectory_json_needs_one_row_per_sample(tmp_path, field, value):
    # a reshape would read [[1,2],[3,4],[5,6]] as [[1,2,3],[4,5,6]]
    path = dump(tmp_path / "t.json", two_sample_trajectory(**{field: value}))
    with pytest.raises(SpecFormatError,
                       match=f"field '{field}' must have one row per sample"):
        read_trajectory(path)


@pytest.mark.parametrize("field, value, message", [
    ("states", [[1.0, 2.0], [3.0]], "must have one row per sample"),
    ("states", [[1.0, 2.0], 3.0], "must have one row per sample"),
    ("states", [[1.0, 2.0], [3.0, "four"]], "holds a non-number"),
    ("multipliers", [[], [0.5]], "must have one row per sample"),
    ("multipliers", [[0.5], [{"x": 1}]], "holds a non-number"),
    ("energies", [1.0, [0.5, 0.25]], "must have one value per sample"),
    ("energies", [1.0, "half"], "holds a non-number"),
], ids=["ragged-states", "scalar-row", "string-state", "ragged-multipliers",
        "object-multiplier", "list-energy", "string-energy"])
def test_trajectory_json_names_the_field_numpy_cannot_convert(
        tmp_path, field, value, message):
    path = dump(tmp_path / "t.json", two_sample_trajectory(**{field: value}))
    with pytest.raises(SpecFormatError,
                       match=re.escape(f"field '{field}' {message}")):
        read_trajectory(path)


NOT_UTF8 = b"\xff\xfe{}\n"


@pytest.mark.parametrize("load, name", [
    (load_structure_spec, "spec.json"), (load_system_spec, "run.json"),
    (read_trajectory, "t.json"), (read_trajectory, "t.csv"),
    (read_trajectory, "trajectory")],
    ids=["structure", "run", "trajectory-json", "trajectory-csv",
         "trajectory-sniffed"])
def test_a_file_that_is_not_utf8_is_a_spec_error(tmp_path, load, name):
    path = tmp_path / name
    path.write_bytes(NOT_UTF8)
    with pytest.raises(SpecFormatError,
                       match=re.escape(f"{path}: not UTF-8 text")):
        load(str(path))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trajectory_of_k_0_round_trips_with_empty_multiplier_rows(tmp_path,
                                                                   fmt):
    sys, x0 = build_system(SystemSpec(name="harmonic_oscillator"))
    traj = simulate(sys, x0, IntegratorConfig(dt=1e-2, t_end=0.05))
    path = str(tmp_path / f"traj.{fmt}")
    (write_trajectory_csv if fmt == "csv" else write_trajectory_json)(
        traj, path)
    if fmt == "json":
        assert json.loads(open(path, encoding="utf-8").read())[
            "multipliers"] == [[]] * 6
    back = read_trajectory(path)
    assert back.multipliers.shape == (6, 0)
    assert trajectories_equal(back, traj)


AB_SPEC = {"kind": "ab", "n": 2, "a": [[1.0, 0.0], [0.0, 1.0]], "b": POISSON}
PAIR_SPEC = {"kind": "pair", "n": 2, "orientation": "forward",
             "carrier": [[1.0, 0.0]], "map": [[0.0]]}
RUN_SPEC = {"name": "damped_oscillator", "parameters": {"mu": 0.5},
            "initial_state": [1.0, 0.0]}
BOOLEANS = {
    "n": (load_structure_spec, {"kind": "ab", "a": [[1.0]], "b": [[0.0]]},
          {"n": True}),
    "version": (load_structure_spec, AB_SPEC, {"schema_version": True}),
    "a-entry": (load_structure_spec, AB_SPEC,
                {"a": [[True, 0.0], [0.0, 1.0]]}),
    "carrier-entry": (load_structure_spec, PAIR_SPEC,
                      {"carrier": [[True, False]]}),
    "map-entry": (load_structure_spec, PAIR_SPEC, {"map": [[False]]}),
    "parameter": (load_system_spec, RUN_SPEC, {"parameters": {"omega": True}}),
    "initial-state": (load_system_spec, RUN_SPEC,
                      {"initial_state": [True, False]}),
    "time": (read_trajectory, two_sample_trajectory(), {"times": [0.0, True]}),
    "state": (read_trajectory, two_sample_trajectory(),
              {"states": [[1.0, 2.0], [False, 4.0]]}),
    "energy-rate": (read_trajectory, two_sample_trajectory(),
                    {"energy_rates": [False, -0.5]}),
}


@pytest.mark.parametrize("case", BOOLEANS)
def test_a_json_boolean_is_not_read_as_a_number(tmp_path, case):
    load, doc, change = BOOLEANS[case]
    key = next(iter(change))
    path = dump(tmp_path / "doc.json", {**doc, **change})
    with pytest.raises(SpecFormatError,
                       match=f"field '{key}' holds a boolean, not a number"):
        load(path)


@pytest.mark.parametrize("load, doc", [
    (load_structure_spec, AB_SPEC), (load_system_spec, RUN_SPEC),
    (read_trajectory, two_sample_trajectory())],
    ids=["structure", "run", "trajectory"])
def test_a_json_boolean_under_an_unknown_key_is_ignored(tmp_path, load, doc):
    path = dump(tmp_path / "doc.json",
                {**doc, "stats": {"complete": True, "flags": [False]}})
    load(path)


# numpy and float() read each of these strings as a number
STRINGS = {
    "n": (load_structure_spec, {"kind": "ab", "a": [[1.0]], "b": [[0.0]]},
          {"n": "1"}),
    "a-entry": (load_structure_spec, AB_SPEC, {"a": [["1", 0.0], [0.0, 1.0]]}),
    "carrier-entry": (load_structure_spec, PAIR_SPEC,
                      {"carrier": [["1.0", "0.0"]]}),
    "map-entry": (load_structure_spec, PAIR_SPEC, {"map": [["0"]]}),
    "parameter": (load_system_spec, RUN_SPEC, {"parameters": {"mu": "0.5"}}),
    "initial-state": (load_system_spec, RUN_SPEC,
                      {"initial_state": ["1.0", "0.0"]}),
    "time": (read_trajectory, two_sample_trajectory(),
             {"times": ["0.0", "0.1"]}),
    "state": (read_trajectory, two_sample_trajectory(),
              {"states": [[1.0, 2.0], [" 3e0 ", 4.0]]}),
    "residual-nan": (read_trajectory, two_sample_trajectory(),
                     {"residuals": [0.0, "nan"]}),
    "energy-rate": (read_trajectory, two_sample_trajectory(),
                    {"energy_rates": ["-0.25", -0.5]}),
}


@pytest.mark.parametrize("case", STRINGS)
def test_a_json_string_is_not_read_as_a_number(tmp_path, case):
    load, doc, change = STRINGS[case]
    key = next(iter(change))
    path = dump(tmp_path / "doc.json", {**doc, **change})
    with pytest.raises(SpecFormatError,
                       match=f"field '{key}' holds a non-number: a string"):
        load(path)


@pytest.mark.parametrize("load, doc", [
    (load_structure_spec, AB_SPEC), (load_system_spec, RUN_SPEC),
    (read_trajectory, two_sample_trajectory())],
    ids=["structure", "run", "trajectory"])
def test_a_json_string_under_an_unknown_key_is_ignored(tmp_path, load, doc):
    path = dump(tmp_path / "doc.json",
                {**doc, "note": "0.5", "stats": {"rows": ["1", "2"]}})
    load(path)


# -- block paths ------------------------------------------------------------


def random_trajectory(m, n, k, seed=0):
    """m rows of seeded normal draws, with -0.0 and subnormals among them."""
    block = np.random.default_rng(seed).standard_normal((m, n + k + 4))
    block.flat[::7] = -0.0
    block.flat[3::11] = 5e-324
    block.flat[5::13] = -2.2250738585072e-309
    return Trajectory(times=block[:, 0].copy(),
                      states=block[:, 1:1 + n].copy(),
                      multipliers=block[:, 1 + n:1 + n + k].copy(),
                      residuals=block[:, -3].copy(),
                      energies=block[:, -2].copy(),
                      energy_rates=block[:, -1].copy())


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("m", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                               2 * _BLOCK + 1],
                         ids=["1", "B-1", "B", "B+1", "2B+1"])
def test_block_paths_match_the_reference_writers_at_block_edges(tmp_path, m,
                                                                 k):
    traj = random_trajectory(m, 3, k)
    for writer, reference, ext in (
            (write_trajectory_csv, reference_csv, "csv"),
            (write_trajectory_json, reference_json, "json")):
        path = tmp_path / f"a.{ext}"
        assert (written_bytes(writer, traj, path)
                == written_bytes(reference, traj, tmp_path / f"b.{ext}"))
        back = read_trajectory(str(path))
        for name in FIELDS:
            assert (getattr(back, name).tobytes()
                    == getattr(traj, name).tobytes()), name


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("bad,message", [
    ("0.1,1.0,0.0", "has 3 fields, expected 5"),
    ("0.1,one,0.0,0.5,0.0", "has non-numeric data"),
    ("0.1,1.0,0.0,0.5,nan", "bracket_HH"),
], ids=["short", "non-numeric", "non-finite"])
def test_read_trajectory_csv_names_the_file_line_after_the_first_block(
        tmp_path, eol, bad, message):
    # one blank line after every 100 rows: the bad row is on line
    # 1 + B + 1 + B // 100 + 1
    rows = []
    for i in range(_BLOCK + 1):
        rows += [ROWS[0]] + [""] * (i % 100 == 99)
    path = tmp_path / "t.csv"
    path.write_text(eol.join([HEADER, *rows, bad, ROWS[1], ""]),
                    encoding="utf-8", newline="")
    lineno = 1 + len(rows) + 1
    if message == "bracket_HH":
        message = f"energy_rates must be finite; line {lineno} holds nan"
    else:
        message = f"line {lineno} {message}"
    with pytest.raises(SpecFormatError,
                       match=f"^{re.escape(f'{path}: {message}')}$"):
        read_trajectory(str(path))


def test_read_trajectory_csv_that_stops_being_utf8_is_a_spec_error(tmp_path):
    path = tmp_path / "t.csv"
    # the bad byte lies beyond the reader's first buffer and first block
    path.write_bytes("\r\n".join([HEADER] + [ROWS[1]] * (2 * _BLOCK)).encode()
                     + b"\r\n\xff\r\n")
    with pytest.raises(SpecFormatError,
                       match=re.escape(f"{path}: not UTF-8 text")):
        read_trajectory(str(path))


GOOD = two_sample_trajectory()
PARITY = {
    "duplicate-key": '{"times": [7, 8], "states": "x", '
                     + json.dumps(GOOD)[1:],
    "whitespace": "\n \t" + json.dumps(GOOD, indent="\t").replace(
        ":", " \r\n:\t").replace(",", "\r\n ,") + " \r\n",
    "unknown-keys": json.dumps({
        "note": {"a": [1, "x", None, {"b": []}]}, **GOOD,
        "text": 'holds "}", ", " and ": "', "n": None}),
    "empty-object": "{ }",
    "truncated": json.dumps(GOOD)[:-20],
    "trailing-garbage": json.dumps(GOOD) + " x",
    "two-objects": json.dumps(GOOD) + json.dumps(GOOD),
    "trailing-comma": json.dumps(GOOD)[:-1] + ", }",
    "missing-colon": '{"times" [0.0]}',
    "number-key": "{1: [0.0]}",
    "unterminated-key": '{"times',
    "byte-order-mark": "\ufeff" + json.dumps(GOOD),
    "list": "[1, 2]",
    "string": '"{}"',
    "empty": "",
}


def json_loads_reader(text, path):
    """What the reader built on json.loads gave for ``text``: the arrays,
    or the text of its SpecFormatError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"{path}: invalid JSON: {exc}"
    if not isinstance(doc, dict):
        return f"{path}: top level must be a JSON object"
    missing = [name for name in FIELDS if name not in doc]
    if missing:
        return f"{path}: missing trajectory fields {missing}"
    return {name: np.asarray(doc[name], dtype=float) for name in FIELDS}


@pytest.mark.parametrize("case", PARITY)
def test_trajectory_json_reader_matches_json_loads(tmp_path, case):
    path = tmp_path / "t.json"
    path.write_text(PARITY[case], encoding="utf-8", newline="")
    expected = json_loads_reader(PARITY[case], path)
    if isinstance(expected, str):
        with pytest.raises(SpecFormatError) as info:
            read_trajectory(str(path))
        assert str(info.value) == expected
    else:
        back = read_trajectory(str(path))
        for name in FIELDS:
            assert getattr(back, name).tobytes() == expected[name].tobytes()


# one bad entry, in sample 1, per field of a k = 1 document
BAD_SAMPLE = {"times": [0.0, 7.5], "states": [[1.0, 2.0], [3.0, 7.5]],
              "multipliers": [[0.5], [7.5]], "residuals": [0.0, 7.5],
              "energies": [1.0, 7.5], "energy_rates": [-1.0, 7.5]}


@pytest.mark.parametrize("literal,value", [
    ("null", "nan"), ("NaN", "nan"), ("Infinity", "inf"),
    ("-Infinity", "-inf")])
@pytest.mark.parametrize("field", FIELDS)
def test_trajectory_json_refuses_a_non_finite_entry(tmp_path, field, literal,
                                                    value):
    doc = {**two_sample_trajectory(multipliers=[[0.5], [0.25]]),
           field: BAD_SAMPLE[field]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc).replace("7.5", literal),
                    encoding="utf-8")
    message = f"{path}: {field} must be finite; sample 1 holds {value}"
    with pytest.raises(SpecFormatError, match=f"^{re.escape(message)}$"):
        read_trajectory(str(path))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field,column", [
    ("times", 0), ("states", 2), ("multipliers", 3), ("residuals", 4),
    ("energies", 5), ("energy_rates", 6)])
def test_trajectory_csv_refuses_a_non_finite_cell(tmp_path, field, column,
                                                  cell):
    row = ["0.5", "0.25", "1", "0.5", "0", "0.03125", "-0.0625"]
    row[column] = cell
    path = tmp_path / "t.csv"
    path.write_text("t,x1,x2,lambda1,constraint_residual,H,bracket_HH\n"
                    "0,1,1,0,0,0.5,0\n\n" + ",".join(row) + "\n",
                    encoding="utf-8")
    message = f"{path}: {field} must be finite; line 4 holds {cell}"
    with pytest.raises(SpecFormatError, match=f"^{re.escape(message)}$"):
        read_trajectory(str(path))


@pytest.mark.parametrize("load, doc", [
    (load_structure_spec, AB_SPEC), (load_system_spec, RUN_SPEC),
    (read_trajectory, two_sample_trajectory())],
    ids=["structure", "run", "trajectory"])
def test_a_json_nan_literal_is_refused_under_any_key(tmp_path, load, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**doc, "note": float("nan")}),
                    encoding="utf-8")
    with pytest.raises(SpecFormatError, match=re.escape(
            f"{path}: invalid JSON: non-finite number NaN")):
        load(str(path))


class Interrupted(Exception):
    pass


class FailsAfterTheFirstBlock:
    """An array whose rows past the first block cannot be read."""

    def __init__(self, values):
        self.values, self.shape = values, values.shape

    def __getitem__(self, rows):
        if rows.start:
            raise Interrupted
        return self.values[rows]


@pytest.mark.parametrize("writer", [write_trajectory_csv,
                                    write_trajectory_json])
def test_a_failed_write_leaves_the_old_file_and_no_other(tmp_path, writer):
    traj = random_trajectory(2 * _BLOCK, 2, 1)
    path = tmp_path / "t.out"
    path.write_bytes(b"old")
    fields = {name: getattr(traj, name) for name in FIELDS}
    fields["energies"] = FailsAfterTheFirstBlock(traj.energies)
    failing = Trajectory(**fields)
    with pytest.raises(Interrupted):
        writer(failing, str(path))
    assert os.listdir(tmp_path) == ["t.out"]
    assert path.read_bytes() == b"old"
    writer(traj, str(path))
    assert os.listdir(tmp_path) == ["t.out"]
    assert trajectories_equal(read_trajectory(str(path)), traj)


@pytest.mark.parametrize("writer", [write_trajectory_csv,
                                    write_trajectory_json])
def test_an_unwritable_output_is_an_input_error(tmp_path, writer):
    path = tmp_path / "missing" / "t.out"
    with pytest.raises(InputError,
                       match=f"^cannot write {re.escape(str(path))}: "):
        writer(particle_trajectory(), str(path))
    (tmp_path / "folder").mkdir()
    with pytest.raises(InputError, match="cannot write"):
        writer(particle_trajectory(), str(tmp_path / "folder"))
    assert os.listdir(tmp_path / "folder") == []
    assert sorted(os.listdir(tmp_path)) == ["folder"]


def traced_peak(fn, *args):
    """The peak of the memory that ``fn(*args)`` allocates, as tracemalloc
    sees it (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_paths_bound_their_memory(tmp_path):
    small = random_trajectory(5_000, 6, 1)
    big = random_trajectory(40_000, 6, 1)
    for writer, ext in ((write_trajectory_csv, "csv"),
                        (write_trajectory_json, "json")):
        path = str(tmp_path / f"t.{ext}")
        ratio = (traced_peak(writer, big, path)
                 / traced_peak(writer, small, path))
        assert ratio <= 1.5, writer.__name__
    arrays = sum(getattr(big, name).nbytes for name in FIELDS)
    assert (traced_peak(read_trajectory, str(tmp_path / "t.csv"))
            < 3 * arrays + 4e6)
