"""Round-trip and rejection tests for the file formats."""

import csv
import json
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _gen import subspace_residual
from ldkit.catalog import CATALOG, SystemSpec, build_system, damped_particle
from ldkit.dynamics import IntegratorConfig, Trajectory, simulate
from ldkit.errors import (DegenerateRepresentationError, NotLDStructureError,
                          SpecFormatError)
from ldkit.io import (SCHEMA_VERSION, load_structure_spec, load_system_spec,
                      read_trajectory, write_trajectory_csv,
                      write_trajectory_json)
from ldkit.linear import ABRep, classify, from_ab

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
    ld = load_structure_spec(path)
    report = classify(ld)
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
