"""The emitters against f-strings, the per-cell references and the json module, bit for bit.

The row join formats a float column in numpy, block by block; every cell of a
one-column ``csv_text`` must equal ``f"{v:.11e}"``. ``csv_text``, ``json_table``,
``surface_to_csv`` and the ``dump-snapshots`` JSON must equal ``oracles.csv_text_reference``,
``oracles.json_table_reference`` and ``json.dumps(..., sort_keys=True,
indent=1)`` of per-cell ``fmt`` strings, and ``surface_to_json`` must equal
``json.dumps`` of its float lists. ``json_document``, which all of them
share, must equal ``json.dumps`` of its payload with every array as a list,
and it is the only place in the package that calls ``json.dumps``; the row
join is the only place that formats a float cell.
"""
import ast
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import paper_config_text
from nanoramsey import cli, io
from nanoramsey.decoherence import VisibilitySurface, surface_to_csv, surface_to_json
from nanoramsey.dicke import sector_phase_quadratic_coefficient
from nanoramsey.grid import snapshot_frames
from nanoramsey.io import (
    _MARKER,
    Cells,
    _decimal_scale,
    config_sha256,
    csv_text,
    fmt,
    json_document,
    json_table,
)
from nanoramsey.params import build_params, parse_config_text
from oracles import csv_text_reference, joined, json_table_reference

SNAPSHOT_CFG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "snapshot.cfg"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nanoramsey"


def assert_cells_exact(values):
    """The CSV of the one-column float matrix of ``values`` has one f-string cell a line."""
    values = np.asarray(values, dtype=np.float64)
    expected = "v\n" + "".join(f"{v:.11e}\n" for v in values.tolist())
    assert joined(csv_text(["v"], values[:, None])) == expected


class TestFmt:
    def test_bool_before_int(self):
        # bool subclasses int; it must still print as a JSON-style literal
        assert fmt(True) == "true"
        assert fmt(False) == "false"

    def test_int_is_exact(self):
        assert fmt(0) == "0"
        assert fmt(-17) == "-17"
        assert fmt(10**20) == "100000000000000000000"

    def test_float_twelve_significant_digits(self):
        assert fmt(1.0) == "1.00000000000e+00"
        assert fmt(-0.0) == "-0.00000000000e+00"
        assert fmt(1.0 / 3.0) == "3.33333333333e-01"
        assert fmt(2.0 / 3.0) == "6.66666666667e-01"        # rounded, not truncated
        assert fmt(1.08e6) == "1.08000000000e+06"
        assert fmt(6.02214076e-300) == "6.02214076000e-300"
        assert fmt(math.inf) == "inf"
        assert fmt(math.nan) == "nan"

    def test_numpy_float64_formats_as_python_float(self):
        for value in (0.1, -2.5e-17, 1.0e300, 123456.789):
            assert fmt(np.float64(value)) == fmt(value) == f"{value:.11e}"


# -- the float kernel ------------------------------------------------------------

TINY = np.nextafter(0.0, 1.0)
SPECIALS = [0.0, -0.0, math.nan, -math.nan, np.copysign(math.nan, -1.0), math.inf, -math.inf,
            TINY, -TINY, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
            1.7976931348623157e308, -1.7976931348623157e308, 1e-280, 1e280,
            np.nextafter(1e-280, 0.0), np.nextafter(1e280, math.inf), 0.5, 9.9999999999995e5,
            999999999999.5, 99999999999.95]


def powers_of_ten():
    """10**k, rounded, with its neighbours one ulp away, both signs, every k."""
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)])
    return np.concatenate([near, -near])


def ties(n13):
    """Exact binary values whose 13th significant digit is a 5 followed by zeros,
    and the nearest floats to 13-digit decimals ending in 5 at every exponent."""
    exact = [(10 * n + 5) * 10**j for n in n13 for j in range(4)]
    exact += [(10 * n + 5) / 2 for n in n13] + [n + 0.5 for n in n13]
    near = [float(f"{10 * n + 5}e{k}") for n in n13 for k in range(-295, 290, 7)]
    return exact + near


class TestFloatCells:
    def test_specials(self):
        assert_cells_exact(SPECIALS)

    def test_powers_of_ten_and_neighbours(self):
        assert_cells_exact(powers_of_ten())

    def test_thirteen_digit_ties(self):
        rng = np.random.default_rng(7)
        assert_cells_exact(ties(rng.integers(10**11, 10**12, 40).tolist()))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
    def test_bit_patterns(self, bits):
        assert_cells_exact(np.array(bits, dtype=np.uint64).view(np.float64))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=100))
    def test_floats(self, values):
        assert_cells_exact(values)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(10**11, 10**12 - 1), min_size=1, max_size=5))
    def test_tie_lists(self, n13):
        assert_cells_exact(ties(n13))

    def test_large_random_columns(self):
        rng = np.random.default_rng(11)
        assert_cells_exact(rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64))
        assert_cells_exact(rng.lognormal(0.0, 40.0, 100_000) * rng.choice([-1.0, 1.0], 100_000))

    def test_empty(self):
        assert_cells_exact(np.array([]))


class TestDecimalScale:
    """The error bound that the tie window rests on (docs/physics-notes.md)."""

    def test_two_roundings_and_the_range(self):
        rng = np.random.default_rng(3)
        decades = np.array([float(f"1e{k}") for k in range(-280, 280)])
        a = np.concatenate([decades, np.nextafter(decades, 0.0)[1:],
                            np.nextafter(decades, math.inf),
                            *(decades * rng.uniform(1.0, 10.0, decades.size) for _ in range(6))])
        a = a[(a >= 1e-280) & (a <= 1e280)]
        scaled, e = np.empty_like(a), np.empty(a.shape, np.int32)
        _decimal_scale(a, scaled, e)
        bound = Fraction(1, 2**52)
        for ai, ei, si in zip(a.tolist(), e.tolist(), scaled.tolist()):
            t = Fraction(ai) * Fraction(10) ** (11 - ei)
            assert abs(Fraction(si) - t) < bound * t, (ai, ei)
            assert 10**11 * (1 - Fraction(1, 2**53)) <= t < 10**12 * (1 + Fraction(1, 2**53)), ai


# -- tables -----------------------------------------------------------------------

FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
CELLS = {
    "float": FLOATS,
    "float64": FLOATS.map(np.float64),
    "float and float64": st.one_of(FLOATS, FLOATS.map(np.float64)),
    "int": st.integers(-10**25, 10**25),
    "bool": st.booleans(),
    "mixed": st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(), st.booleans(),
                       st.integers(-5, 5).map(np.int64)),
}
METADATA = st.dictionaries(st.text(max_size=8), st.one_of(
    st.none(), st.integers(), st.text(max_size=8), st.lists(st.integers(), max_size=2)),
    max_size=4)


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 25))
    columns = [draw(st.lists(CELLS[k], min_size=n_rows, max_size=n_rows)) for k in kinds]
    header = [f"c{i}" for i in range(len(kinds))]
    return header, list(zip(*columns)) if n_rows else []


class TestTables:
    HEADER = ["param_value", "p0", "ok"]
    ROWS = [(0.5, np.float64(0.25), True), (1, 1.0 / 3.0, False)]

    def test_csv_bytes(self):
        assert joined(csv_text(self.HEADER, self.ROWS)) == (
            "param_value,p0,ok\n"
            "5.00000000000e-01,2.50000000000e-01,true\n"
            "1,3.33333333333e-01,false\n"
        )

    def test_csv_header_only(self):
        assert joined(csv_text(["a", "b"], [])) == "a,b\n"

    def test_json_bytes(self):
        text = joined(json_table(self.HEADER, self.ROWS, {"seed": None, "command": "sweep"}))
        assert text == (
            '{\n'
            ' "columns": [\n  "param_value",\n  "p0",\n  "ok"\n ],\n'
            ' "metadata": {\n  "command": "sweep",\n  "seed": null\n },\n'
            ' "rows": [\n'
            '  [\n   "5.00000000000e-01",\n   "2.50000000000e-01",\n   "true"\n  ],\n'
            '  [\n   "1",\n   "3.33333333333e-01",\n   "false"\n  ]\n'
            ' ]\n'
            '}'
        )

    def test_json_cells_equal_csv_cells(self):
        rows = json.loads(joined(json_table(self.HEADER, self.ROWS, {})))["rows"]
        csv_rows = joined(csv_text(self.HEADER, self.ROWS)).splitlines()[1:]
        assert [",".join(r) for r in rows] == csv_rows

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(tables(), METADATA)
    def test_equal_the_per_cell_references(self, table, metadata):
        header, rows = table
        assert joined(csv_text(header, rows)) == csv_text_reference(header, rows)
        assert joined(json_table(header, rows, metadata)) == json_table_reference(header, rows, metadata)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(FLOATS, min_size=3, max_size=3), max_size=20), METADATA)
    def test_float_matrix_equals_its_rows(self, rows, metadata):
        # the sweep and dump-snapshots CSV hand over one float matrix, not row tuples
        header = ["a", "b", "c"]
        matrix = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
        assert joined(csv_text(header, matrix)) == csv_text_reference(header, rows)
        assert joined(json_table(header, matrix, metadata)) == json_table_reference(header, rows, metadata)

    def test_one_column_and_zero_rows(self):
        for rows in ([], [(0.1,)], [(True,), (2,)]):
            assert joined(csv_text(["a"], rows)) == csv_text_reference(["a"], rows)
            assert joined(json_table(["a"], rows, {})) == json_table_reference(["a"], rows, {})

    def test_surface_csv(self):
        rng = np.random.default_rng(5)
        vis = rng.uniform(0.0, 1.0, (7, 4))
        vis[0, 0], vis[1, 1] = 0.0, 1.0
        surface = VisibilitySurface(delta_x_axis=np.geomspace(1e-9, 1e-6, 7),
                                    t_int_axis=np.linspace(300.0, 1500.0, 4),
                                    visibility=vis, flight_time=1e-4)
        header = ["delta_x_m\\t_int_K", *map(fmt, surface.t_int_axis)]
        rows = [(dx, *row) for dx, row in zip(surface.delta_x_axis, vis)]
        assert joined(surface_to_csv(surface)) == csv_text_reference(header, rows)


def surface_json_reference(surface, metadata=None) -> str:
    payload = {
        "delta_x_m": [float(v) for v in surface.delta_x_axis],
        "t_int_K": [float(v) for v in surface.t_int_axis],
        "flight_time_s": surface.flight_time,
        "visibility": [[float(v) for v in row] for row in surface.visibility],
    }
    if metadata:
        payload["metadata"] = metadata
    return json.dumps(payload, sort_keys=True, indent=1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=False), max_size=6), st.integers(0, 5), METADATA,
       st.floats(0.0, 1.0))
def test_surface_json_equals_json_dumps(dx, n_tint, metadata, flight_time):
    rng = np.random.default_rng(len(dx) * 7 + n_tint)
    surface = VisibilitySurface(delta_x_axis=np.array(dx, dtype=float),
                                t_int_axis=np.linspace(300.0, 1500.0, n_tint),
                                visibility=rng.uniform(0.0, 1.0, (len(dx), n_tint)),
                                flight_time=flight_time)
    for meta in (None, metadata):
        if dx and not n_tint:
            with pytest.raises(TypeError, match="shape"):     # rows with no cells: see TestJsonDocument
                surface_to_json(surface, meta)
        else:
            assert joined(surface_to_json(surface, meta)) == surface_json_reference(surface, meta)


# -- the JSON writer ---------------------------------------------------------------

def nested(value, depth: int):
    """``value`` inside ``depth`` one-item lists."""
    for _ in range(depth):
        value = [value]
    return value


def fmt_list(values):
    """fmt of each value of a list, or of each list's values."""
    return [fmt_list(v) if isinstance(v, list) else fmt(v) for v in values]


def expanded(payload):
    """The payload as plain JSON values: each array as its ``tolist()``, and each
    ``Cells`` table as the fmt strings of its cells."""
    if isinstance(payload, np.ndarray):
        return expanded(payload.tolist())
    if isinstance(payload, Cells):
        return fmt_list(payload.table.tolist())
    if isinstance(payload, dict):
        return {k: expanded(v) for k, v in payload.items()}
    if isinstance(payload, list):
        return [expanded(v) for v in payload]
    return payload


SHAPES = st.one_of(st.tuples(st.integers(0, 5)), st.tuples(st.integers(0, 4), st.integers(1, 3)))


@st.composite
def arrays(draw):
    shape = draw(SHAPES)
    size = math.prod(shape)
    kind = draw(st.sampled_from(["float", "fmt", "int", "bool"]))
    if kind == "int":
        return np.array(draw(st.lists(st.integers(-2**62, 2**62), min_size=size, max_size=size)),
                        dtype=np.int64).reshape(shape)
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)),
                        dtype=bool).reshape(shape)
    values = np.array(draw(st.lists(FLOATS, min_size=size, max_size=size)),
                      dtype=np.float64).reshape(shape)
    return Cells(values) if kind == "fmt" else values


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, st.text(max_size=6),
                    st.sampled_from(["[]", '"[]"', "a[]", "[]\n", "{}"]))
PAYLOADS = st.recursive(
    st.one_of(arrays(), SCALARS),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.one_of(st.text(max_size=4), st.just("[]")),
                                            inner, max_size=3)),
    max_leaves=10)


class TestJsonDocument:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(PAYLOADS)
    def test_equals_json_dumps(self, payload):
        assert joined(json_document(payload)) == json.dumps(expanded(payload), sort_keys=True, indent=1)

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_arrays_in_lists_of_dicts(self, depth):
        payload = nested({"a": [{"b": np.array([[1.5, -0.0], [math.inf, math.nan]]),
                                 "c": np.zeros((0, 2)), "d": np.array([])}],
                          "e": Cells(np.array([[1.0, 2.0]])), "f": "[]"}, depth)
        assert joined(json_document(payload)) == json.dumps(expanded(payload), sort_keys=True, indent=1)

    @pytest.mark.parametrize("array", [
        np.zeros((2, 0)), Cells(np.zeros((2, 0))), Cells([(), ()]), np.zeros((1, 1, 1)),
        np.zeros((0, 2, 2)), Cells(np.zeros((2, 2, 1))), np.array(1.5), np.array([b"1.5"]),
        np.array([1 + 2j]), np.array([None]),
    ])
    def test_unwritable_array_raises_before_return(self, array):
        # 3 or more dimensions, rows with no cells, a 0-d array, or a bare array that is not
        # of numbers: refused when the payload is laid out, before any piece is made
        with pytest.raises(TypeError, match="cannot write"):
            json_document({"a": [1.0, array], "b": np.zeros(3)})

    @pytest.mark.parametrize("payload", [
        _MARKER, [_MARKER], {"a": np.zeros(2), "b": _MARKER}, {_MARKER: 1}, [np.zeros(1), _MARKER],
    ])
    def test_marker_string_raises(self, payload):
        with pytest.raises(ValueError, match="marker"):
            json_document(payload)

    @pytest.mark.parametrize("payload, kind, message", [
        ({"a": {1}}, TypeError, "Object of type set is not JSON serializable"),
        ([1.0, object()], TypeError, "Object of type object is not JSON serializable"),
        ({"a": np.zeros(2), "b": _MARKER}, ValueError,
         "a payload string reads as the array marker '\\x00ndarray\\x00'"),
    ], ids=["set", "object", "marker"])
    def test_refusal_text(self, payload, kind, message):
        """A value json cannot write is refused as json.dumps refuses it, with its text."""
        with pytest.raises(kind) as refused:
            json_document(payload)
        assert type(refused.value) is kind and str(refused.value) == message
        if kind is TypeError:
            with pytest.raises(TypeError) as plain:
                json.dumps(payload)
            assert str(plain.value) == message

    def test_only_the_row_join_formats_float_cells(self):
        sites = []
        for path in PACKAGE.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
            called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
            for node in ast.walk(tree):
                if getattr(node, "id", getattr(node, "attr", None)) == "_fill_cells":
                    # ast.walk meets an outer function before the ones inside it
                    around = [fn.name for fn in functions if fn.lineno <= node.lineno <= fn.end_lineno]
                    sites.append((path.name, around[-1] if around else None, id(node) in called))
        assert sites == [("io.py", "_join_rows", True)]

    def test_only_io_calls_json_dumps(self):
        def json_dumps_lines(path):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Attribute) and node.attr == "dumps"
                        and isinstance(node.value, ast.Name) and node.value.id == "json"
                        or isinstance(node, ast.ImportFrom) and node.module == "json"):
                    yield node.lineno

        callers = {path.name: list(json_dumps_lines(path)) for path in PACKAGE.rglob("*.py")}
        assert callers.pop("io.py")
        assert {name: lines for name, lines in callers.items() if lines} == {}


# -- dump-snapshots JSON -------------------------------------------------------------

def snapshots_reference(frames, metadata) -> str:
    payload = {
        "frames": [{"time_s": fmt(t), "x": [fmt(v) for v in x],
                    "prob_plus": [fmt(v) for v in pp], "prob_minus": [fmt(v) for v in pm]}
                   for t, x, pp, pm in frames],
        "metadata": metadata,
    }
    return json.dumps(payload, sort_keys=True, indent=1)


ARRAYS = st.lists(FLOATS, max_size=12).map(lambda v: np.array(v, dtype=np.float64))


class TestSnapshotJson:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(FLOATS, ARRAYS, ARRAYS, ARRAYS), min_size=1, max_size=3),
           METADATA)
    def test_equals_json_dumps(self, frames, metadata):
        assert joined(cli._snapshots_json(frames, metadata)) == snapshots_reference(frames, metadata)

    def test_json_cells_depth(self):
        values = np.array([0.5, -1e-300, math.nan])
        for depth in (0, 1, 3):
            assert joined(json_document(nested(Cells(values), depth))) == \
                json.dumps(nested([fmt(v) for v in values], depth), indent=1)
        assert joined(json_document(nested(Cells(np.array([])), 3))) == json.dumps([[[[]]]], indent=1)

    def test_cli_frames(self, capsys):
        cfg = parse_config_text(SNAPSHOT_CFG.read_text())
        assert cli.main(["dump-snapshots", "--config", str(SNAPSHOT_CFG), "--format", "json",
                         "--times", "0.5,0.25"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        frames = snapshot_frames(build_params(cfg), cli._sequence_from_config(cfg), [0.5, 0.25])
        metadata = json.loads(out)["metadata"]
        assert out == snapshots_reference(frames, metadata)


# -- block edges ---------------------------------------------------------------------

#: Cells whose bytes come from f-strings, or sit next to a case that does.
EDGE_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, TINY, -TINY, 2.2250738585072014e-308,
               np.nextafter(2.2250738585072014e-308, 0.0), 1e-280, np.nextafter(1e-280, 0.0),
               1e280, np.nextafter(1e280, math.inf), 999999999999.5, 99999999999.95, 0.5,
               *ties([123456789012, 999999999999])[:8], *powers_of_ten()[::97]]


def edge_table(n_rows: int, n_cols: int, block: int) -> np.ndarray:
    """An (n_rows, n_cols) float matrix of random values with an edge value in every
    cell of the first and last row of each block of ``block`` rows."""
    rng = np.random.default_rng(n_rows * 31 + n_cols)
    table = rng.lognormal(0.0, 30.0, (n_rows, n_cols)) * rng.choice([-1.0, 1.0], (n_rows, n_cols))
    edges = sorted({r for start in range(0, n_rows, block) for r in (start, min(start + block, n_rows) - 1)})
    picks = rng.integers(0, len(EDGE_VALUES), (len(edges), n_cols))
    table[edges] = np.array(EDGE_VALUES)[picks]
    return table


def assert_emitters_equal_references(table):
    header = [f"c{j}" for j in range(table.shape[1])]
    rows = [tuple(row) for row in table.tolist()]
    assert joined(csv_text(header, table)) == csv_text_reference(header, rows)
    assert joined(json_table(header, table, {"n": len(rows)})) == json_table_reference(header, rows, {"n": len(rows)})
    frames = [(0.5, *table.T[:3])] if table.shape[1] >= 3 else [(0.5, table.T[0], table.T[0], table.T[0])]
    assert joined(cli._snapshots_json(frames, {})) == snapshots_reference(frames, {})


class TestBlockEdges:
    """A table of 0, 1, B - 1, B, B + 1 and 3B + 1 rows, where B is a block's rows,
    equals the per-cell references, with f-string cells at every block's first and
    last row."""

    CELLS = io.BLOCK_BYTES // 8

    @pytest.mark.parametrize("n_cols", [1, 4])
    @pytest.mark.parametrize("k", ["0", "1", "B-1", "B", "B+1", "3B+1"])
    def test_format_block(self, n_cols, k):
        block = self.CELLS // n_cols
        n_rows = {"0": 0, "1": 1, "B-1": block - 1, "B": block, "B+1": block + 1, "3B+1": 3 * block + 1}[k]
        assert_emitters_equal_references(edge_table(n_rows, n_cols, block))

    @pytest.mark.parametrize("block_bytes", [1, 8, 24, 66, 100, 250])
    def test_every_row_count_on_small_blocks(self, block_bytes):
        # a block of 1-31 cells and of 1-11 joined rows: every count below puts an edge at each place
        with mock.patch.object(io, "BLOCK_BYTES", block_bytes):
            for n_cols in (1, 3):
                for n_rows in range(0, 26):
                    assert_emitters_equal_references(edge_table(n_rows, n_cols, max(1, block_bytes // 8)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 400), tables(), METADATA)
    def test_row_tuples_on_small_blocks(self, block_bytes, table, metadata):
        header, rows = table
        with mock.patch.object(io, "BLOCK_BYTES", block_bytes):
            assert joined(csv_text(header, rows)) == csv_text_reference(header, rows)
            assert joined(json_table(header, rows, metadata)) == json_table_reference(header, rows, metadata)


# -- dicke metadata ------------------------------------------------------------------

def test_dicke_json_names_the_phase_convention(tmp_path, capsys):
    path = tmp_path / "paper.cfg"
    path.write_text(paper_config_text(), encoding="utf-8")
    assert cli.main(["dicke", "--config", str(path), "--l", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert cli.main(["dicke", "--config", str(path), "--l", "3"]) == 0
    csv_rows = capsys.readouterr().out.splitlines()[1:]
    assert [",".join(r) for r in doc["rows"]] == csv_rows
    params, seq, _, _ = cli._load_config(str(path))
    meta = doc["metadata"]
    assert meta["sector_phase_quadratic_coefficient"] == \
        sector_phase_quadratic_coefficient(params, seq)
    assert meta["phase_rad"].startswith("linear M * phi_g")


def test_config_sha256():
    text = "mass = 1.25e-17\n"
    assert config_sha256(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()
