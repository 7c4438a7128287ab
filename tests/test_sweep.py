"""The broadcast sweep against the per-point reference, bit for bit.

``nanoramsey sweep`` evaluates every swept value in one library call per
route. ``oracles.sweep_reference`` builds each point's parameters and
sequence from Python scalars and calls the closed forms once per point. The
two must agree in every output byte, and in the exit code and message when
some point is invalid.
"""
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import PAPER_CONFIG, paper_config_text
from nanoramsey import cli
from nanoramsey.io import csv_text
from nanoramsey.params import parse_config_text, sphere_mass
from oracles import UNREAD_KEYS, csv_text_reference, run_point, sweep_reference

T3 = PAPER_CONFIG["t3"]

#: Config overrides (None drops a key). Between them they reach the derived
#: mass and nucleon count, the radius/density conflict check, g_earth, t1/t2 given explicitly
#: (a t3 sweep rescales them), jitter, and unbalanced points whose overlap
#: modulus neither underflows nor equals 1.
CONFIGS = {
    "paper": {},
    "derived_mass": dict(mass=None, n_nucleons=None, density=3510.0),
    "derived_nucleons": dict(radius=None, n_nucleons=None),
    "mass_radius_density": dict(density=PAPER_CONFIG["mass"]
                                / sphere_mass(PAPER_CONFIG["radius"], 1.0)),
    "g_earth": dict(g_earth=9.0),
    "explicit_balanced": dict(t1=T3 / 4.0, t2=3.0 * T3 / 4.0),
    "shaped": dict(t1=0.2 * T3, t2=0.7 * T3),
    "jitter": dict(jitter_t1=1.0e-9),
    "weak_shaped": dict(b_gradient=3.0e-2, t1=0.24 * T3, t2=0.77 * T3),
}

#: Where a swept parameter sits when the config does not set it.
DEFAULTS = dict(t1=T3 / 4.0, t2=3.0 * T3 / 4.0, g_nv=2.0028, g_earth=9.80665,
                density=3510.0, theta=0.3)

FACTORS = st.one_of(
    st.sampled_from([1.0, 1.0 + 1e-13, 1.0 - 1e-13, 1.001, 0.97, 2.0, 0.0, -1.0]),
    st.floats(-0.5, 4.0, allow_nan=False),
)


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep_configs")
    out = {}
    for name, overrides in CONFIGS.items():
        text = paper_config_text(**overrides)
        path = root / f"{name}.cfg"
        path.write_text(text, encoding="utf-8")
        out[name] = (str(path), parse_config_text(text))
    return out


def _base_value(cfg: dict, param: str) -> float:
    return cfg.get(param) or DEFAULTS.get(param, 1.0)


def run_cli(argv):
    # the CLI writes bytes to sys.stdout.buffer
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:   # noqa: BLE001 - compared with the reference's
            return "raises", type(exc), str(exc)
    out.flush()
    return rc, out.buffer.getvalue().decode("utf-8"), err.getvalue()


def run_reference(cfg: dict, argv):
    args = cli.parse_args(argv)
    try:
        header, rows = sweep_reference(cfg, args)
    except ValueError as exc:       # ConfigError included, as cli.main reports it
        return cli.EXIT_VALIDATION, "", f"error: {exc}\n"
    except Exception as exc:   # noqa: BLE001 - cli.main lets these propagate
        return "raises", type(exc), str(exc)
    return cli.EXIT_OK, csv_text_reference(header, rows), ""


def assert_matches_reference(configs, config_name, argv):
    path, cfg = configs[config_name]
    argv = ["sweep", "--config", path, *argv]
    assert run_cli(argv) == run_reference(cfg, argv)


@pytest.mark.parametrize("mode", ["linear", "log", "values"])
@pytest.mark.parametrize("param", (*cli.SWEEPABLE, *UNREAD_KEYS))     # the reference refuses the second set
@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_sweep_equals_per_point_reference(configs, param, mode, data):
    config_name = data.draw(st.sampled_from(sorted(CONFIGS)), label="config")
    base = _base_value(configs[config_name][1], param)
    if mode == "values":
        factors = data.draw(st.lists(FACTORS, min_size=1, max_size=8), label="factors")
        argv = ["--values=" + ",".join(repr(base * f) for f in factors)]
    else:
        lo, hi = data.draw(FACTORS, label="lo"), data.draw(FACTORS, label="hi")
        count = data.draw(st.integers(2, 25), label="count")
        # the "--start=-1e-05" form, one token whatever the value
        argv = [f"--start={base * lo!r}", f"--stop={base * hi!r}", "--count", str(count)]
        if mode == "log":
            argv.append("--log")
    assert_matches_reference(configs, config_name, ["--param", param, *argv])


@pytest.mark.parametrize("param", (*cli.SWEEPABLE, *UNREAD_KEYS))
@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_broadcast_columns_are_bitwise_per_point(configs, param, data):
    # The CSV keeps 12 digits, which hides a last-bit change in most columns;
    # compare the raw float64 bits, signed zeros included.
    config_name = data.draw(st.sampled_from(sorted(CONFIGS)), label="config")
    cfg = configs[config_name][1]
    base = _base_value(cfg, param)
    factors = data.draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=40), label="factors")
    values = np.array([base * f for f in factors])
    try:
        reference = [run_point(cfg, param, v) for v in values.tolist()]
    except ValueError:
        return      # invalid points: the CLI test compares exit codes and messages
    columns = cli._sweep_outputs(cfg, param, values)
    assert_bitwise(columns, reference)
    if param in UNREAD_KEYS:        # why sweep refuses the key: every point is the first
        assert_bitwise(columns, reference[:1] * len(reference))


def assert_bitwise(columns: dict, reference: list[dict]):
    for column, got in columns.items():
        want = np.array([p[column] for p in reference], dtype=float)
        got = np.broadcast_to(np.asarray(got, dtype=float), want.shape)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), column


@pytest.mark.parametrize("config_name, param, lo, hi", [
    ("paper", "theta", 0.0, 1.5),                    # megaradian phases
    ("weak_shaped", "t1", 2.3e-5, 2.5e-5),           # overlap modulus in (0, 1)
    ("paper", "t1", 2.495e-5, 2.505e-5),             # the benchmark's unbalanced sweep
])
def test_dense_sweeps_bitwise(configs, config_name, param, lo, hi):
    # last-bit differences are rare (about 1 in 1000 for cos(x)**2 in numpy against
    # libm), so a few thousand distinct points are needed to see one
    cfg = configs[config_name][1]
    values = np.linspace(lo, hi, 4000)
    reference = [run_point(cfg, param, v) for v in values]
    assert_bitwise(cli._sweep_outputs(cfg, param, values), reference)


class TestSweepRoutes:
    def test_mixed_balanced_and_unbalanced_points(self, configs):
        quarter = T3 / 4.0
        values = [quarter, 0.26e-4, quarter * (1 + 1e-13), 0.24e-4, quarter, 2.4999e-5]
        argv = ["--param", "t1", "--values", ",".join(map(repr, values))]
        assert_matches_reference(configs, "paper", argv)
        rc, out, _ = run_cli(["sweep", "--config", configs["paper"][0], *argv])
        visibility = [float(line.split(",")[-1]) for line in out.splitlines()[1:]]
        assert rc == cli.EXIT_OK
        assert visibility[0] == visibility[2] == visibility[4] == 1.0
        assert all(v < 1.0 for v in (visibility[1], visibility[3], visibility[5]))

    def test_t3_rescales_explicit_flip_times(self, configs):
        argv = ["--param", "t3", "--start", "5e-5", "--stop", "2e-4", "--count", "9"]
        for name in ("explicit_balanced", "shaped", "weak_shaped"):
            assert_matches_reference(configs, name, argv)

    def test_first_bad_point_reports_as_alone(self, configs):
        # 1e-30 kg fails only the nucleon count, which is checked after mass > 0:
        # the point-by-point order must win over the order of the array checks
        argv = ["--param", "mass", "--values", "1.25e-17,1e-30,-1.0"]
        assert_matches_reference(configs, "derived_nucleons", argv)
        rc, out, err = run_cli(["sweep", "--config", configs["derived_nucleons"][0], *argv])
        assert (rc, out) == (cli.EXIT_VALIDATION, "")
        assert err == "error: n_nucleons must be >= 1\n"

    def test_conflict_message_keeps_the_value_type(self, configs):
        # a range sweep passes numpy scalars; the message shows them as the loop did
        for argv in (["--start", "1e-17", "--stop", "2e-17", "--count", "3"],
                     ["--values", "1e-17,2e-17"]):
            assert_matches_reference(configs, "mass_radius_density",
                                     ["--param", "mass", *argv])

    def test_json_rows_match_csv_rows(self, configs):
        path, cfg = configs["weak_shaped"]
        argv = ["sweep", "--config", path, "--param", "t1", "--start", "2.3e-5",
                "--stop", "2.6e-5", "--count", "11"]
        _, csv_out, _ = run_cli(argv)
        _, json_out, _ = run_cli([*argv, "--format", "json"])
        rows = json.loads(json_out)["rows"]
        assert [",".join(r) for r in rows] == csv_out.splitlines()[1:]
        assert any(0.0 < float(r[-1]) < 1.0 for r in rows)
        assert not any(math.isnan(float(c)) for r in rows for c in r)


def assert_table_bitwise(table, cfg: dict, param: str, values):
    """The sweep table against one ``run_point`` per value, every float64 bit."""
    points = [run_point(cfg, param, v) for v in values]
    want = np.array([[v, *(p[c] for c in cli.OUTPUT_COLUMNS)] for v, p in zip(values, points)], dtype=float)
    assert table.shape == want.shape
    assert np.array_equal(table.view(np.int64), want.view(np.int64))


B = cli.SWEEP_BLOCK


class TestSweepBlocks:
    """``_sweep_rows`` computes SWEEP_BLOCK points at a time; at and around the block edges
    the table equals the per-point reference, bit for bit, and a bad point in a later block
    is reported as it is alone."""

    @pytest.mark.parametrize("count", [B - 1, B, B + 1, 2 * B + 1], ids=["B-1", "B", "B+1", "2B+1"])
    @pytest.mark.parametrize("config_name, param, lo, hi", [
        ("paper", "theta", 0.0, 1.5),                 # balanced: the closed form
        ("weak_shaped", "t1", 2.3e-5, 2.5e-5),        # unbalanced: the branch overlap
    ])
    def test_counts_around_the_block(self, configs, config_name, param, lo, hi, count):
        cfg = configs[config_name][1]
        values = np.linspace(lo, hi, count)
        assert_table_bitwise(cli._sweep_rows(cfg, param, values, cli.OUTPUT_COLUMNS), cfg, param, values)

    def test_mixed_routes_straddle_the_block_edges(self, configs):
        # balanced points on both sides of both edges, so every block splits into both routes
        quarter = T3 / 4.0
        values = np.linspace(2.495e-5, 2.505e-5, 2 * B + 1)
        balanced = [0, 5, B - 2, B - 1, B, B + 1, 2 * B - 1, 2 * B]
        values[balanced] = quarter
        values[B + 1] = quarter * (1 + 1e-13)          # balanced within the tolerance
        cfg = configs["paper"][1]
        table = cli._sweep_rows(cfg, "t1", values, cli.OUTPUT_COLUMNS)
        assert_table_bitwise(table, cfg, "t1", values)
        unbalanced = np.ones(len(values), dtype=bool)
        unbalanced[balanced] = False
        assert (table[balanced, -1] == 1.0).all() and (table[unbalanced, -1] < 1.0).all()
        argv = ["--param", "t1", "--values", ",".join(map(repr, values.tolist()))]
        assert_matches_reference(configs, "paper", argv)

    @pytest.mark.parametrize("config_name, bad, message", [
        ("derived_nucleons", (1e-30, -1.0), "error: n_nucleons must be >= 1\n"),
        ("paper", (1e300, 1e301), "error: mass and trap_omega must give a packet width"),
    ])
    def test_bad_point_in_the_second_block(self, configs, config_name, bad, message):
        values = np.linspace(1.2e-17, 1.3e-17, B + 10)
        values[[B + 3, B + 7]] = bad
        argv = ["--param", "mass", "--values", ",".join(map(repr, values.tolist()))]
        assert_matches_reference(configs, config_name, argv)
        rc, out, err = run_cli(["sweep", "--config", configs[config_name][0], *argv])
        assert (rc, out) == (cli.EXIT_VALIDATION, "") and err.startswith(message)

    def test_replay_starts_at_the_failing_block(self, configs, monkeypatch):
        """The blocks before a bad point computed, so the point-by-point replay starts at
        the bad point's block: a bad point at B + 3 costs 4 scalar calls, not B + 4."""
        values = np.linspace(1.2e-17, 1.3e-17, B + 10)
        values[B + 3] = -1.0
        scalar_calls = []
        outputs = cli._sweep_outputs

        def counting(cfg, name, v):
            if np.ndim(v) == 0:
                scalar_calls.append(v)
            return outputs(cfg, name, v)

        monkeypatch.setattr(cli, "_sweep_outputs", counting)
        with pytest.raises(ValueError, match="mass must be > 0"):
            cli._sweep_rows(configs["paper"][1], "mass", values, cli.OUTPUT_COLUMNS)
        assert len(scalar_calls) <= B

    def test_replayed_rows_keep_the_table_bytes(self, configs, monkeypatch):
        """A block whose array call raises, though each of its points computes alone, is
        replayed from its start into the same table, and the document has the bytes of the
        table that no raise interrupts."""
        cfg = configs["paper"][1]
        values = np.linspace(0.0, 1.5, 2 * B + 5)
        header = ["param_value", *cli.OUTPUT_COLUMNS]
        table = cli._sweep_rows(cfg, "theta", values, cli.OUTPUT_COLUMNS)
        outputs = cli._sweep_outputs

        def second_block_raises(cfg, name, v):
            if np.ndim(v) and v[0] == values[B]:
                raise FloatingPointError("invalid value encountered in multiply")
            return outputs(cfg, name, v)

        monkeypatch.setattr(cli, "_sweep_outputs", second_block_raises)
        rows = cli._sweep_rows(cfg, "theta", values, cli.OUTPUT_COLUMNS)
        assert rows.shape == table.shape
        assert b"".join(csv_text(header, rows)) == b"".join(csv_text(header, table))
