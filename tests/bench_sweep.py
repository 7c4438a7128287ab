"""Layer benchmark of the sweep and surface paths, with pytest-benchmark.

Run from the repository root:

    PYTHONPATH=src python -m pytest tests/bench_sweep.py --benchmark-json=out.json

The default test run does not collect this file (its name does not match
``test_*.py``). The two sweep CLI cases are the ``sweep`` workload's commands
run in-process, output included; the library case is a 1e6-point balanced
theta sweep through the closed forms; the surface case is the ``surface``
workload's large visibility table. The quadrature cases time one 1024-node
channel on 200 separations, the a-priori error bound of that channel alone
on the same separations, and the stored Gauss-Legendre rule the quadrature
loads, against computing it with ``leggauss``. The two visibility CLI cases
are the ``surface`` workload's commands in a fresh interpreter; they also
record the median minor page faults and system CPU seconds per command in
``extra_info``. The io cases time the emitters alone on the ``sweep``
workload's tables (the 30,000 x 4 theta CSV and the 20,000 x 5 t1 JSON), the
float kernel on the theta table's 120,000 cells, and the ``oracle``
workload's 4-frame ``dump-snapshots`` JSON. ``BENCH_sweep.json`` keeps the
measured trajectory of these cases.
"""
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from nanoramsey import cli
from nanoramsey.decoherence import (
    _channel_rate,
    _error_bound,
    _stored_rule,
    _weighted_spectrum,
    default_model,
    visibility_surface,
)
from nanoramsey.dynamics import (
    PulseSequence,
    gravitational_phase,
    max_separation,
    ramsey_probability,
)
from nanoramsey.grid import snapshot_frames
from nanoramsey.io import csv_text, float_cells, json_table
from nanoramsey.params import build_params, parse_config_text

CONFIG = "perfbench/configs/paper.cfg"
SNAPSHOT_CONFIG = "perfbench/configs/snapshot.cfg"


def _cli_sweep(out, *argv):
    assert cli.main(["sweep", "--config", CONFIG, *argv, "--out", str(out)]) == cli.EXIT_OK


def test_sweep_theta_cli(benchmark, tmp_path):
    """Balanced closed form, 30,000 points, CSV."""
    benchmark.pedantic(_cli_sweep, args=(tmp_path / "theta.csv", "--param", "theta",
                                         "--start", "0.0", "--stop", "1.5", "--count", "30000"),
                       rounds=5, iterations=1, warmup_rounds=1)


def test_sweep_t1_cli(benchmark, tmp_path):
    """Unbalanced evolve_sequence + branch_overlap, 20,000 points, JSON."""
    benchmark.pedantic(_cli_sweep, args=(tmp_path / "t1.json", "--param", "t1",
                                         "--start", "2.495e-05", "--stop", "2.505e-05",
                                         "--count", "20000", "--format", "json"),
                       rounds=5, iterations=1, warmup_rounds=1)


def _library_sweep(cfg, thetas):
    params = build_params(dict(cfg, theta=thetas))
    seq = PulseSequence.balanced(cfg["t3"])
    phi = gravitational_phase(params, seq)
    return phi, ramsey_probability(phi), max_separation(params, seq)


def test_library_sweep_1e6(benchmark):
    """phi_g, P0 and the peak separation at 1e6 tilts, one broadcast call each."""
    cfg = parse_config_text(Path(CONFIG).read_text())
    thetas = np.linspace(0.0, 1.5, 1_000_000)
    benchmark.pedantic(_library_sweep, args=(cfg, thetas), rounds=3, iterations=1,
                       warmup_rounds=1)


@pytest.fixture(scope="module")
def surface_inputs():
    cfg = parse_config_text(Path(CONFIG).read_text())
    params = build_params(cfg)
    return params, np.geomspace(1e-9, 1e-6, 200), np.linspace(300.0, 1500.0, 100), cfg["t3"]


def test_visibility_surface_200x100(benchmark, surface_inputs):
    """The 200 x 100 table: 100 columns, three blackbody channels each."""
    benchmark.pedantic(visibility_surface, args=surface_inputs, rounds=3, iterations=1,
                       warmup_rounds=1)


SEPARATIONS = np.geomspace(1e-9, 1e-6, 200)


def test_channel_rate_1024(benchmark, surface_inputs):
    """One thermal-emission channel (900 K) at 1024 nodes on 200 separations: the kick
    matrix and its product, on the weighted spectrum evaluated beforehand."""
    channel = next(ch for ch in default_model(surface_inputs[0], 900.0)
                   if ch.name == "thermal_emission")
    work = np.empty(SEPARATIONS.size * 1024)
    spectrum = _weighted_spectrum(channel, _stored_rule(1024))
    benchmark.pedantic(_channel_rate, args=(spectrum, SEPARATIONS, work),
                       rounds=20, iterations=1, warmup_rounds=2)


def test_error_bound_200(benchmark, surface_inputs):
    """The error bound of the same channel on the same 200 separations."""
    channel = next(ch for ch in default_model(surface_inputs[0], 900.0)
                   if ch.name == "thermal_emission")
    benchmark.pedantic(_error_bound, args=(channel, SEPARATIONS, 1024), rounds=200, iterations=1,
                       warmup_rounds=5)


def test_gauss_rule_1024(benchmark):
    """The stored 1024-node rule as the quadrature loads it on a cache miss."""
    benchmark.pedantic(_stored_rule.__wrapped__, args=(1024,), rounds=20, iterations=1,
                       warmup_rounds=2)


def test_leggauss_1024(benchmark):
    """numpy's leggauss(1024): a dense symmetric eigenvalue problem."""
    benchmark.pedantic(leggauss, args=(1024,), rounds=10, iterations=1, warmup_rounds=1)


def _cli_counted(counters, *argv):
    """One fresh-interpreter CLI run; appends its minor faults and system time."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-m", "nanoramsey.cli", *argv], check=True,
                   stdout=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    counters["minflt"].append(after.ru_minflt - before.ru_minflt)
    counters["sys_s"].append(after.ru_stime - before.ru_stime)


def _bench_cli(benchmark, *argv):
    counters = {"minflt": [], "sys_s": []}
    benchmark.pedantic(_cli_counted, args=(counters, *argv), rounds=6, iterations=1,
                       warmup_rounds=1)
    # the warm-up round is counted too; the median ignores it
    benchmark.extra_info["median_minflt"] = statistics.median(counters["minflt"])
    benchmark.extra_info["median_sys_s"] = statistics.median(counters["sys_s"])


def test_cli_visibility_200x100(benchmark):
    """``visibility`` on 200 x 100 as CSV, interpreter start and import included."""
    _bench_cli(benchmark, "visibility", "--config", CONFIG, "--dx-count", "200",
               "--tint-count", "100")


def test_cli_visibility_50x50_json(benchmark):
    """``visibility`` at the default 50 x 50 as JSON."""
    _bench_cli(benchmark, "visibility", "--config", CONFIG, "--format", "json")


@pytest.fixture(scope="module")
def sweep_tables():
    """The sweep workload's two tables as (header, rows), computed once."""
    cfg = parse_config_text(Path(CONFIG).read_text())
    outputs = list(cli.OUTPUT_COLUMNS)
    theta = cli._sweep_rows(cfg, "theta", np.linspace(0.0, 1.5, 30_000), outputs[:3])
    t1 = cli._sweep_rows(cfg, "t1", np.linspace(2.495e-05, 2.505e-05, 20_000), outputs)
    return (["param_value", *outputs[:3]], theta), (["param_value", *outputs], t1)


def test_io_csv_text_30k(benchmark, sweep_tables):
    """csv_text on the 30,000 x 4 theta table."""
    benchmark.pedantic(csv_text, args=sweep_tables[0], rounds=10, iterations=1,
                       warmup_rounds=1)


def test_io_json_table_20k(benchmark, sweep_tables):
    """json_table on the 20,000 x 5 t1 table."""
    header, rows = sweep_tables[1]
    benchmark.pedantic(json_table, args=(header, rows, {"command": "sweep"}), rounds=10,
                       iterations=1, warmup_rounds=1)


def test_io_float_cells_120k(benchmark, sweep_tables):
    """The float kernel on the theta table's 120,000 cells."""
    values = np.array(sweep_tables[0][1]).ravel()
    benchmark.pedantic(float_cells, args=(values,), rounds=10, iterations=1, warmup_rounds=1)


def test_io_snapshots_json_4_frames(benchmark):
    """The dump-snapshots JSON of 4 frames of 2048 points (24,576 cells)."""
    cfg = parse_config_text(Path(SNAPSHOT_CONFIG).read_text())
    frames = snapshot_frames(build_params(cfg), cli._sequence_from_config(cfg),
                             [0.25, 0.5, 0.75, 1.0])
    benchmark.pedantic(cli._snapshots_json, args=(frames, {"command": "dump-snapshots"}),
                       rounds=10, iterations=1, warmup_rounds=1)
