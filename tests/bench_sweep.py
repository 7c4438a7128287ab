"""Layer benchmark of the sweep and surface paths, with pytest-benchmark.

Run from the repository root:

    PYTHONPATH=src python -m pytest tests/bench_sweep.py --benchmark-json=out.json

The default test run does not collect this file (its name does not match
``test_*.py``). The two sweep CLI cases are the ``sweep`` workload's commands
run in-process, output included; the library cases are a 1e6-point balanced
theta sweep through the closed forms and the t1 command's 20,000 points
through ``evolve_sequence`` and ``branch_overlap`` alone, and ``max_separation`` on one
``cli.SWEEP_BLOCK`` block of them; the surface case is the ``surface``
workload's large visibility table. The quadrature cases time one 1024-node
channel on 200 separations, the a-priori error bound of that channel alone
on the same separations, and the stored Gauss-Legendre rule the quadrature
loads, against computing it with ``leggauss``. The two visibility CLI cases
are the ``surface`` workload's commands in a fresh interpreter, and the two
fresh sweep cases are the ``sweep`` workload's; they also record the median
minor page faults and system CPU seconds per command in ``extra_info``; the
two in-process sweep cases record their median minor page faults there too. An
emitter change shows in the fresh sweep cases: the in-process io cases
below read the process's allocator state as much as the code. The io cases time the
emitters alone on the ``sweep`` workload's tables (the 30,000 x 4 theta CSV and the
20,000 x 5 t1 JSON), every piece read, since a document's pieces are made as they are
read; the float kernel, through the CSV of the theta table's 120,000 cells as one
column; and the ``oracle``
workload's 4-frame ``dump-snapshots`` JSON. The kernel cases time ``params.exp`` and
``params.atan2`` on the arguments they get on the t1 command's first block.
``BENCH_sweep.json`` keeps the measured trajectory of these cases.
"""
import resource
import statistics
from collections import deque
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from nanoramsey import cli, dynamics, params
from nanoramsey.decoherence import (
    _channel_rate,
    _log_error_bound,
    _stored_rule,
    _weighted_spectrum,
    default_model,
    visibility_surface,
)
from nanoramsey.dynamics import (
    PulseSequence,
    branch_overlap,
    evolve_sequence,
    gravitational_phase,
    initial_state,
    max_separation,
    ramsey_probability,
)
from nanoramsey.grid import snapshot_frames, snapshot_grid
from nanoramsey.io import csv_text, json_table
from nanoramsey.params import build_params, parse_config_text

CONFIG = "perfbench/configs/paper.cfg"
SNAPSHOT_CONFIG = "perfbench/configs/snapshot.cfg"


def _cli_sweep(minflt, out, *argv):
    """One in-process sweep command; appends its minor page faults."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(["sweep", "--config", CONFIG, *argv, "--out", str(out)]) == cli.EXIT_OK
    minflt.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)


def _bench_sweep(benchmark, *args):
    minflt = []
    benchmark.pedantic(_cli_sweep, args=(minflt, *args), rounds=5, iterations=1, warmup_rounds=1)
    # the warm-up round is counted too; the median ignores it
    benchmark.extra_info["median_minflt"] = statistics.median(minflt)


def test_sweep_theta_cli(benchmark, tmp_path):
    """Balanced closed form, 30,000 points, CSV."""
    _bench_sweep(benchmark, tmp_path / "theta.csv", "--param", "theta", "--start", "0.0", "--stop", "1.5",
                 "--count", "30000")


def test_sweep_t1_cli(benchmark, tmp_path):
    """Unbalanced evolve_sequence + branch_overlap, 20,000 points, JSON."""
    _bench_sweep(benchmark, tmp_path / "t1.json", "--param", "t1", "--start", "2.495e-05",
                 "--stop", "2.505e-05", "--count", "20000", "--format", "json")


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


def _library_unbalanced(params, seq):
    return branch_overlap(params, evolve_sequence(params, seq, initial_state()))


def test_library_unbalanced_20k(benchmark):
    """The overlap at the t1 command's 20,000 points, one broadcast call each."""
    cfg = dict(parse_config_text(Path(CONFIG).read_text()), t1=np.linspace(2.495e-05, 2.505e-05, 20_000))
    benchmark.pedantic(_library_unbalanced, args=(build_params(cfg), cli._sequence_from_config(cfg)),
                       rounds=30, iterations=1, warmup_rounds=2)


def test_max_separation_t1_block(benchmark):
    """The peak separation on the t1 command's first block (cli.SWEEP_BLOCK points)."""
    t1 = np.linspace(2.495e-05, 2.505e-05, 20_000)[:cli.SWEEP_BLOCK]
    cfg = dict(parse_config_text(Path(CONFIG).read_text()), t1=t1)
    benchmark.pedantic(max_separation, args=(build_params(cfg), cli._sequence_from_config(cfg)),
                       rounds=200, iterations=1, warmup_rounds=5)


@pytest.fixture(scope="module")
def t1_block_kernel_arguments():
    """The arguments of ``params.exp`` and ``params.atan2`` on the t1 command's first block
    (cli.SWEEP_BLOCK points), recorded from one pass of the sweep."""
    calls = {}
    with pytest.MonkeyPatch.context() as patched:
        for name in ("exp", "atan2"):
            kernel = getattr(params, name)
            def recorded(*args, _name=name, _kernel=kernel):
                calls[_name] = args
                return _kernel(*args)
            for module in (params, dynamics, cli):
                for attr, value in list(vars(module).items()):
                    if value is kernel:
                        patched.setattr(module, attr, recorded)
        cfg = parse_config_text(Path(CONFIG).read_text())
        cli._sweep_outputs(cfg, "t1", np.linspace(2.495e-05, 2.505e-05, 20_000)[:cli.SWEEP_BLOCK])
    return calls


@pytest.mark.parametrize("name", ["exp", "atan2"])
def test_kernel_t1_block(benchmark, t1_block_kernel_arguments, name):
    """``params.exp`` (the overlap's modulus) or ``params.atan2`` (its phase) on one
    cli.SWEEP_BLOCK block of the t1 command."""
    benchmark.pedantic(getattr(params, name), args=t1_block_kernel_arguments[name], rounds=200,
                       iterations=1, warmup_rounds=5)


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
    spectrum = _weighted_spectrum(channel, _stored_rule())
    benchmark.pedantic(_channel_rate, args=(spectrum, SEPARATIONS, work),
                       rounds=20, iterations=1, warmup_rounds=2)


def test_error_bound_200(benchmark, surface_inputs):
    """The (log) error bound of the same channel on the same 200 separations."""
    channel = next(ch for ch in default_model(surface_inputs[0], 900.0)
                   if ch.name == "thermal_emission")
    benchmark.pedantic(_log_error_bound, args=(channel, SEPARATIONS), rounds=200, iterations=1,
                       warmup_rounds=5)


def test_gauss_rule_1024(benchmark):
    """The stored 1024-node rule as the quadrature loads it on a cache miss."""
    benchmark.pedantic(_stored_rule.__wrapped__, rounds=20, iterations=1,
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


def test_cli_sweep_theta_30k(benchmark):
    """The 30,000-point ``theta`` sweep as CSV, interpreter start and import included."""
    _bench_cli(benchmark, "sweep", "--config", CONFIG, "--param", "theta", "--start", "0.0",
               "--stop", "1.5", "--count", "30000")


def test_cli_sweep_t1_20k_json(benchmark):
    """The 20,000-point ``t1`` sweep as JSON."""
    _bench_cli(benchmark, "sweep", "--config", CONFIG, "--param", "t1", "--start", "2.495e-05",
               "--stop", "2.505e-05", "--count", "20000", "--format", "json")


@pytest.fixture(scope="module")
def sweep_tables():
    """The sweep workload's two tables as (header, rows), computed once."""
    cfg = parse_config_text(Path(CONFIG).read_text())
    outputs = list(cli.OUTPUT_COLUMNS)
    theta = cli._sweep_rows(cfg, "theta", np.linspace(0.0, 1.5, 30_000), outputs[:3])
    t1 = cli._sweep_rows(cfg, "t1", np.linspace(2.495e-05, 2.505e-05, 20_000), outputs)
    return (["param_value", *outputs[:3]], theta), (["param_value", *outputs], t1)


def _read(emitter, *args):
    """Every piece of the document ``emitter`` makes: the pieces are made as they are read."""
    deque(emitter(*args), maxlen=0)


def test_io_csv_text_30k(benchmark, sweep_tables):
    """csv_text on the 30,000 x 4 theta table, every piece read."""
    benchmark.pedantic(_read, args=(csv_text, *sweep_tables[0]), rounds=10, iterations=1,
                       warmup_rounds=1)


def test_io_json_table_20k(benchmark, sweep_tables):
    """json_table on the 20,000 x 5 t1 table, every piece read."""
    header, rows = sweep_tables[1]
    benchmark.pedantic(_read, args=(json_table, header, rows, {"command": "sweep"}), rounds=10,
                       iterations=1, warmup_rounds=1)


def test_io_csv_column_120k(benchmark, sweep_tables):
    """The float kernel: csv_text of the theta table's 120,000 cells as one column, every
    piece read."""
    column = np.array(sweep_tables[0][1]).reshape(-1, 1)
    benchmark.pedantic(_read, args=(csv_text, ["v"], column), rounds=10, iterations=1,
                       warmup_rounds=1)


def test_io_snapshots_json_4_frames(benchmark):
    """The dump-snapshots JSON of 4 frames of 2048 points (24,576 cells)."""
    cfg = parse_config_text(Path(SNAPSHOT_CONFIG).read_text())
    params, seq = build_params(cfg), cli._sequence_from_config(cfg)
    frames = snapshot_frames(params, seq, [0.25, 0.5, 0.75, 1.0], snapshot_grid(params, seq))
    benchmark.pedantic(_read, args=(cli._snapshots_json, frames, {"command": "dump-snapshots"}),
                       rounds=10, iterations=1, warmup_rounds=1)
