"""Layer benchmark of the sweep and surface paths, with pytest-benchmark.

Run from the repository root:

    PYTHONPATH=src python -m pytest tests/bench_sweep.py --benchmark-json=out.json

The default test run does not collect this file (its name does not match
``test_*.py``). The two sweep CLI cases are the ``sweep`` workload's commands
run in-process, output included; the library case is a 1e6-point balanced
theta sweep through the closed forms; the surface case is the ``surface``
workload's large visibility table. The quadrature cases time one 1024-node
channel on 200 separations and the Gauss-Legendre rule the quadrature loads,
against computing it with ``leggauss``. The two visibility CLI cases are the
``surface`` workload's commands in a fresh interpreter; they also record the
median minor page faults and system CPU seconds per command in
``extra_info``. ``BENCH_sweep.json`` keeps the measured trajectory of these
cases.
"""
import resource
import statistics
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from nanoramsey import (
    PulseSequence,
    build_params,
    cli,
    default_model_family,
    gravitational_phase,
    max_separation,
    ramsey_probability,
    visibility_surface,
)
from nanoramsey.decoherence import _channel_rate, _leggauss_cached
from nanoramsey.params import load_config

CONFIG = "perfbench/configs/paper.cfg"


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
    cfg = load_config(CONFIG)
    thetas = np.linspace(0.0, 1.5, 1_000_000)
    benchmark.pedantic(_library_sweep, args=(cfg, thetas), rounds=3, iterations=1,
                       warmup_rounds=1)


@pytest.fixture(scope="module")
def surface_inputs():
    cfg = load_config(CONFIG)
    params = build_params(cfg)
    family = default_model_family(params)
    return family, np.geomspace(1e-9, 1e-6, 200), np.linspace(300.0, 1500.0, 100), cfg["t3"]


def test_visibility_surface_200x100(benchmark, surface_inputs):
    """The 200 x 100 table: 100 columns, three blackbody channels each."""
    benchmark.pedantic(visibility_surface, args=surface_inputs, rounds=3, iterations=1,
                       warmup_rounds=1)


SEPARATIONS = np.geomspace(1e-9, 1e-6, 200)


def test_channel_rate_1024(benchmark, surface_inputs):
    """One thermal-emission channel (900 K) at 1024 nodes on 200 separations."""
    channel = next(ch for ch in surface_inputs[0](900.0).channels
                   if ch.name == "thermal_emission")
    benchmark.pedantic(_channel_rate, args=(channel, SEPARATIONS, 1024), rounds=20,
                       iterations=1, warmup_rounds=2)


def test_gauss_rule_1024(benchmark):
    """The 1024-node rule as the quadrature gets it on a cache miss."""
    benchmark.pedantic(_leggauss_cached.__wrapped__, args=(1024,), rounds=20, iterations=1,
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
