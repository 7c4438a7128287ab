"""Layer benchmark of the sweep and surface paths, with pytest-benchmark.

Run from the repository root:

    PYTHONPATH=src python -m pytest tests/bench_sweep.py --benchmark-json=out.json

The default test run does not collect this file (its name does not match
``test_*.py``). The two CLI cases are the ``sweep`` workload's commands run
in-process, output included; the library case is a 1e6-point balanced theta
sweep through the closed forms; the surface case is the ``surface``
workload's large visibility table. ``BENCH_sweep.json`` keeps the measured
trajectory of these cases.
"""
import numpy as np
import pytest

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
