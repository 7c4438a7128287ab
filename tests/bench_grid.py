"""Layer benchmark of the grid oracle, with pytest-benchmark.

Run from the repository root:

    PYTHONPATH=src python -m pytest tests/bench_grid.py --benchmark-json=out.json

The default test run does not collect this file (its name does not match
``test_*.py``). The layer cases run on the default desk-scale set with the
library's own default grids: ``auto_grid`` sizes ``n_points`` from the peak
branch momentum (256 points here) with 1200 Strang steps per segment, and
``snapshot_frames`` runs on ``snapshot_grid``'s 2048 frame points with one
step per segment. Each segment is one closed-form propagator call, whatever
its step count.
``test_certify_sets`` makes the three ``oracle_compare`` calls that
``certify`` makes, one per desk set, in-process. The two end-to-end cases
run a CLI command in a fresh interpreter, as the benchmark's ``oracle``
workload does. ``BENCH_grid.json`` keeps the measured trajectory of these
cases.
"""
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from nanoramsey.grid import (
    CERTIFY_DESK,
    auto_grid,
    desk_scale_params,
    evolve_branch_on_grid,
    oracle_compare,
    scale_params,
    snapshot_frames,
    snapshot_grid,
    split_step_evolve,
)


@pytest.fixture(scope="module")
def desk_grid():
    params, seq = desk_scale_params()
    scaled = scale_params(params, seq)
    return params, seq, scaled, auto_grid(scaled)


def test_strang_step(benchmark, desk_grid):
    """One one-step segment of the (plus, minus) pair, with its entry guard."""
    _, _, scaled, spec = desk_grid
    one_step = replace(spec, steps_per_segment=1)
    pair = evolve_branch_on_grid(scaled, one_step, (+1, -1), until=0.0)
    forces = (scaled.branch_accelerations((1,))[0], scaled.branch_accelerations((-1,))[0])
    dt = scaled.seg_times[0] / spec.steps_per_segment
    benchmark(split_step_evolve, pair, forces, dt, one_step)


def test_paired_evolution(benchmark, desk_grid):
    """Both branches through the whole flight: default points, 3 x 1200 steps."""
    _, _, scaled, spec = desk_grid
    benchmark.pedantic(evolve_branch_on_grid, args=(scaled, spec, (+1, -1)),
                       rounds=5, iterations=1, warmup_rounds=1)


def test_certify_sets(benchmark):
    """The three ``oracle_compare`` calls of ``certify``, one per desk set."""
    desk_sets = [desk_scale_params(*desk_set) for desk_set in CERTIFY_DESK.values()]
    benchmark.pedantic(lambda: [oracle_compare(params, seq) for params, seq in desk_sets],
                       rounds=5, iterations=1, warmup_rounds=1)


def test_oracle_compare(benchmark, desk_grid):
    params, seq, _, _ = desk_grid
    benchmark.pedantic(oracle_compare, args=(params, seq), rounds=5, iterations=1,
                       warmup_rounds=1)


def test_snapshot_frames(benchmark, desk_grid):
    """Four frames, at 0.25, 0.5, 0.75 and 1.0 of t3, on the grid sized for them."""
    params, seq, _, _ = desk_grid
    benchmark.pedantic(lambda: snapshot_frames(params, seq, [0.25, 0.5, 0.75, 1.0], snapshot_grid(params, seq)),
                       rounds=5, iterations=1, warmup_rounds=1)


SNAPSHOT_CFG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "snapshot.cfg"


def _cli(*argv):
    subprocess.run([sys.executable, "-m", "nanoramsey.cli", *argv], check=True,
                   stdout=subprocess.DEVNULL)


def test_cli_certify(benchmark):
    """``certify``: the three desk runs, interpreter start and import included."""
    benchmark.pedantic(_cli, args=("certify",), rounds=5, iterations=1, warmup_rounds=1)


def test_cli_dump_snapshots(benchmark):
    """``dump-snapshots`` of the benchmark's snapshot set, four frames as JSON."""
    benchmark.pedantic(_cli, args=("dump-snapshots", "--config", str(SNAPSHOT_CFG), "--format",
                                   "json", "--times", "0.25,0.5,0.75,1.0"),
                       rounds=5, iterations=1, warmup_rounds=1)
