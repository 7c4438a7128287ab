"""Layer benchmark of the grid oracle, with pytest-benchmark.

Run from the repository root:

    PYTHONPATH=src python -m pytest tests/bench_grid.py --benchmark-json=out.json

The default test run does not collect this file (its name does not match
``test_*.py``). All cases run on the default desk-scale set, whose grid is
2048 points by 1200 Strang steps per segment. ``BENCH_grid.json`` keeps the
measured trajectory of these cases.
"""
from dataclasses import replace

import pytest

from nanoramsey import (
    auto_grid,
    desk_scale_params,
    evolve_branch_on_grid,
    oracle_compare,
    scale_params,
    snapshot_frames,
    split_step_evolve,
)


@pytest.fixture(scope="module")
def desk_grid():
    params, seq = desk_scale_params()
    scaled = scale_params(params, seq)
    return params, seq, scaled, auto_grid(scaled)


def test_strang_step(benchmark, desk_grid):
    """One fused Strang step of the (plus, minus) pair, with its two guards."""
    _, _, scaled, spec = desk_grid
    one_step = replace(spec, steps_per_segment=1)
    pair = evolve_branch_on_grid(scaled, one_step, (+1, -1), until=0.0)
    forces = (scaled.branch_accelerations((1,))[0], scaled.branch_accelerations((-1,))[0])
    dt = scaled.seg_times[0] / spec.steps_per_segment
    benchmark(split_step_evolve, pair, forces, dt, one_step)


def test_paired_evolution(benchmark, desk_grid):
    """Both branches through the whole flight: 2048 points, 3 x 1200 steps."""
    _, _, scaled, spec = desk_grid
    benchmark.pedantic(evolve_branch_on_grid, args=(scaled, spec, (+1, -1)),
                       rounds=5, iterations=1, warmup_rounds=1)


def test_oracle_compare(benchmark, desk_grid):
    params, seq, _, _ = desk_grid
    benchmark.pedantic(oracle_compare, args=(params, seq), rounds=5, iterations=1,
                       warmup_rounds=1)


def test_snapshot_frames(benchmark, desk_grid):
    """Four frames, at 0.25, 0.5, 0.75 and 1.0 of t3."""
    params, seq, _, _ = desk_grid
    benchmark.pedantic(snapshot_frames, args=(params, seq, [0.25, 0.5, 0.75, 1.0]),
                       rounds=5, iterations=1, warmup_rounds=1)
