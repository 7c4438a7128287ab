"""Alternating A/B pairs of the end-to-end benchmark between two git revisions.

Run from the root of a checkout:

    python tests/ab_pairs.py PARENT CHANGE --workload sweep --pairs 10 --seed 1

Each revision is written with ``git archive`` into its own temporary
directory, so both sides run from their committed files alone. Pair i runs
``perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0`` once on
each tree, the parent first in even pairs and the change first in odd ones.
Every run has ``PYTHONDONTWRITEBYTECODE=1``, so each spawn compiles ``src/``
as the benchmark's own runs do; a ``__pycache__/`` under either ``src/``
stops the script. A run that is not ``correct`` or has a failed command
stops it too.

For each end-to-end metric of ``BENCHMARK.json`` the script prints the
median of each side, the interquartile range of the parent's runs and the
number of pairs in which the change is better. The default test run does
not collect this file (its name does not match ``test_*.py``).
"""
from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def archive(rev: str, dest: Path) -> Path:
    """The committed files of ``rev``, written under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, filter="data")
    return dest


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``--trace 0`` run on ``tree``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, env=env, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{tree}: seed {seed} not correct: {result}")
    compiled = sorted(str(p) for p in (tree / "src").rglob("__pycache__"))
    if compiled:
        sys.exit(f"{tree}: bytecode written under src/: {compiled}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: archive(rev, Path(tmp) / side)
                 for side, rev in (("parent", args.parent), ("change", args.change))}
        metrics = json.loads((trees["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed + i
            for side in ("parent", "change")[::1 if i % 2 == 0 else -1]:
                runs[side].append(run(trees[side], args.workload, seed, args.seconds))
            print(f"pair {i + 1} seed {seed}: " + "  ".join(
                f"{m['name']} {runs['parent'][-1][m['name']]:.4g} -> {runs['change'][-1][m['name']]:.4g}"
                for m in metrics), flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}")
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        print(f"{name:14s} parent {p_med:.5g}  change {c_med:.5g}  ({100 * (c_med / p_med - 1):+.1f}%)  "
              f"parent IQR {q3 - q1:.3g}  change better in {wins} of {len(parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
