"""Alternating A/B pairs of the end-to-end benchmark between two git revisions.

Run from the root of a checkout:

    python tests/ab_pairs.py PARENT CHANGE --workload sweep,oracle,surface,cold --pairs 10 --seed 1

Each revision is written with ``git archive`` into its own temporary
directory, so both sides run from their committed files alone. Pair i runs
``perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0`` once on
each tree for each listed workload W in turn, the parent first in even pairs
and the change first in odd ones.
Every run has ``PYTHONDONTWRITEBYTECODE=1``, so each spawn compiles ``src/``
as the benchmark's own runs do; a ``__pycache__/`` under either ``src/``
stops the script. A run that is not ``correct`` or has a failed command
stops it too.

For each workload and each end-to-end metric of ``BENCHMARK.json``, one row
gives the median of each side, the interquartile range of the parent's runs,
the number of pairs in which the change is better, and a verdict:

- ``WORSE``: the change's median is worse than the parent's by more than the
  metric's ``bound`` (a fraction of the parent's median);
- ``unresolved``: not ``WORSE``, but the parent's interquartile range is wider
  than the bound and some run of the change is no better than some run of the
  parent, so the runs cannot show the metric within its bound;
- ``gain``: the change is better in at least nine tenths of the pairs and the
  medians differ by more than the parent's interquartile range;
- ``ok`` otherwise.

The default test run does not collect this file (its name does not match
``test_*.py``).
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


def verdict(parent: list[float], change: list[float], bound: float, sign: int) -> tuple[str, int, float]:
    """(verdict, wins of the change, parent IQR) of one metric; ``sign`` is 1 when lower is better."""
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "WORSE", wins, q3 - q1
    if q3 - q1 > bound * abs(p_med) and max(sign * c for c in change) >= min(sign * p for p in parent):
        return "unresolved", wins, q3 - q1
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > q3 - q1:
        return "gain", wins, q3 - q1
    return "ok", wins, q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, help="a workload, or a comma list of them")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    workloads = [w.strip() for w in args.workload.split(",") if w.strip()]

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: archive(rev, Path(tmp) / side)
                 for side, rev in (("parent", args.parent), ("change", args.change))}
        metrics = json.loads((trees["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
        runs = {(w, side): [] for w in workloads for side in ("parent", "change")}
        for i in range(args.pairs):
            seed = args.seed + i
            for w in workloads:
                for side in ("parent", "change")[::1 if i % 2 == 0 else -1]:
                    runs[w, side].append(run(trees[side], w, seed, args.seconds))
                print(f"pair {i + 1} seed {seed} {w}: " + "  ".join(
                    f"{m['name']} {runs[w, 'parent'][-1][m['name']]:.4g} -> {runs[w, 'change'][-1][m['name']]:.4g}"
                    for m in metrics), flush=True)

    print(f"\n{args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}")
    for w in workloads:
        for m in metrics:
            name, sign = m["name"], 1 if m["better"] == "lower" else -1
            parent = [r[name] for r in runs[w, "parent"]]
            change = [r[name] for r in runs[w, "change"]]
            flag, wins, iqr = verdict(parent, change, m["bound"], sign)
            p_med, c_med = statistics.median(parent), statistics.median(change)
            print(f"{w:8s} {name:14s} parent {p_med:.5g}  change {c_med:.5g}  "
                  f"({100 * (c_med / p_med - 1):+.1f}%, bound {100 * m['bound']:.0f}%)  parent IQR {iqr:.3g}  "
                  f"change better in {wins} of {len(parent)}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
