"""Record the goldens the checker compares against, at the current commit.

Usage (from the root of a checkout): python3 perfbench/record_goldens.py

Runs every command of every workload variant and of the traced suite once,
requires each output to pass the invariant checks, and writes
perfbench/goldens/goldens.json. Re-record only when a change of output is
intended; the benchmark then no longer guards the old bytes.
"""
from __future__ import annotations

import json
import sys
import time

import check
import workloads
from run import BENCH_DIR, ROOT, Runner


def main() -> int:
    cmds = {}
    for workload in workloads.WORKLOADS:
        for v in range(workloads.VARIANTS):
            for cmd in workloads.commands(workload, v):
                cmds.setdefault(cmd.key, cmd)
    for cmd in workloads.TRACE_SUITE:
        cmds.setdefault(cmd.key, cmd)

    work = ROOT / ".perfbench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    goldens = {}
    runner = Runner(work, time.monotonic() + 3600.0)
    for i, (key, cmd) in enumerate(sorted(cmds.items())):
        inv = runner.run_cli(cmd, False, f"golden-{i}")
        out = inv["out"].read_bytes()
        problems = inv.get("problems") or check.check(cmd, inv["rc"], out, {})[0]
        if problems:
            print(f"{key}: {problems}", file=sys.stderr)
            return 1
        goldens[key] = check.make_golden(cmd, out)
        print(f"recorded {key}", file=sys.stderr)
    path = BENCH_DIR / "goldens" / "goldens.json"
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
