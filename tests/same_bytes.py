"""Whether two git revisions print the same bytes on every command the benchmark runs.

Run from the root of a checkout:

    python tests/same_bytes.py PARENT CHANGE

Each revision is written with ``git archive`` into its own temporary
directory, as ``tests/ab_pairs.py`` writes them, so both sides run from their
committed files alone. Every distinct command of the checkout's ``perfbench/workloads.py``
(each workload over all input variants, plus the traced layer suite: 50
commands) runs once on each tree, in a fresh interpreter with
``PYTHONDONTWRITEBYTECODE=1`` and the tree's ``src/`` on ``PYTHONPATH``. A
``__pycache__/`` under either ``src/`` stops the script.

Then ``budget`` runs on each tree over ``FAULTS``: one-fault variants of the
checkout's ``perfbench/configs/paper.cfg``, written into the temporary
directory, each of which the parent must refuse, and ``REFUSALS`` runs one
refusal of every other command on a perfbench config. So the bytes of the
refusals, stderr and exit code, are compared as well as stdout.

The script lists every command whose stdout sha256, stderr or exit code
differs between the trees, and every fault the parent does not refuse, and
exits 1 if there is one, else 0.

The default test run does not collect this file (its name does not match
``test_*.py``).
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_pairs import archive
from probe_unrun import distinct_commands

MAIN = "import sys; from nanoramsey.cli import main; sys.exit(main(sys.argv[1:]))"

#: One-fault variants of paper.cfg, as (name, key, value): the key's line dropped when the
#: value is None, else set to the value, or added when paper.cfg has no such key.
FAULTS = (
    *((f"no-{key}", key, None) for key in ("mass", "b_gradient", "theta", "t3", "trap_omega", "mw_frequency",
                                           "pulse_duration", "t_internal", "t_environment", "t_cm")),
    *((f"negative-{key}", key, "-1") for key in ("t_internal", "t_environment", "t_cm")),
    ("theta-2", "theta", "2"),
    ("mass-0", "mass", "0"),
    ("unknown-key", "colour", "1"),
)


#: One refusal of each command but budget, which ``FAULTS`` covers, as its argv: each exits
#: non-zero at the parent. The ``sweep --param`` key list is pinned by ``tests/test_cli.py``.
REFUSALS = (
    ("certify", "--config", "perfbench/configs/paper.cfg"),
    ("visibility", "--config", "perfbench/configs/paper.cfg", "--dx-min", "-1"),
    ("dump-snapshots", "--config", "perfbench/configs/snapshot.cfg", "--times", "2", "--format", "json"),
    ("dicke", "--config", "perfbench/configs/paper.cfg", "--l", "0"),
    ("sweep", "--config", "perfbench/configs/paper.cfg", "--param", "theta"),
)


def fault_config(text: str, key: str, value: str | None) -> str:
    """``text`` with the line of ``key`` dropped, and ``key = value`` appended unless
    ``value`` is None."""
    lines = [line for line in text.splitlines() if line.partition("=")[0].strip() != key]
    return "\n".join(lines + ([] if value is None else [f"{key} = {value}"])) + "\n"


def run(tree: Path, argv: tuple[str, ...]) -> tuple[str, str, int]:
    """(stdout sha256, stderr, exit code) of one command on ``tree``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", MAIN, *argv], cwd=tree, env=env,
                          capture_output=True, stdin=subprocess.DEVNULL)
    return hashlib.sha256(proc.stdout).hexdigest(), proc.stderr.decode(errors="replace"), proc.returncode


def compare(trees, argv: tuple[str, ...]) -> tuple[bool, int]:
    """(whether the trees differ on ``argv``, which is printed if they do; the parent's exit code)."""
    parent, change = (run(tree, argv) for tree in trees)
    if parent != change:
        print(f"DIFFERS: {' '.join(argv)}")
        for name, a, b in zip(("stdout sha256", "stderr", "exit code"), parent, change):
            if a != b:
                print(f"  {name}: {a!r} -> {b!r}")
    return parent != change, parent[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    commands = distinct_commands()
    paper = Path("perfbench/configs/paper.cfg").read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        trees = [archive(args.parent, Path(tmp) / "parent"), archive(args.change, Path(tmp) / "change")]
        differ = sum(compare(trees, argv_)[0] for argv_ in commands)
        refusals = {" ".join(argv): argv for argv in REFUSALS}
        for name, key, value in FAULTS:
            config = Path(tmp) / f"{name}.cfg"
            config.write_text(fault_config(paper, key, value), encoding="utf-8")
            refusals[name] = ("budget", "--config", str(config))
        refusals_differ = unrefused = 0
        for name, argv in refusals.items():
            differs, code = compare(trees, argv)
            refusals_differ += differs
            if code == 0:
                unrefused += 1
                print(f"NOT REFUSED: {name}")
        for tree in trees:
            compiled = sorted(str(p) for p in (tree / "src").rglob("__pycache__"))
            if compiled:
                sys.exit(f"{tree}: bytecode written under src/: {compiled}")
    print(f"{len(commands)} commands, {differ} differ; {len(refusals)} refusals, {refusals_differ} differ, "
          f"{unrefused} not refused")
    return 1 if differ or refusals_differ or unrefused else 0


if __name__ == "__main__":
    sys.exit(main())
