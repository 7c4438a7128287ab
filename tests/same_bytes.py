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

The script lists every command whose stdout sha256, stderr or exit code
differs between the trees, and exits 1 if there is one, else 0.

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


def run(tree: Path, argv: tuple[str, ...]) -> tuple[str, str, int]:
    """(stdout sha256, stderr, exit code) of one command on ``tree``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", MAIN, *argv], cwd=tree, env=env,
                          capture_output=True, stdin=subprocess.DEVNULL)
    return hashlib.sha256(proc.stdout).hexdigest(), proc.stderr.decode(errors="replace"), proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    commands = distinct_commands()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        trees = [archive(args.parent, Path(tmp) / "parent"), archive(args.change, Path(tmp) / "change")]
        for argv_ in commands:
            parent, change = (run(tree, argv_) for tree in trees)
            if parent != change:
                differ += 1
                print(f"DIFFERS: {' '.join(argv_)}")
                for name, a, b in zip(("stdout sha256", "stderr", "exit code"), parent, change):
                    if a != b:
                        print(f"  {name}: {a!r} -> {b!r}")
        for tree in trees:
            compiled = sorted(str(p) for p in (tree / "src").rglob("__pycache__"))
            if compiled:
                sys.exit(f"{tree}: bytecode written under src/: {compiled}")
    print(f"{len(commands)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
