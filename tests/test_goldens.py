"""The benchmark's goldens hold for the commands that run in-process quickly.

``perfbench/goldens/goldens.json`` pins the stdout bytes and exit code of
every command of every workload input variant, but only a benchmark run
compares them. Here every command of the ``sweep`` and ``cold`` workloads
and the ``surface`` workload's JSON visibility, for all input variants, and
the ``oracle`` workload's commands and the ``surface`` workload's large
visibility for one variant run through ``cli.main`` from the repository root.
``perfbench/check.py`` judges each output against its golden, so a changed
output byte (or, for certify and dump-snapshots, a number beyond the
checker's tolerance) fails the test suite. ``workloads.py`` and ``check.py`` are
loaded from their files; nothing under ``perfbench/`` is installed.
"""
import json
from pathlib import Path

import pytest

from conftest import load_perfbench
from nanoramsey import cli

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = load_perfbench("workloads")
CHECK = load_perfbench("check")
GOLDENS = json.loads((BENCH_DIR / "goldens" / "goldens.json").read_text(encoding="utf-8"))
#: (workload, command names or None for all, seeds)
SELECTION = [
    ("sweep", None, range(WORKLOADS.VARIANTS)),
    ("cold", None, range(WORKLOADS.VARIANTS)),
    ("surface", {"visibility_small"}, range(WORKLOADS.VARIANTS)),
    ("surface", {"visibility_large"}, [0]),
    ("oracle", None, [0]),
]
CASES = [pytest.param(cmd, id=f"{workload}-seed{seed}-{cmd.name}")
         for workload, names, seeds in SELECTION
         for seed in seeds
         for cmd in WORKLOADS.commands(workload, seed)
         if names is None or cmd.name in names]


@pytest.mark.parametrize("cmd", CASES)
def test_command_matches_golden(cmd, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    rc = cli.main(list(cmd.argv))
    out = capsys.readouterr().out.encode("utf-8")
    problems, _ = CHECK.check(cmd, rc, out, GOLDENS)
    assert problems == []
