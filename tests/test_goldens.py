"""The benchmark's goldens hold for the commands that run in-process quickly.

``perfbench/goldens/goldens.json`` pins the stdout bytes and exit code of
every command of every workload input variant, but only a benchmark run
compares them. Here every command of the ``sweep`` and ``cold`` workloads,
for all input variants, runs through ``cli.main`` from the repository root
and ``perfbench/check.py`` judges its output against its golden, so a changed
output byte fails the test suite. ``workloads.py`` and ``check.py`` are
loaded from their files; nothing under ``perfbench/`` is installed.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from nanoramsey import cli

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: the dataclasses of workloads.py look their module up
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
CHECK = _load("check")
GOLDENS = json.loads((BENCH_DIR / "goldens" / "goldens.json").read_text(encoding="utf-8"))
CASES = [pytest.param(cmd, id=f"{workload}-seed{seed}-{cmd.name}")
         for workload in ("sweep", "cold")
         for seed in range(WORKLOADS.VARIANTS)
         for cmd in WORKLOADS.commands(workload, seed)]


@pytest.mark.parametrize("cmd", CASES)
def test_command_matches_golden(cmd, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    rc = cli.main(list(cmd.argv))
    out = capsys.readouterr().out.encode("utf-8")
    problems, _ = CHECK.check(cmd, rc, out, GOLDENS)
    assert problems == []
