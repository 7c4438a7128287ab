"""Layer benchmark of a CLI process's lifetime, with pytest-benchmark.

Run from the repository root:

    PYTHONPATH=src python -m pytest tests/bench_cli.py --benchmark-json=out.json

The default test run does not collect this file (its name does not match
``test_*.py``). Each case spawns one CLI command per round in a fresh
interpreter, as the benchmark's workloads do, and splits the spawn into four
phases. A stamping child takes ``time.monotonic()`` (system-wide) as its first
statement, after ``import nanoramsey.cli`` and after ``main()`` returns with
stdout flushed; the parent stamps the spawn and the reap (``os.wait4``). The
phases are start (spawn to the child's first statement: interpreter start-up
and ``site``), import, command (``main()``) and exit (``main()``'s return to
the reap: interpreter shutdown). Their medians over the rounds go to
``extra_info`` as ``<phase>_ms``, and every round's phases as ``samples_ms``,
so that runs can be pooled. No max-RSS is kept: on Linux the child's
``ru_maxrss`` also holds the high-water RSS of the spawning pytest process.
``BENCH_cli.json`` keeps the measured trajectory of these cases.
"""
import os
import statistics
import subprocess
import sys
import time

CHILD = """\
import time
t_start = time.monotonic()
import sys
import nanoramsey.cli
t_imported = time.monotonic()
rc = nanoramsey.cli.main(sys.argv[1:])
sys.stdout.flush()
t_done = time.monotonic()
sys.stderr.write(f"{t_start!r} {t_imported!r} {t_done!r}\\n")
sys.exit(rc)
"""
PHASES = ("start", "import", "command", "exit")
CONFIG = "perfbench/configs/paper.cfg"


def spawn_phases(argv):
    """One stamped spawn of ``nanoramsey argv``: the seconds of each phase."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, *argv], stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, status, _ = os.wait4(proc.pid, 0)
    t_reaped = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.returncode == 0, err
    t_start, t_imported, t_done = map(float, err.splitlines()[-1].split())
    stamps = (t_spawn, t_start, t_imported, t_done, t_reaped)
    return [b - a for a, b in zip(stamps, stamps[1:])]


def _phase_case(benchmark, argv, rounds):
    samples = []
    benchmark.pedantic(lambda: samples.append(spawn_phases(argv)), rounds=rounds,
                       iterations=1, warmup_rounds=1)
    by_phase = {phase: [1e3 * s[i] for s in samples[1:]]       # not the warm-up round
                for i, phase in enumerate(PHASES)}
    benchmark.extra_info.update({f"{phase}_ms": statistics.median(values)
                                 for phase, values in by_phase.items()})
    benchmark.extra_info["samples_ms"] = by_phase


def test_budget_phases(benchmark):
    """``budget`` as text on the benchmark's paper config, as the ``cold`` workload runs it."""
    _phase_case(benchmark, ["budget", "--config", CONFIG], rounds=30)


def test_certify_phases(benchmark):
    """``certify``: the three desk runs of the ``oracle`` workload."""
    _phase_case(benchmark, ["certify"], rounds=30)
