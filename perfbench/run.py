"""End-to-end benchmark of the nanoramsey CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command runs the way a user runs it: one fresh interpreter per
command, one child at a time, from this single parent process (a closed
loop with one client). A child is ``perfbench/child.py``, which imports
``nanoramsey.cli`` from the checkout's ``src/`` and calls its ``main()``.

--trace 0 repeats rounds of the workload's commands until S seconds have
passed and prints the end-to-end metrics. --trace 1 runs one untraced and
one traced round of the workload (their wall-time difference is the
tracing overhead), then the fixed traced layer suite of workloads.py, and
prints the per-layer metrics; the spans go to .perfbench_work/.

Every output is checked (check.py). The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the line
before it is the run's detail record (environment, per-command-kind wall
times, failures).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import check
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
#: BLAS/OpenMP threads per child. One child runs at a time on a 2-core
#: machine shared with other jobs; one thread keeps the numbers steady, and
#: parent and change run under the same setting.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3        # import-only children per run, besides one warm-up
IMPORTTIME_PROBES = 3
RUN_BUDGET_S = 170.0    # hard stop for every child, so a run ends within 180 s


class RunAborted(RuntimeError):
    """A child overran the run's time budget or could not be spawned."""


class Runner:
    """Spawns children one at a time and records their stamps."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        for var in THREAD_VARS:
            self.env[var] = str(THREADS)
        self._serial = 0

    def spawn(self, argv: list[str], name: str) -> dict:
        """Run one child to completion; wall stamps, exit code and max-RSS."""
        out_path = self.work / f"{name}.out"
        err_path = self.work / f"{name}.err"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunAborted("run time budget exhausted")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise RunAborted(f"{name} overran the run time budget")
        return {"name": name, "t_spawn": t_spawn, "t_end": t_end, "rc": proc.returncode,
                "maxrss_mib": usage.ru_maxrss / 1024.0, "out": out_path, "err": err_path}

    def run_cli(self, cmd, trace: bool, run_id: str) -> dict:
        """One CLI invocation through child.py, with its stage stamps."""
        stamp = self.work / f"{run_id}.stamp.json"
        argv = [sys.executable, str(CHILD), str(stamp), "1" if trace else "0", run_id]
        inv = self.spawn(argv + (list(cmd.argv) if cmd else []), run_id)
        inv["cmd"] = cmd
        try:
            inv.update(json.loads(stamp.read_text(encoding="utf-8")))
        except (OSError, ValueError):
            inv["problems"] = ["child wrote no stamps; stderr: "
                               + inv["err"].read_text(errors="replace")[-500:]]
            return inv
        if Path(inv["module"]).resolve() != (ROOT / "src/nanoramsey/__init__.py").resolve():
            inv["problems"] = [f"imported nanoramsey from {inv['module']}, not the checkout"]
        inv["setup_s"] = inv["t_imported"] - inv["t_spawn"]
        return inv

    def probe(self) -> float:
        """Set-up time of one import-only child."""
        self._serial += 1
        inv = self.run_cli(None, False, f"probe-{self._serial}")
        if "problems" in inv:
            raise RunAborted("; ".join(inv["problems"]))
        return inv["setup_s"]

    def run_round(self, cmds, trace: bool, tag: str, goldens: dict) -> dict:
        """Run the commands in order, then check every output (outside the timing)."""
        invs = [self.run_cli(c, trace, f"{tag}-{c.name}") for c in cmds]
        info = {}
        for inv in invs:
            if "problems" not in inv:
                problems, found = check.check(inv["cmd"], inv["rc"], inv["out"].read_bytes(),
                                              goldens)
                inv["problems"] = problems
                info.update(found)
        return {"invocations": invs, "wall_s": invs[-1]["t_end"] - invs[0]["t_spawn"],
                "info": info}


def _compute_s(rnd) -> float:
    return sum(i["t_done"] - i["t_imported"] for i in rnd["invocations"] if "t_done" in i)


def _walls(rnd, key) -> dict:
    """Summed invocation wall time per ``key(command)`` in one round."""
    walls: dict[str, float] = {}
    for inv in rnd["invocations"]:
        k = key(inv["cmd"])
        walls[k] = walls.get(k, 0.0) + inv["t_end"] - inv["t_spawn"]
    return walls


def _median_walls(rounds, key) -> dict:
    per_round = [_walls(r, key) for r in rounds]
    return {k: statistics.median(w[k] for w in per_round) for k in per_round[0]}


def _failures(rounds) -> list[str]:
    return [f"{inv['name']}: {p}" for r in rounds for inv in r["invocations"]
            for p in inv["problems"]]


def _failed_count(rounds) -> int:
    return sum(1 for r in rounds for inv in r["invocations"] if inv["problems"])


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "thread_vars": list(THREAD_VARS),
        "machine": platform.machine(),
    }


# -- end-to-end run ----------------------------------------------------------------


def run_untraced(runner, cmds, seconds, goldens):
    runner.probe()                                  # warm-up: byte-compile, page cache
    setups = [runner.probe() for _ in range(SETUP_PROBES)]
    rounds = []
    t0 = time.monotonic()
    while not rounds or time.monotonic() - t0 < seconds:
        rounds.append(runner.run_round(cmds, False, f"r{len(rounds)}", goldens))
    setups += [i["setup_s"] for r in rounds for i in r["invocations"] if "setup_s" in i]
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "compute_s": (statistics.median(_compute_s(r) for r in rounds), "s"),
        "peak_rss_mib": (max(i["maxrss_mib"] for r in rounds for i in r["invocations"]), "MiB"),
    }
    detail = {"rounds": len(rounds), "setup_samples": len(setups),
              "per_kind_wall_s": _median_walls(rounds, lambda c: f"{c.kind}_s"),
              "per_command_wall_s": _median_walls(rounds, lambda c: c.name)}
    worst_phase = [r["info"]["oracle_phase_error_rad"] for r in rounds
                   if "oracle_phase_error_rad" in r["info"]]
    if worst_phase:
        detail["oracle_phase_error_rad"] = max(worst_phase)
    return rounds, metrics, detail


# -- traced run ---------------------------------------------------------------------


def _durations(trace, name):
    return [s["end"] - s["start"] for s in trace["spans"] if s["name"] == name]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _importtime_decoherence(runner) -> float:
    """Cumulative import time of nanoramsey.decoherence inside ``import nanoramsey.cli``."""
    argv = [sys.executable, "-X", "importtime", "-c", "import nanoramsey.cli"]
    inv = runner.spawn(argv, "importtime")
    for line in inv["err"].read_text().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "nanoramsey.decoherence":
            return int(parts[1]) / 1e6
    return 0.0      # the CLI no longer imports it up front


def layer_metrics(suite: dict, import_decoherence: float, overhead: float) -> dict:
    """Per-layer metrics from the traced suite, keyed by suite command name.

    A function or counter the program no longer has reads 0.
    """
    tr = {name: inv["trace"] for name, inv in suite.items()}
    certify, snaps, vis = tr["certify"], tr["snapshots"], tr["visibility"]
    theta, t1 = tr["sweep_theta"], tr["sweep_t1"]

    def agg(trace, name, field="total_s"):
        return trace["aggregates"].get(name, {}).get(field, 0)

    def counter(trace, name):
        return trace["counters"].get(name, 0)

    def dynamics_us(name):
        dyn = sum(v["self_s"] for k, v in tr[name]["aggregates"].items()
                  if k.startswith("dynamics."))
        return _ratio(dyn, suite[name]["cmd"].expect["count"]) * 1e6

    full_branches = [s["end"] - s["start"] for s in certify["spans"]
                     if s["name"] == "grid.evolve_branch_on_grid" and s["attrs"].get("full")]
    calls = counter(vis, "decoherence.rate_density_calls")
    return {
        "grid.strang_step_us": (_ratio(agg(certify, "grid.split_step_evolve", "self_s"),
                                       counter(certify, "grid.strang_steps")) * 1e6, "us"),
        "grid.branch_s": (_median(full_branches), "s"),
        "grid.oracle_compare_s": (_median(_durations(certify, "grid.oracle_compare")), "s"),
        "grid.snapshot_frames_s": (agg(snaps, "grid.snapshot_frames"), "s"),
        "grid.branch_evolutions.certify": (agg(certify, "grid.evolve_branch_on_grid", "calls"),
                                           "count"),
        "grid.branch_evolutions.snapshots": (agg(snaps, "grid.evolve_branch_on_grid", "calls"),
                                             "count"),
        "grid.segment_evolutions.certify": (agg(certify, "grid.split_step_evolve", "calls"),
                                            "count"),
        "decoherence.column_ms": (_median(_durations(
            vis, "decoherence.localization_rate_profile")) * 1e3, "ms"),
        "decoherence.surface_s": (agg(vis, "decoherence.visibility_surface"), "s"),
        "decoherence.rate_density_calls": (calls, "count"),
        "decoherence.rate_density_useful_ratio": (
            _ratio(counter(vis, "decoherence.rate_density_useful"), calls), "ratio"),
        "params.build_params_us": (_ratio(agg(theta, "params.build_params"),
                                          agg(theta, "params.build_params", "calls")) * 1e6,
                                   "us"),
        "dynamics.balanced_point_us": (dynamics_us("sweep_theta"), "us"),
        "dynamics.unbalanced_point_us": (dynamics_us("sweep_t1"), "us"),
        "io.csv_row_us": (_ratio(agg(theta, "io.csv_text"), counter(theta, "io.csv_rows"))
                          * 1e6, "us"),
        "io.json_row_us": (_ratio(agg(t1, "io.json_table"), counter(t1, "io.json_rows"))
                           * 1e6, "us"),
        "cli.import_s": (_median(i["t_imported"] - i["t_import"] for i in suite.values()), "s"),
        "cli.import_decoherence_s": (import_decoherence, "s"),
        "budget.report_us": (agg(tr["budget"], "budget.budget_report") * 1e6, "us"),
        "dicke.final_state_us": (agg(tr["dicke"], "dicke.collective_final_state") * 1e6, "us"),
        "trace.overhead_s": (overhead, "s"),
    }


def write_spans(path: Path, invocations) -> None:
    """One JSON line per span, aggregate and counter set, grouped by run id.

    Each invocation gets a root span (id 0, spawn to reap) that the child's
    top-level spans hang from; ``self_s`` is a span's duration minus the
    time its child spans cover.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for inv in invocations:
            trace = inv["trace"]
            run_id = trace["run_id"]
            top = sum(s["end"] - s["start"] for s in trace["spans"] if s["parent"] is None)
            root = {"run_id": run_id, "id": 0, "parent": None, "name": "process",
                    "start": inv["t_spawn"], "end": inv["t_end"],
                    "self_s": inv["t_end"] - inv["t_spawn"] - top,
                    "attrs": {"argv": list(inv["cmd"].argv)}}
            fh.write(json.dumps(root) + "\n")
            for span in trace["spans"]:
                rec = dict(span, run_id=run_id)
                if rec["parent"] is None:
                    rec["parent"] = 0
                fh.write(json.dumps(rec) + "\n")
            for name, agg in trace["aggregates"].items():
                fh.write(json.dumps({"run_id": run_id, "aggregate": name, **agg}) + "\n")
            fh.write(json.dumps({"run_id": run_id, "counters": trace["counters"]}) + "\n")


def run_traced(runner, cmds, goldens, work):
    runner.probe()                                  # warm-up
    untraced = runner.run_round(cmds, False, "untraced", goldens)
    traced = runner.run_round(cmds, True, "traced", goldens)
    suite_round = runner.run_round(workloads.TRACE_SUITE, True, "suite", goldens)
    rounds = [untraced, traced, suite_round]
    if _failures(rounds):
        return rounds, None, {}
    decoherence = statistics.median(_importtime_decoherence(runner)
                                    for _ in range(IMPORTTIME_PROBES))
    suite = {inv["cmd"].name: inv for inv in suite_round["invocations"]}
    metrics = layer_metrics(suite, decoherence, traced["wall_s"] - untraced["wall_s"])
    spans_path = work / "trace.jsonl"
    write_spans(spans_path, traced["invocations"] + suite_round["invocations"])
    sweep = suite["sweep_theta"]
    selftest = check.selftest(goldens, suite["certify"]["cmd"], sweep["cmd"],
                              sweep["out"].read_bytes())
    detail = {"spans_file": str(spans_path.relative_to(ROOT)),
              "wall_s_untraced": untraced["wall_s"], "wall_s_traced": traced["wall_s"],
              "checker_selftest": selftest or "pass",
              "tracer_gaps": {k: sum(i["trace"]["counters"].get(k, 0)
                                     for i in suite_round["invocations"])
                              for k in ("trace.missing_targets", "trace.hook_errors")}}
    if selftest:
        suite_round["invocations"][0]["problems"] = [f"checker self-test: {f}" for f in selftest]
    return rounds, metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "nanoramsey" / "cli.py").is_file():
        print(f"error: no nanoramsey sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    goldens = json.loads((BENCH_DIR / "goldens" / "goldens.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + RUN_BUDGET_S)
    cmds = workloads.commands(args.workload, args.seed)

    try:
        if args.trace:
            rounds, metrics, detail = run_traced(runner, cmds, goldens, work)
        else:
            rounds, metrics, detail = run_untraced(runner, cmds, args.seconds, goldens)
    except RunAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["invocations"]) for r in rounds)
    failed = _failed_count(rounds)
    if not failed:                  # keep the outputs only when they explain a failure
        for path in work.glob("*.out"):
            path.unlink()
    detail.update(workload=args.workload, seed=args.seed,
                  variant=workloads.variant(args.seed), trace=args.trace,
                  attempted=attempted, failed_share=failed / attempted,
                  failures=_failures(rounds)[:20], environment=environment())
    (work / "detail.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(detail))
    result = {
        "correct": failed == 0 and metrics is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (metrics or {}).items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
