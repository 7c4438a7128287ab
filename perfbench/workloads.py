"""The commands each workload runs, built from the workload seed.

A command is one ``nanoramsey`` CLI invocation. Its ``check`` names the
output format the checker applies, ``expect`` carries what the invariant
checks need (row counts, axis endpoints), and ``kind`` is the command kind
whose wall time is reported on its own (certify, snapshots, sweep, ...).

The seed picks one of ``VARIANTS`` input variants. A variant shifts the
sweep endpoints and the visibility axis bounds; certify, dump-snapshots,
budget and dicke take no seed-dependent input. Every variant has goldens,
so every run is checked byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass, field

VARIANTS = 8
PAPER_CFG = "perfbench/configs/paper.cfg"
SNAPSHOT_CFG = "perfbench/configs/snapshot.cfg"
WORKLOADS = ("oracle", "sweep", "surface", "cold")


@dataclass(frozen=True)
class Command:
    name: str                # unique within its list, used for file names
    kind: str                # command kind whose wall time is reported
    argv: tuple[str, ...]    # arguments after ``nanoramsey``
    check: str               # output format, see check.py
    expect: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Golden key: the literal command line."""
        return " ".join(self.argv)


def variant(seed: int) -> int:
    return seed % VARIANTS


def _num(x: float) -> str:
    return repr(float(x))


def _sweep(name, param, start, stop, count, fmt="csv"):
    argv = ("sweep", "--config", PAPER_CFG, "--param", param,
            "--start", _num(start), "--stop", _num(stop), "--count", str(count))
    if fmt == "json":
        argv += ("--format", "json")
    return Command(name, "sweep", argv, f"sweep_{fmt}",
                   {"start": start, "stop": stop, "count": count})


def _visibility(name, v, dx_count=None, tint_count=None, fmt="csv"):
    dx_min, dx_max = 1.0e-9 * (1.0 + 0.1 * v), 1.0e-6 * (1.0 + 0.1 * v)
    tint_min, tint_max = 300.0 + 5.0 * v, 1500.0 + 5.0 * v
    argv = ("visibility", "--config", PAPER_CFG,
            "--dx-min", _num(dx_min), "--dx-max", _num(dx_max),
            "--tint-min", _num(tint_min), "--tint-max", _num(tint_max))
    if dx_count is not None:
        argv += ("--dx-count", str(dx_count), "--tint-count", str(tint_count))
    if fmt == "json":
        argv += ("--format", "json")
    return Command(name, "visibility", argv, f"visibility_{fmt}",
                   {"dx": (dx_min, dx_max, dx_count or 50),
                    "tint": (tint_min, tint_max, tint_count or 50)})


CERTIFY = Command("certify", "certify", ("certify",), "certify", {"runs": 3})


def _snapshots(name, fractions):
    argv = ("dump-snapshots", "--config", SNAPSHOT_CFG, "--format", "json",
            "--times", ",".join(fractions))
    return Command(name, "snapshots", argv, "snapshots",
                   {"frames": len(fractions), "points": 2048})


def _budget(name, fmt):
    argv = ("budget", "--config", PAPER_CFG)
    if fmt == "json":
        argv += ("--format", "json")
    return Command(name, "budget", argv, f"budget_{fmt}")


def _dicke(name, l, fmt):
    argv = ("dicke", "--config", PAPER_CFG, "--l", str(l))
    if fmt == "json":
        argv += ("--format", "json")
    return Command(name, "dicke", argv, f"dicke_{fmt}", {"rows": l + 1})


def commands(workload: str, seed: int) -> list[Command]:
    """The command list one round of ``workload`` runs, in order."""
    v = variant(seed)
    if workload == "oracle":
        return [CERTIFY, _snapshots("snapshots", ("0.25", "0.5", "0.75", "1.0"))]
    if workload == "sweep":
        return [
            _sweep("sweep_theta", "theta", 0.002 * v, 1.5 + 0.002 * v, 30000),
            _sweep("sweep_t1", "t1", 2.495e-5 + 1.1e-9 * v, 2.505e-5 + 1.1e-9 * v,
                   20000, fmt="json"),
        ]
    if workload == "surface":
        return [_visibility("visibility_large", v, 200, 100),
                _visibility("visibility_small", v, fmt="json")]
    if workload == "cold":
        return [
            _budget("budget_text", "text"),
            _budget("budget_json", "json"),
            _dicke("dicke_12", 12, "csv"),
            _dicke("dicke_30", 30, "json"),
            _sweep("sweep_50", "theta", 0.1 + 0.01 * v, 1.4 + 0.01 * v, 50),
        ]
    raise ValueError(f"unknown workload {workload!r}")


#: Fixed commands of the traced layer run: one per layer boundary the
#: per-layer metrics read. Seed-independent, so its counts repeat exactly.
TRACE_SUITE = [
    CERTIFY,
    _snapshots("snapshots", ("0.25", "0.5")),
    _visibility("visibility", 0),
    _sweep("sweep_theta", "theta", 0.0, 1.5, 2000),
    _sweep("sweep_t1", "t1", 2.495e-5, 2.505e-5, 2000, fmt="json"),
    _budget("budget", "text"),
    _dicke("dicke", 30, "json"),
]
