"""Spans and counters around the public functions of each nanoramsey layer.

The wrappers live here, in the benchmark, and are installed into an
already imported package; nothing in ``src/`` knows about them. A span
records name, start, end, parent span and run id (one run id per CLI
invocation), plus its self time: its duration minus the time its wrapped
children cover. Hot functions, called once per sweep point, are folded
into per-name aggregates (calls, total and self time) instead of one span
per call, which keeps the overhead and the trace file small.
"""
from __future__ import annotations

import importlib
import sys
import time

# (module, attribute, span name, hot)
TARGETS = (
    ("nanoramsey.cli", "main", "cli.main", False),
    ("nanoramsey.params", "parse_config_text", "params.parse_config_text", False),
    ("nanoramsey.params", "build_params", "params.build_params", True),
    ("nanoramsey.dynamics", "gravitational_phase", "dynamics.gravitational_phase", True),
    ("nanoramsey.dynamics", "initial_state", "dynamics.initial_state", True),
    ("nanoramsey.dynamics", "evolve_sequence", "dynamics.evolve_sequence", True),
    ("nanoramsey.dynamics", "branch_overlap", "dynamics.branch_overlap", True),
    ("nanoramsey.dynamics", "max_separation", "dynamics.max_separation", True),
    ("nanoramsey.dynamics", "ramsey_probability", "dynamics.ramsey_probability", True),
    ("nanoramsey.grid", "oracle_compare", "grid.oracle_compare", False),
    ("nanoramsey.grid", "oracle_phase", "grid.oracle_phase", False),
    ("nanoramsey.grid", "snapshot_frames", "grid.snapshot_frames", False),
    ("nanoramsey.grid", "evolve_branch_on_grid", "grid.evolve_branch_on_grid", False),
    ("nanoramsey.grid", "split_step_evolve", "grid.split_step_evolve", False),
    ("nanoramsey.decoherence", "visibility_surface", "decoherence.visibility_surface", False),
    ("nanoramsey.decoherence", "localization_rate_profile",
     "decoherence.localization_rate_profile", False),
    ("nanoramsey.decoherence", "BlackbodyChannel.rate_density", "decoherence.rate_density", False),
    ("nanoramsey.decoherence", "surface_to_csv", "decoherence.surface_to_csv", False),
    ("nanoramsey.decoherence", "surface_to_json", "decoherence.surface_to_json", False),
    ("nanoramsey.dicke", "collective_final_state", "dicke.collective_final_state", False),
    ("nanoramsey.dicke", "sector_table", "dicke.sector_table", False),
    ("nanoramsey.budget", "budget_report", "budget.budget_report", False),
    ("nanoramsey.io", "csv_text", "io.csv_text", False),
    ("nanoramsey.io", "json_table", "io.json_table", False),
)


class Tracer:
    """In-memory spans, aggregates and counters of one CLI invocation."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.aggregates: dict[str, list] = {}    # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []             # [span id, time covered by children]
        self._next_id = 1
        self._seen_densities: set = set()

    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def add_span(self, name: str, start: float, end: float, attrs=None):
        """Record a span timed by the caller, as a child of the open span."""
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans.append({"id": self._new_id(), "parent": parent, "name": name,
                           "start": start, "end": end, "self_s": end - start,
                           "attrs": attrs or {}})

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def wrap(self, fn, name: str, hot: bool, hook=None):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [self._new_id(), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_s = duration - frame[1]
                agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += duration
                agg[2] += self_s
                attrs = None
                if hook is not None:
                    try:
                        attrs = hook(self, *args, **kwargs)
                    except (TypeError, AttributeError):   # the signature moved on
                        self.count("trace.hook_errors")
                if not hot:
                    self.spans.append({"id": frame[0], "parent": parent, "name": name,
                                       "start": start, "end": end, "self_s": self_s,
                                       "attrs": attrs or {}})

        return traced

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "aggregates": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                           for k, v in self.aggregates.items()},
            "counters": self.counters,
        }


# -- counters taken at the boundaries ---------------------------------------------


def _strang_steps(tracer, psi, force, duration, spec):
    if duration > 0.0:
        tracer.count("grid.strang_steps", spec.steps_per_segment)
    return None


def _branch(tracer, scaled, spec, spin, center=0.0, momentum=0.0, until=None):
    return {"full": until is None}


def _rate_density(tracer, channel, omega):
    tracer.count("decoherence.rate_density_calls")
    key = (channel, omega.tobytes())
    if key not in tracer._seen_densities:
        tracer._seen_densities.add(key)
        tracer.count("decoherence.rate_density_useful")
    return None


def _rows(counter):
    def hook(tracer, header, rows, *rest, **kwargs):
        tracer.count(counter, len(rows))
        return None
    return hook


HOOKS = {
    "grid.split_step_evolve": _strang_steps,
    "grid.evolve_branch_on_grid": _branch,
    "decoherence.rate_density": _rate_density,
    "io.csv_text": _rows("io.csv_rows"),
    "io.json_table": _rows("io.json_rows"),
}


def install(tracer: Tracer):
    """Wrap every target in the package.

    Target modules are imported here, so a module the CLI imports lazily is
    wrapped before its first use. ``from .x import f`` copies the function
    into the importing module, so every ``nanoramsey`` module attribute
    bound to the original is replaced. A target that no longer exists is
    counted in ``trace.missing_targets`` and its metrics read 0.
    """
    owners = {}
    for module_name, *_ in TARGETS:
        try:
            owners[module_name] = importlib.import_module(module_name)
        except ImportError:
            owners[module_name] = None
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "nanoramsey" or n.startswith("nanoramsey."))]
    for module_name, attr, name, hot in TARGETS:
        owner = owners[module_name]
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, fn_name, None)
        if original is None:
            tracer.count("trace.missing_targets")
            continue
        wrapped = tracer.wrap(original, name, hot, HOOKS.get(name))
        if cls_path:
            setattr(owner, fn_name, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
