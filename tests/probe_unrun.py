"""Statement-coverage probe: which ``src/`` statements no perfbench command runs.

Run from the repository root:

    PYTHONPATH=src python tests/probe_unrun.py

pytest does not collect this file (its name does not match ``test_*.py``).
It runs every distinct command of ``perfbench/workloads.py`` (each workload
over all input variants, plus the traced layer suite) in-process through
``nanoramsey.cli.main``, under the stdlib ``trace`` module, with the package
imported inside the trace so that its module-level statements count too.
It then prints each ``src/`` statement that never ran, and the counts, with
``raise`` statements counted apart from the rest. A statement is one node of
the syntax tree, docstrings excluded, so a call that spans several lines is
one statement. It ran if a line of it ran: for a compound statement (``if``,
``for``, ``def``, ...) a line of its header or decorators, or any statement of
its body.
"""
from __future__ import annotations

import ast
import contextlib
import functools
import importlib.util
import io
import sys
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nanoramsey"


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)   # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def distinct_commands() -> list[tuple[str, ...]]:
    """Every distinct argv the benchmark runs, in first-seen order."""
    wl = _workloads()
    seen = {}
    for workload in wl.WORKLOADS:
        for seed in range(wl.VARIANTS):
            for command in wl.commands(workload, seed):
                seen.setdefault(command.argv, None)
    for command in wl.TRACE_SUITE:
        seen.setdefault(command.argv, None)
    return list(seen)


def run_commands(commands) -> dict[tuple[str, ...], int]:
    """Import the CLI and run each command with its stdout discarded; the exit codes."""
    from nanoramsey import cli
    codes = {}
    for argv in commands:
        with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
            codes[argv] = cli.main(list(argv))
    return codes


def statements(tree):
    """(statement, the lines whose running shows that it ran), docstrings excluded."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        body = getattr(node, "body", None)
        if body:
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            yield node, range(first, max(node.lineno, body[0].lineno - 1) + 1)
        else:
            yield node, range(node.lineno, node.end_lineno + 1)


def unrun_statements(path: Path, ran_lines: set[int]) -> tuple[int, list[ast.stmt]]:
    """The number of statements in ``path``, and those none of whose lines ran."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    spans = dict(statements(tree))

    def ran(node):
        return any(line in ran_lines for line in spans[node]) or any(
            ran(child) for field in ("body", "orelse", "finalbody", "handlers")
            for child in getattr(node, field, ()) if child in spans)

    return len(spans), [node for node in spans if not ran(node)]


@functools.lru_cache(maxsize=None)
def in_src(filename: str) -> bool:
    return Path(filename).resolve().parent == SRC


class SrcTrace(trace.Trace):
    """Line counts of ``src/`` code alone. ``trace``'s own ``ignoredirs`` cannot do
    this: it caches its ignore verdict by module base name, so an ``__init__.py``
    ignored elsewhere would hide ``src/nanoramsey/__init__.py``."""

    def globaltrace_lt(self, frame, why, arg):
        return self.localtrace if why == "call" and in_src(frame.f_code.co_filename) else None


def main() -> int:
    commands = distinct_commands()
    if any(name == "nanoramsey" or name.startswith("nanoramsey.") for name in sys.modules):
        raise SystemExit("nanoramsey is already imported; its module-level lines would not count")
    tracer = SrcTrace(count=1, trace=0)
    codes = tracer.runfunc(run_commands, commands)
    ran = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(Path(filename).resolve(), set()).add(line)
    unrun, raises, total = [], 0, 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        count, nodes = unrun_statements(path, ran.get(path.resolve(), set()))
        total += count
        for node in sorted(nodes, key=lambda node: node.lineno):
            raises += isinstance(node, ast.Raise)
            unrun.append(f"{path.relative_to(ROOT)}:{node.lineno}: {source[node.lineno - 1].strip()}")
    print("\n".join(unrun))
    failed = {" ".join(argv): code for argv, code in codes.items() if code != 0}
    print(f"{len(commands)} commands ({len(failed)} with a nonzero exit: {failed}); "
          f"{total} statements in src/, {len(unrun)} never run: "
          f"{raises} raise, {len(unrun) - raises} other")
    return 0


if __name__ == "__main__":
    sys.exit(main())
