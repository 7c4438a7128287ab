"""The benchmark's tracer still finds every layer it wraps.

``perfbench/tracer.py`` wraps package functions by module and attribute
name, and its hooks read their arguments by position. A renamed or deleted
function would only show up as ``trace.missing_targets`` in a traced
benchmark run, and a moved parameter as ``trace.hook_errors``; here both
fail the test suite instead. The tracer is loaded from its file and not
installed, so no package function is replaced; the one test that installs
it does so in a child interpreter.
"""
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
TARGETS = {name: (module, attr) for module, attr, name, _ in TRACER.TARGETS}


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module_name, attr", sorted(TARGETS.values()))
def test_target_resolves(module_name, attr):
    assert callable(_resolve(module_name, attr))


@pytest.mark.parametrize("name", sorted(TRACER.HOOKS))
def test_hook_parameters_lead_the_target(name):
    module_name, attr = TARGETS[name]
    target = list(inspect.signature(_resolve(module_name, attr)).parameters)
    hook = [p.name for p in inspect.signature(TRACER.HOOKS[name]).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD]
    assert hook[0] == "tracer"
    hook = hook[1:]
    if "." in attr:
        # a method: the hook takes the instance under its own name
        assert target[0] == "self"
        hook, target = hook[1:], target[1:]
    assert hook == target[:len(hook)]


#: installs the tracer, runs ``certify`` and prints the call count of each grid span
CERTIFY_UNDER_TRACER = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
from nanoramsey import cli
tracer = tracer_module.Tracer("certify")
tracer_module.install(tracer)
code = cli.main(["certify"])
record = tracer.dump()
calls = {name: agg["calls"] for name, agg in record["aggregates"].items() if name.startswith("grid.")}
print(json.dumps({"code": code, "calls": calls, "counters": record["counters"]}))
"""


def test_tracer_sees_certify():
    """Certify reaches the grid through the wrapped routines: one ``oracle_compare`` and
    one pair evolution per desk set, one segment evolution per segment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CERTIFY_UNDER_TRACER, str(TRACER_PATH)],
                          capture_output=True, text=True, env=env, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["calls"] == {"grid.oracle_compare": 3, "grid.evolve_branch_on_grid": 3,
                               "grid.split_step_evolve": 9}
    assert "trace.missing_targets" not in result["counters"]
    assert "trace.hook_errors" not in result["counters"]
