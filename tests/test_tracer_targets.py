"""The benchmark's tracer still finds every layer it wraps.

``perfbench/tracer.py`` wraps package functions by module and attribute
name, and its hooks read their arguments by position. A renamed or deleted
function would only show up as ``trace.missing_targets`` in a traced
benchmark run, and a moved parameter as ``trace.hook_errors``; here both
fail the test suite instead. The tracer is loaded from its file and not
installed, so no package function is replaced.
"""
import importlib
import importlib.util
import inspect
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
