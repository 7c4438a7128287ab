"""Every public name and every defaulted parameter in the package is something a command runs.

A public module-level function or class that nothing in ``src/`` refers to
serves only the tests, and belongs in ``tests/oracles.py``. The benchmark's
tracer targets are the one exception: the tracer wraps them by name, so
they stay even where no command calls them. Likewise a defaulted parameter
that no call in ``src/`` passes is generality only the tests use; the
exceptions are the signatures the tracer's hooks bind to, and ``KEPT``. A
dataclass field that no code in ``src/`` reads, outside the class's own
``__post_init__``, is a stored copy of something else; the exceptions are in
``KEPT_FIELDS``. And each config key has one home object.
"""
import ast
import dataclasses
import importlib
import warnings
from pathlib import Path

import nanoramsey
from nanoramsey.params import KNOWN_CONFIG_KEYS, ExperimentParams
from test_tracer_targets import TRACER

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nanoramsey"


def _trees() -> dict[str, ast.Module]:
    """Each module of the package, by name, parsed."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded and attributes read anywhere in ``tree`` outside ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_name_is_used_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    targets = {(module, attr) for module, attr, *_ in TRACER.TARGETS}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if (f"nanoramsey.{module}", node.name) in targets:
                continue
            if not any(node.name in _references(other, skip=node) for other in trees.values()):
                unused.append(f"{module}.{node.name}")
    assert unused == []


#: Defaulted parameters that no call in src/ passes, by function, and why each stays.
KEPT = {
    "cli.main": ({"argv"}, "the argument list a caller runs in place of sys.argv, "
                           "as the benchmark's child does"),
    "dynamics.initial_state": ({"x0", "p0"}, "a thermal start off centre, the input of the "
                                            "paper's claim that the phase does not depend on it"),
    "grid.auto_grid": ({"spin_values", "center", "momentum"},
                       "sizes a grid for the spins and start that evolve_branch_on_grid's "
                       "hooked signature takes"),
    "grid.oracle_phase": ({"spec"}, "a tracer target, whose signature follows oracle_compare's"),
    "grid.desk_scale_params": ({"a_spin", "a_gravity", "tau_scaled", "omega", "mass"},
                               "certify passes the first three from CERTIFY_DESK by a star, which "
                               "this check cannot count; omega and mass rescale a set, and the "
                               "phase must not move with them"),
}


def _defaulted_parameters(module: str, tree: ast.Module):
    """(qualified name, function name, parameter, its place among a call's positional
    arguments, None if keyword-only) of every defaulted parameter of a function or of a
    method, whose first parameter (self or cls) a call does not pass."""
    functions = [(f"{module}.{node.name}", node, 0) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    functions += [(f"{module}.{cls.name}.{node.name}", node, 1) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for node in cls.body if isinstance(node, ast.FunctionDef)]
    for qualified, fn, bound in functions:
        positional = [*fn.args.posonlyargs, *fn.args.args]
        first = len(positional) - len(fn.args.defaults)
        for place, arg in enumerate(positional[first:], first - bound):
            yield qualified, fn.name, arg.arg, place
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield qualified, fn.name, arg.arg, None


def _calls(trees) -> dict[str, list[tuple[int, set]]]:
    """Each called name's calls: (positional arguments before any star, keyword names,
    None among them for a ``**`` splat). A method call counts under the method's name."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = [isinstance(arg, ast.Starred) for arg in node.args]
            positional = starred.index(True) if True in starred else len(starred)
            calls.setdefault(name, []).append((positional, {kw.arg for kw in node.keywords}))
    return calls


def test_every_defaulted_parameter_is_passed_in_src():
    trees = _trees()
    calls = _calls(trees.values())
    hooked = {f"{module.removeprefix('nanoramsey.')}.{attr}"
              for module, attr, span, _ in TRACER.TARGETS if span in TRACER.HOOKS}
    unpassed = {}
    for module, tree in trees.items():
        for qualified, fn, name, place in _defaulted_parameters(module, tree):
            if qualified in hooked:
                continue
            if not any((place is not None and positional > place) or name in keywords or None in keywords
                       for positional, keywords in calls.get(fn, ())):
                unpassed.setdefault(qualified, set()).add(name)
    assert unpassed == {fn: names for fn, (names, _) in KEPT.items()}


#: Dataclass fields that no code in src/ reads, by class, and why each stays.
KEPT_FIELDS = {
    "grid.OracleReport": ({"phase_residual"}, "grid phase minus closed form minus splitting phase: "
                                              "the oracle guard that the planned numerical-health "
                                              "record reports, and the tests assert"),
}


def _dataclass_fields(cls: ast.ClassDef) -> list[str]:
    """The fields of a class decorated with ``@dataclass`` or ``@dataclass(...)``."""
    if not any(getattr(getattr(dec, "func", dec), "id", None) == "dataclass" for dec in cls.decorator_list):
        return []
    return [node.target.id for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            and not ast.unparse(node.annotation).startswith(("ClassVar", "InitVar"))]


def _field_reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Attributes loaded, and ``getattr`` names given as literals, in ``tree`` outside ``skip``."""
    reads = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            reads.add(node.args[1].value)
        stack.extend(ast.iter_child_nodes(node))
    return reads


def test_every_dataclass_field_is_read_in_src():
    """A field that only its own ``__post_init__`` reads is a copy that nothing uses.
    A class whose method passes ``self`` to ``asdict`` reads every field it has."""
    trees = _trees()
    unread = {}
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            if any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "asdict"
                   and [ast.unparse(arg) for arg in node.args] == ["self"] for node in ast.walk(cls)):
                continue
            post_init = next((node for node in cls.body
                              if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"), None)
            reads = set().union(*(_field_reads(other, skip=post_init) for other in trees.values()))
            fields = {name for name in _dataclass_fields(cls) if name not in reads}
            if fields:
                unread[f"{module}.{cls.name}"] = fields
    assert unread == {cls: names for cls, (names, _) in KEPT_FIELDS.items()}


#: The config keys the pulse sequence is built from (``cli._sequence_from_config``).
SEQUENCE_INPUTS = {"t1", "t2", "t3", "jitter_t1", "jitter_t2", "jitter_t3"}


def test_every_config_key_has_one_home():
    """Each config key is held by exactly one object: a field of ``ExperimentParams``, an
    input of the ``PulseSequence``, or, for ``density`` and ``t_internal``, none, as each
    is checked but not stored. A key held twice is a copy that a caller can set apart from its original; a
    key held nowhere is read from the raw config, outside every check."""
    fields = {field.name for field in dataclasses.fields(ExperimentParams)}
    homes = {key: [home for home, keys in (("ExperimentParams", fields), ("PulseSequence", SEQUENCE_INPUTS),
                                           ("checked only", {"density", "t_internal"})) if key in keys]
             for key in KNOWN_CONFIG_KEYS}
    assert {key: held for key, held in homes.items() if len(held) != 1} == {}


def test_one_version_string():
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")        # [tool.setuptools] support is flagged as beta
        config = read_configuration(ROOT / "pyproject.toml")
    assert config["project"]["dynamic"] == ["version"]
    assert config["project"]["version"] == nanoramsey.__version__


def test_no_refusal_is_relabelled():
    """No ``except ... as exc`` handler raises an exception built from ``str(exc)``: a refusal
    reaches ``cli.main`` as the class that raised it, whose clause prints its text."""
    relabels = []
    for module, tree in _trees().items():
        for handler in (node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.name):
            for node in (n for stmt in handler.body for n in ast.walk(stmt)):
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and any(
                        ast.unparse(arg) == f"str({handler.name})" for arg in node.exc.args):
                    relabels.append(f"{module}.py:{node.lineno}")
    assert relabels == []


#: The ceilings ``io.SIZE_BUDGET`` sets, by module.
CEILINGS = {"cli": {"MAX_SWEEP_POINTS": 419430, "MAX_TEMPERATURES": 16384, "MAX_CELLS": 2097152,
                    "MAX_FRAME_POINTS": 1048576, "MAX_FRAMES": 512},
            "decoherence": {"MAX_SEPARATIONS": 16384}}


def test_one_size_budget():
    """The memory a command may commit is stated once, in ``io``, and every ceiling derives
    from it at its old value."""
    assigned = [module for module, tree in _trees().items() for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "SIZE_BUDGET" and isinstance(node.ctx, ast.Store)]
    assert assigned == ["io"]
    assert importlib.import_module("nanoramsey.io").SIZE_BUDGET == 256 << 20
    for module, ceilings in CEILINGS.items():
        loaded = importlib.import_module(f"nanoramsey.{module}")
        assert {name: getattr(loaded, name) for name in ceilings} == ceilings
