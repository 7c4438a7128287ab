"""Every public name in the package is something a command runs.

A public module-level function or class that nothing in ``src/`` refers to
serves only the tests, and belongs in ``tests/oracles.py``. The benchmark's
tracer targets are the one exception: the tracer wraps them by name, so
they stay even where no command calls them.
"""
import ast
import warnings
from pathlib import Path

import nanoramsey
from test_tracer_targets import TRACER

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nanoramsey"


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


def test_one_version_string():
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")        # [tool.setuptools] support is flagged as beta
        config = read_configuration(ROOT / "pyproject.toml")
    assert config["project"]["dynamic"] == ["version"]
    assert config["project"]["version"] == nanoramsey.__version__
