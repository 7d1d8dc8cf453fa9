"""Every name a qgrass module exports in __all__ exists in that module, and
every definition in the package is used somewhere in it.

A deletion that leaves its name in __all__ breaks `from qgrass.x import *`
and misleads readers of the export list; this catches it at test time.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import qgrass

MODULES = sorted(f"qgrass.{info.name}" for info in pkgutil.iter_modules(qgrass.__path__))


def test_the_package_modules_are_found():
    assert {"qgrass.cli", "qgrass.qarith", "qgrass.weyl", "qgrass.hopf"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"


def _definitions(tree: ast.Module):
    """The module-level functions and classes, and the non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub


def test_every_definition_is_used_in_the_package():
    """A definition counts as used when an ast.Name, an ast.Attribute or an
    import anywhere in the package names it outside its own body; a string,
    such as an entry of __all__, does not count.  The match is by name only,
    so a definition that only tests call stays hidden while another one of
    the same name is used: SuperVector.degree and SuperVector.is_zero behind
    their namesakes on MultiIndex and ScalarQ."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(pathlib.Path(qgrass.__path__[0]).glob("*.py"))}
    uses = []  # (module, name, line)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node.attr, node.lineno))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                uses += [(module, alias.name.rpartition(".")[2], node.lineno)
                         for alias in node.names]
    dead = [f"{module}.{qualname}" for module, tree in trees.items()
            for qualname, node in _definitions(tree)
            if not any(name == qualname.rpartition(".")[2]
                       and not (at == module and node.lineno <= line <= node.end_lineno)
                       for at, name, line in uses)]
    assert not dead, f"defined but never used in the package: {dead}"
