"""Every name a qgrass module exports in __all__ exists in that module.

A deletion that leaves its name in __all__ breaks `from qgrass.x import *`
and misleads readers of the export list; this catches it at test time.
"""

import importlib
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
