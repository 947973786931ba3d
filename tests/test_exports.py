"""Every exported name resolves, so a removal cannot leave a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pauliaccess

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(pauliaccess.__path__)
    if hasattr(importlib.import_module(f"pauliaccess.{info.name}"), "__all__")
)


def test_modules_with_exports_are_found():
    assert {"closure", "graph", "hamiltonian", "oracle", "pauli", "statespace"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"pauliaccess.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from pauliaccess.{name} import *", namespace)
    assert set(exported) <= namespace.keys()


def test_package_reexports_resolve():
    # each name __init__ imports from a module is that module's export
    tree = ast.parse(Path(pauliaccess.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"pauliaccess.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(pauliaccess, alias.name) is getattr(module, alias.name)
