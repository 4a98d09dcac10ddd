"""Every public name of the package resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tautdr

MODULES = sorted(info.name for info in pkgutil.iter_modules(tautdr.__path__))


def test_every_module_is_listed():
    assert {"stable_graphs", "intersection", "pixton", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"tautdr.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"tautdr.{name}.__all__ lists {attr}"


def test_package_re_exports_resolve():
    tree = ast.parse(Path(tautdr.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"tautdr.{node.module}")
        for alias in node.names:
            assert getattr(tautdr, alias.asname or alias.name) is getattr(
                module, alias.name
            )
