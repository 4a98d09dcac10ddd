"""Every public name of the package, and every tracer target, resolves."""

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


def _tracer_targets():
    """FUNCTION_TARGETS and METHOD_TARGETS of ``perfbench/tracing.py``,
    read from its source so that nothing is imported from ``perfbench``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    targets = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("FUNCTION_TARGETS", "METHOD_TARGETS"):
                targets[node.targets[0].id] = ast.literal_eval(node.value)
    return targets["FUNCTION_TARGETS"], targets["METHOD_TARGETS"]


# listed by the tracer, but the census is no longer read through pixton
STALE_TRACER_TARGETS = {("tautdr.pixton", "enumerate_stable_graphs")}


def test_tracer_targets_resolve():
    # a target that does not resolve records no calls, so a move inside the
    # package would drop its per-layer metrics without an error
    functions, methods = _tracer_targets()
    assert functions and methods
    for module_name, attr, _span in functions:
        module = importlib.import_module(module_name)
        if (module_name, attr) in STALE_TRACER_TARGETS:
            assert not hasattr(module, attr), f"{module_name}.{attr} is back"
        else:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    for module_name, cls_name, attr, _span in methods:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert callable(getattr(cls, attr, None)), f"{module_name}.{cls_name}.{attr}"
