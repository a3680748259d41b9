"""Every exported name resolves, so a deletion cannot leave a stale export,
and so does every function the benchmark's tracer wraps by name."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import microdiag

MODULES = ["microdiag"] + [
    f"microdiag.{m.name}" for m in pkgutil.iter_modules(microdiag.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def test_package_reexports_are_module_exports():
    # a name the package re-exports is public in the module that defines it
    for name in microdiag.__all__:
        home = getattr(getattr(microdiag, name), "__module__", None)
        if home and home.startswith("microdiag."):
            assert name in importlib.import_module(home).__all__, f"{home}.{name}"


def _tracer_constants() -> dict:
    """The literal tuples at the top of perfbench/tracer.py, read without
    importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text("utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and node.targets[0].id.isupper()}


def test_benchmark_trace_targets_resolve():
    # the benchmark's tracer wraps these by name; a rename fails it at run time
    constants = _tracer_constants()
    missing = []
    for module, path, _ in constants["TARGETS"]:
        owner = importlib.import_module(f"microdiag.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    autodiff = importlib.import_module("microdiag.autodiff")
    for op in constants["AUTODIFF_OPS"] + constants["ELEMENTWISE_OPS"] + ("backward",):
        if not callable(getattr(autodiff, op, None)):
            missing.append(f"autodiff.{op}")
    assert len(constants["TARGETS"]) > 30 and not missing, missing
