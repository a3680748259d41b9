"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

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
