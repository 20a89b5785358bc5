"""Every exported name resolves, so a deletion cannot leave a stale
__all__ entry behind."""

import importlib
import pkgutil

import pytest

import swcalc

# __main__ runs the CLI when imported
MODULES = ["swcalc"] + sorted(
    f"swcalc.{m.name}" for m in pkgutil.iter_modules(swcalc.__path__)
    if m.name != "__main__")


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{modname}.__all__ lists {name!r}"


@pytest.mark.parametrize("modname", MODULES)
def test_star_import(modname):
    exec(f"from {modname} import *", {})
