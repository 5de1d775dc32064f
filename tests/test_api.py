"""Public API hygiene: every exported name resolves, appears once, and a
submodule exports only what it defines itself."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import ldkit

MODULES = [ldkit] + [importlib.import_module(f"ldkit.{info.name}")
                     for info in pkgutil.iter_modules(ldkit.__path__)
                     if not info.name.startswith("_")]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]
IDS = [m.__name__ for m in EXPORTING]


@pytest.mark.parametrize("module", EXPORTING, ids=IDS)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", EXPORTING, ids=IDS)
def test_no_exported_name_is_listed_twice(module):
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("module", [m for m in EXPORTING if m is not ldkit],
                         ids=[i for i in IDS if i != "ldkit"])
def test_submodules_export_only_their_own_functions_and_classes(module):
    # the package namespace gathers the layers; a layer re-exporting another
    # layer's names gives one object two public homes
    foreign = [name for name in module.__all__
               if (inspect.isfunction(getattr(module, name))
                   or inspect.isclass(getattr(module, name)))
               and getattr(module, name).__module__ != module.__name__]
    assert foreign == []


def test_the_integrator_settings_are_dt_and_t_end_only():
    # the projection tolerance and Newton cap are fixed constants
    fields = [f.name for f in dataclasses.fields(ldkit.IntegratorConfig)]
    assert fields == ["dt", "t_end"]
    for fn in (ldkit.check_consistency, ldkit.multipliers, ldkit.rhs):
        assert list(inspect.signature(fn).parameters) == ["sys", "x"], fn
