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


def test_fields_and_dynamics_take_no_tolerance_and_no_admissibility_switch():
    # the rank rule on G and the admissibility bound are fixed cutoffs; a
    # Tolerance reaches only the path of ldkit verify
    expected = {
        ldkit.ConstraintField.__call__: ["self", "x"],
        ldkit.carrier_at: ["field", "x"],
        ldkit.pointwise: ["field", "x"],
        ldkit.bracket: ["field", "f", "g", "x"],
        ldkit.kernel_form: ["sys", "x"],
    }
    for fn, parameters in expected.items():
        assert list(inspect.signature(fn).parameters) == parameters, fn


def test_a_tolerance_is_taken_only_on_the_path_of_verify():
    # --tol-rank and --tol-residual decide every verdict that ldkit verify
    # prints; what is derived from a structure decides at the tolerance it
    # was built at, and everything else at DEFAULT_TOLERANCE
    taking = sorted(
        f"{module.__name__}.{qualname}" for module in MODULES
        for qualname, fn in _public_functions(module)
        if "tol" in inspect.signature(fn).parameters)
    assert taking == [
        "ldkit.io.load_structure_spec",
        "ldkit.linear.classification_residuals",
        "ldkit.linear.from_ab",
        "ldkit.linear.from_pair",
        "ldkit.linear.from_subspace",
    ]
    at_default = [ldkit.Subspace.from_spanning, ldkit.Subspace.contains,
                 ldkit.Subspace.contains_subspace, ldkit.Subspace.equals,
                 ldkit.rank_kernel, ldkit.intersect, ldkit.project_factor,
                 ldkit.to_pair, ldkit.split_pairing, ldkit.deform,
                 ldkit.tangent_part, ldkit.cotangent_part]
    for fn in at_default:
        assert "tol" not in inspect.signature(fn).parameters, fn


def _public_functions(module):
    """(qualified name, function) of each public function and public method
    of a public class that ``module`` defines."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != \
                module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member
