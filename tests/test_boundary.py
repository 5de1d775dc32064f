"""The floating-point rule at the public boundary.

Every function and constructor of ``ldkit.__all__`` runs under one numpy
errstate of its own, so a call gives the same bits, or the same LDKitError
class, under the caller's default errstate and under a raising one; no
numpy RuntimeWarning escapes it; and a finite input never yields nan.  The
table below holds at least one call of each exported callable, at input
scales from 1e-300 to 1e300, where products underflow or overflow.

The code behind the boundary builds subspaces from its own SVD factors
without the checks of outside input; the last property checks that each of
those bases would pass them.
"""

import dataclasses
import json
import tempfile
import warnings
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldkit
from ldkit import (ABRep, AdmissibilityError, BracketValue, CatalogEntry,
                   ConsistencyError, ConsistencyReport, ConstraintField,
                   DegenerateMultiplierError, DegenerateRepresentationError,
                   DIHSystem, EnergyAudit, InputError, IntegratorConfig,
                   KernelForm, LDField, LDFlags, LDKitError, LinearLD,
                   NotLDStructureError, OrientationError, PairRep,
                   PreconditionError, RegularityError, RegularityReport,
                   ScalarField, SpecFormatError, SplitPairing,
                   StepFailureError, Subspace, SystemSpec, TensorField,
                   Tolerance, Trajectory, annihilator, audit_series,
                   bracket, build_system, carrier_at, check_consistency,
                   classification_residuals, cotangent_part,
                   damped_mechanical, damped_particle, deform, energy_audit,
                   energy_rate, from_ab, from_pair, from_subspace,
                   gradient_system, intersect, kernel_form,
                   load_structure_spec, load_system_spec,
                   metriplectic_system, multipliers, oracle_simulate,
                   pointwise, project_factor, rank_kernel, read_trajectory,
                   regularity_scan, rhs, simulate, split_pairing,
                   tangent_part, to_pair, write_trajectory_csv,
                   write_trajectory_json)

SCALES = (1e-300, 1e-160, 1e154, 1e200, 1e300)
# numpy's own default, spelled out: the caller's errstate the rule replaces
DEFAULT_ERRSTATE = {"divide": "warn", "over": "warn", "under": "ignore",
                    "invalid": "warn"}
LOOSE = Tolerance(1e-3, 1e-3)
POISSON_2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

# -- inputs ------------------------------------------------------------------


def orthonormal(rng, n, k):
    return np.linalg.qr(rng.standard_normal((n, n)))[0][:, :k]


def skew(rng, n):
    m = rng.standard_normal((n, n))
    return m - m.T


def sym(rng, n):
    m = rng.standard_normal((n, n))
    return m + m.T


def quadratic(n):
    return ScalarField(n, value=lambda x: 0.5 * float(x @ x),
                       gradient=lambda x: x.copy())


def oscillator():
    return build_system(SystemSpec("damped_oscillator"))[0]


def particle(analytic_jacobian=True):
    system = damped_particle()
    if analytic_jacobian:
        return system
    return DIHSystem(6, system.ld, system.hamiltonian)


def particle_state(s, rng):
    """A state of the particle's chi_c at every scale: y = p_z = 0."""
    x = rng.standard_normal(6)
    x[[1, 5]] = 0.0
    return s * x


def pair(s, rng, orientation, n=3, k=2):
    return PairRep(orientation, Subspace(n, orthonormal(rng, n, k)),
                   s * rng.standard_normal((k, k)))


def dirac(rng, n=3):
    return from_ab(ABRep(np.eye(n), skew(rng, n)))


def graph(s, rng, n=3):
    """span of s·[I; W], W skew: a Dirac structure at every scale."""
    return Subspace.from_spanning(s * np.vstack([np.eye(n), skew(rng, n)]))


def short_run(s, rng, system, run=simulate):
    x0 = particle_state(s, rng) if system.n == 6 else s * rng.standard_normal(2)
    if run is simulate:
        return simulate(system, x0, IntegratorConfig(dt=1e-3, t_end=1e-2))
    return run(system, x0, 1e-3, 1e-2)


def trajectory(s, rng, n=2, k=1, m=4):
    return Trajectory(np.arange(m) * 1e-3, *(
        s * rng.standard_normal(shape)
        for shape in ((m, n), (m, k), m, m, m)))


def in_file(write, read, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp, f"file{suffix}"))
        write(path)
        return read(path)


def spec_file(doc):
    return lambda path: Path(path).write_text(json.dumps(doc))


def error_attributes(exc):
    return exc.args, vars(exc)


# -- the table: (exported name, call at scale s with generator rng) -----------

ROWS = [
    # errors
    *[(cls.__name__, lambda s, rng, cls=cls: error_attributes(cls(f"{s}")))
      for cls in (LDKitError, InputError, DegenerateRepresentationError,
                  PreconditionError, OrientationError, RegularityError,
                  SpecFormatError)],
    ("NotLDStructureError", lambda s, rng: error_attributes(
        NotLDStructureError("m", forward_residual=s, backward_residual=-s))),
    ("AdmissibilityError", lambda s, rng: error_attributes(
        AdmissibilityError("m", component=0, residual=s))),
    ("ConsistencyError", lambda s, rng: error_attributes(
        ConsistencyError("m", residual=s))),
    ("DegenerateMultiplierError", lambda s, rng: error_attributes(
        DegenerateMultiplierError("m", ls_residual=s))),
    ("StepFailureError", lambda s, rng: error_attributes(StepFailureError(
        "m", time=s, state=s * np.ones(2), partial=trajectory(s, rng)))),
    # subspaces
    ("Tolerance", lambda s, rng: Tolerance(min(0.5, 1e-9 * s), 1e-8 * s)),
    # a rotation by 1e-10 s (or 1e-10 / s): its Gram entries underflow
    ("Subspace", lambda s, rng: Subspace(2, [
        [1.0, -1e-10 * min(s, 1 / s)], [1e-10 * min(s, 1 / s), 1.0]])),
    # a scaled basis: its Gram matrix underflows or overflows
    ("Subspace", lambda s, rng: Subspace(3, s * orthonormal(rng, 3, 2))),
    ("Subspace", lambda s, rng: (lambda sp, v: (
        sp, sp.membership_residual(s * v), sp.contains(s * v), sp.projector,
        sp.contains_subspace(Subspace.full(3)), sp.equals(sp),
        Subspace.zero(3)))(
            Subspace.from_spanning(s * rng.standard_normal((3, 2))),
            rng.standard_normal(3))),
    ("rank_kernel", lambda s, rng: rank_kernel(
        s * rng.standard_normal((4, 2)) @ rng.standard_normal((2, 5)))),
    ("annihilator", lambda s, rng: annihilator(
        Subspace.from_spanning(s * rng.standard_normal((4, 2))))),
    ("intersect", lambda s, rng: intersect(
        *(Subspace.from_spanning(s * rng.standard_normal((4, 3)))
          for _ in range(2)))),
    *[("project_factor", lambda s, rng, which=which: project_factor(
        graph(s, rng), which)) for which in ("first", "second")],
    # linear
    ("LDFlags", lambda s, rng: LDFlags(s > 1, s < 1, True, False, True)),
    ("LinearLD", lambda s, rng: LinearLD(graph(s, rng))),
    ("LinearLD", lambda s, rng: LinearLD(graph(s, rng), LOOSE)),
    ("ABRep", lambda s, rng: ABRep(s * np.eye(2), s * POISSON_2)),
    ("PairRep", lambda s, rng: pair(s, rng, "forward")),
    ("SplitPairing", lambda s, rng: SplitPairing(s * np.eye(2), (1, 1))),
    ("from_ab", lambda s, rng: from_ab(ABRep(
        s * rng.standard_normal((3, 3)), s * rng.standard_normal((3, 3))))),
    # a spanning set whose relative rank cutoff is subnormal at 1e-300
    ("from_ab", lambda s, rng: from_ab(ABRep(s * np.eye(2),
                                             np.diag([s, 0.0])))),
    *[("from_pair", lambda s, rng, o=o: from_pair(pair(s, rng, o)))
      for o in ("forward", "backward")],
    ("from_pair", lambda s, rng: from_pair(PairRep(
        "backward", Subspace(3, np.eye(3)[:, :2]), s * POISSON_2))),
    ("from_subspace", lambda s, rng: from_subspace(graph(s, rng))),
    *[("to_pair", lambda s, rng, o=o: to_pair(from_pair(pair(s, rng, o)), o))
      for o in ("forward", "backward")],
    ("classification_residuals", lambda s, rng: classification_residuals(
        Subspace.from_spanning(s * rng.standard_normal((6, 3))))),
    ("split_pairing", lambda s, rng: split_pairing(
        from_ab(ABRep(np.eye(3), s * rng.standard_normal((3, 3)))),
        "forward")),
    *[("deform", lambda s, rng, d=d: deform(dirac(rng), s * sym(rng, 3), d))
      for d in ("forward", "backward")],
    ("tangent_part", lambda s, rng: tangent_part(
        from_pair(pair(s, rng, "forward")))),
    ("cotangent_part", lambda s, rng: cotangent_part(
        from_pair(pair(s, rng, "backward")))),
    # fields
    ("ScalarField", lambda s, rng: (lambda f, x: (
        f(x), f.grad(x), f.check_gradient([x]),
        ScalarField(3, value=f.value).grad(x)))(
            quadratic(3), s * rng.standard_normal(3))),
    ("TensorField", lambda s, rng: (
        TensorField(3, lambda x: np.outer(x, x))(s * rng.standard_normal(3)),
        TensorField.constant(s * rng.standard_normal((3, 3)))(np.ones(3)))),
    ("ConstraintField", lambda s, rng: (lambda g, x: (
        g.matrix(x), g(x), ConstraintField.none(3).matrix(x),
        ConstraintField.constant(s * np.ones((3, 1)))(x)))(
            ConstraintField(3, 1, lambda x: (x * x[0])[:, None]),
            s * rng.standard_normal(3))),
    ("LDField", lambda s, rng: LDField(
        TensorField.constant(s * POISSON_2), ConstraintField.none(2)).n),
    ("BracketValue", lambda s, rng: BracketValue(2.0 * s, s, s)),
    ("RegularityReport", lambda s, rng: RegularityReport((1,), (5,), ())),
    ("carrier_at", lambda s, rng: carrier_at(particle().ld,
                                             s * rng.standard_normal(6))),
    ("pointwise", lambda s, rng: pointwise(oscillator().ld,
                                           s * rng.standard_normal(2))),
    ("pointwise", lambda s, rng: pointwise(damped_particle((s, 1.0, 1.0)).ld,
                                           rng.standard_normal(6))),
    # (1e200, 1e200): [H, H] overflows, to nan at the parent
    ("bracket", lambda s, rng: (lambda sys: bracket(
        sys.ld, sys.hamiltonian, sys.hamiltonian, s * np.ones(2)))(
            oscillator())),
    ("bracket", lambda s, rng: (lambda sys: bracket(
        sys.ld, sys.hamiltonian, sys.hamiltonian, particle_state(s, rng)))(
            particle())),
    ("regularity_scan", lambda s, rng: regularity_scan(
        particle().ld, s * rng.standard_normal((4, 6)))),
    # dynamics
    ("DIHSystem", lambda s, rng: DIHSystem(2, oscillator().ld,
                                           quadratic(2)).k),
    ("IntegratorConfig", lambda s, rng: IntegratorConfig(
        dt=np.float64(s) * 1e-3, t_end=np.float64(s) * 1e-2).steps),
    ("Trajectory", trajectory),
    ("ConsistencyReport", lambda s, rng: ConsistencyReport(False, s)),
    ("KernelForm", lambda s, rng: KernelForm(s * np.eye(2), s * np.eye(2),
                                             s * np.ones(2))),
    ("EnergyAudit", lambda s, rng: EnergyAudit(
        2, s, -s, True, 0.0, True, s, 0, 1, 1, None)),
    # (0, 1e200, 0, 1e200, 0, 0): the residual overflows, with a warning
    # at the parent
    ("check_consistency", lambda s, rng: check_consistency(
        particle(), s * np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0]))),
    ("check_consistency", lambda s, rng: check_consistency(
        particle(), particle_state(s, rng))),
    *[(name, lambda s, rng, f=f, make=make: f(
        make(), particle_state(s, rng) if make is not oscillator
        else s * rng.standard_normal(2)))
      for name, f in (("multipliers", multipliers), ("rhs", rhs),
                      ("kernel_form", kernel_form),
                      ("energy_rate", energy_rate))
      for make in (oscillator, particle,
                   lambda: particle(analytic_jacobian=False))],
    *[("simulate", lambda s, rng, make=make: short_run(s, rng, make()))
      for make in (oscillator, particle,
                   lambda: particle(analytic_jacobian=False))],
    *[("oracle_simulate", lambda s, rng, make=make: short_run(
        s, rng, make(), oracle_simulate)) for make in (oscillator, particle)],
    ("energy_audit", lambda s, rng: energy_audit(short_run(s, rng,
                                                           particle()))),
    ("audit_series", lambda s, rng: audit_series(
        np.arange(5) * 1e-3, s * rng.standard_normal(5),
        s * rng.standard_normal(5))),
    # catalog
    ("gradient_system", lambda s, rng: gradient_system(
        TensorField.constant(s * np.diag([1.0, 2.0])),
        quadratic(2)).ld.pi(np.ones(2))),
    ("metriplectic_system", lambda s, rng: metriplectic_system(
        TensorField.constant(s * POISSON_2),
        TensorField.constant(s * np.diag([0.0, 1.0])),
        quadratic(2)).ld.pi(np.ones(2))),
    ("damped_mechanical", lambda s, rng: damped_mechanical(
        TensorField.constant(s * np.eye(1)), None,
        quadratic(2)).ld.pi(np.ones(2))),
    ("damped_particle", lambda s, rng: damped_particle(
        (s, 1.0, s)).ld.pi(np.ones(6))),
    ("SystemSpec", lambda s, rng: SystemSpec("damped_particle", {"mu1": s},
                                             (s,) * 6)),
    ("CatalogEntry", lambda s, rng: CatalogEntry(damped_particle,
                                                 {"mu1": s}, (s,), "d")),
    *[("build_system", lambda s, rng, name=name: (
        lambda system, x0: (x0, system.ld.pi(x0)))(*build_system(SystemSpec(
            name, {key: s * value
                   for key, value in ldkit.CATALOG[name].defaults.items()},
            s * np.asarray(ldkit.CATALOG[name].default_state)))))
      for name in sorted(ldkit.CATALOG)],
    # io
    ("load_structure_spec", lambda s, rng: in_file(spec_file({
        "kind": "ab", "n": 2, "a": (s * np.eye(2)).tolist(),
        "b": (s * POISSON_2).tolist()}), load_structure_spec, ".json")),
    ("load_structure_spec", lambda s, rng: in_file(spec_file({
        "kind": "pair", "n": 3, "orientation": "backward",
        "carrier": np.eye(3)[:2].tolist(),
        "map": (s * POISSON_2).tolist()}), load_structure_spec, ".json")),
    ("load_system_spec", lambda s, rng: in_file(spec_file({
        "name": "damped_particle", "parameters": {"mu1": s},
        "initial_state": particle_state(s, rng).tolist()}),
        load_system_spec, ".json")),
    ("write_trajectory_csv", lambda s, rng: in_file(
        lambda path, t=trajectory(s, rng): write_trajectory_csv(t, path),
        read_trajectory, ".csv")),
    ("write_trajectory_json", lambda s, rng: in_file(
        lambda path, t=trajectory(s, rng): write_trajectory_json(t, path),
        read_trajectory, ".json")),
    ("read_trajectory", lambda s, rng: in_file(
        lambda path, t=trajectory(s, rng, k=0): write_trajectory_csv(t, path),
        read_trajectory, ".txt")),
]


def leaves(value) -> list:
    """The arrays a result consists of, in a fixed order; callables, such
    as a system's fields, contribute none."""
    if isinstance(value, (np.ndarray, np.generic, bool, int, float)):
        return [np.asarray(value)]
    if value is None or isinstance(value, str):
        return [np.frombuffer(repr(value).encode(), dtype=np.uint8)]
    if isinstance(value, Mapping):
        return [leaf for key in value
                for leaf in leaves(key) + leaves(value[key])]
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in leaves(item)]
    if dataclasses.is_dataclass(value):
        return [leaf for f in dataclasses.fields(value)
                for leaf in leaves(getattr(value, f.name))]
    if callable(value):
        return []
    raise TypeError(f"no leaves for {type(value).__name__}")


def outcome(call, scale: float, seed: int, errstate: dict):
    """(the result's leaves, None) or (None, the LDKitError class)."""
    rng = np.random.default_rng(seed)
    with np.errstate(**errstate):
        caller = np.geterr()
        try:
            return leaves(call(scale, rng)), None
        except LDKitError as exc:
            return None, type(exc)
        finally:
            # the rule is the call's own: the caller's errstate is restored
            assert np.geterr() == caller


def test_the_table_calls_every_exported_function_and_constructor():
    exported = {name for name in ldkit.__all__
                if callable(getattr(ldkit, name))}
    assert {name for name, _ in ROWS} == exported


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name, call", ROWS,
                         ids=[f"{name}-{i}" for i, (name, _) in
                              enumerate(ROWS)])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=3)
def test_a_public_call_is_the_same_under_any_errstate(name, call, scale,
                                                      seed):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        plain, plain_error = outcome(call, scale, seed, DEFAULT_ERRSTATE)
    assert [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)] == []
    strict, strict_error = outcome(call, scale, seed, {"all": "raise"})
    assert strict_error is plain_error
    if plain_error is None:
        assert [(a.dtype, a.shape, a.tobytes()) for a in strict] == \
            [(a.dtype, a.shape, a.tobytes()) for a in plain]
        assert not [a for a in plain if a.dtype.kind == "f"
                    and np.isnan(a).any()]


def test_the_two_overflows_of_the_table_have_their_stated_outcome():
    # check_consistency reports the overflowing residual as inf; bracket
    # refuses a value that overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_consistency(particle(), [0, 1e200, 0, 1e200, 0, 0])
        assert report == ConsistencyReport(False, np.inf)
        system = oscillator()
        with pytest.raises(InputError, match="the bracket has non-finite"):
            bracket(system.ld, system.hamiltonian, system.hamiltonian,
                    [1e200, 1e200])


def test_nested_ruled_calls_leave_the_callers_errstate_as_it_was():
    # from_ab enters the rule again in LinearLD, and pointwise three times
    # deep (carrier_at, from_pair, LinearLD); each exit restores the errstate
    # its own entry found, raising or numpy's default
    for errstate in ({"all": "raise"}, DEFAULT_ERRSTATE):
        with np.errstate(**errstate):
            caller = np.geterr()
            from_ab(ABRep(np.eye(2), POISSON_2))
            assert np.geterr() == caller
            pointwise(damped_particle((1.0, 1.0, 1.0)).ld, np.zeros(6))
            assert np.geterr() == caller
            with pytest.raises(DegenerateRepresentationError):
                from_ab(ABRep(np.zeros((2, 2)), np.zeros((2, 2))))
            assert np.geterr() == caller


# -- the private path behind the boundary --------------------------------------


def built_subspaces(l: LinearLD) -> list:
    """Each subspace the library derives from the structure ``l``."""
    out = [l.space, tangent_part(l), cotangent_part(l),
           project_factor(l.space, "first"), project_factor(l.space, "second"),
           annihilator(tangent_part(l))]
    n = l.n
    v_factor = Subspace.from_spanning(np.vstack([np.eye(n), np.zeros((n, n))]))
    out += [v_factor, intersect(l.space, v_factor)]
    for orientation in ("forward", "backward"):
        if getattr(l.flags, orientation):
            out.append(to_pair(l, orientation).carrier)
    return out


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       kind=st.sampled_from(["ab", "pair_forward", "pair_backward", "ksum",
                             "deform", "pointwise", "marginal"]),
       tol=st.sampled_from([ldkit.DEFAULT_TOLERANCE, LOOSE]))
@settings(max_examples=200)
def test_every_subspace_the_library_builds_passes_the_checked_constructor(
        seed, n, kind, tol):
    # the constructions of the structure_sweep benchmark, at the default
    # tolerance and at a loose one, where the meets are cut at 1e-3
    rng = np.random.default_rng(seed)
    spaces = []
    if kind == "ab":
        a = rng.standard_normal((n, n))
        l = from_ab(ABRep(a, skew(rng, n) @ a), tol)
    elif kind.startswith("pair"):
        k = int(rng.integers(0, n + 1))
        carrier = Subspace.from_spanning(rng.standard_normal((n, k)))
        spaces.append(carrier)
        l = from_pair(PairRep(kind[5:], carrier,
                              rng.standard_normal((k, k))), tol)
    elif kind == "ksum":
        _, ker = rank_kernel(rng.standard_normal((int(rng.integers(1, n + 1)),
                                                  n)))
        ann = annihilator(ker)
        spaces += [ker, ann]
        basis = np.block([[ker.basis, np.zeros((n, ann.dim))],
                          [np.zeros((n, ker.dim)), ann.basis]])
        l = from_subspace(Subspace(2 * n, basis), tol)
    elif kind == "deform":
        a = rng.standard_normal((n, n))
        l = deform(from_ab(ABRep(a, skew(rng, n) @ a), tol), sym(rng, n),
                   ("forward", "backward")[int(rng.integers(2))])
    elif kind == "pointwise":
        system = particle() if rng.integers(2) else oscillator()
        x = rng.standard_normal(system.n)
        spaces.append(carrier_at(system.ld, x))
        l = dataclasses.replace(pointwise(system.ld, x), tol=tol)
    else:
        # one singular value of the vector half between the two cutoffs
        small = float(rng.choice([1e-8, 1e-6, 1e-4, 1e-2]))
        d = np.ones(n)
        d[-1] = small
        q = orthonormal(rng, n, n)
        l = from_ab(ABRep(q * d, q * rng.uniform(-2.0, 2.0, n)), tol)
    for space in spaces + built_subspaces(l):
        basis = space.basis
        assert not basis.flags.writeable and basis.flags.c_contiguous
        assert Subspace(space.ambient_dim, basis) == space
