"""ldkit: Leibniz-Dirac structures and dissipative constrained dynamics.

The package splits into layers: tolerance-aware subspace linear algebra
(:mod:`ldkit.subspaces`), linear structures on the double R^n ⊕ R^n*
(:mod:`ldkit.linear`), pointwise structures and brackets on R^n
(:mod:`ldkit.fields`), constrained dissipative simulation
(:mod:`ldkit.dynamics`), a catalog of ready-made systems
(:mod:`ldkit.catalog`), file formats (:mod:`ldkit.io`), and the command line
(:mod:`ldkit.cli`).  Numerical cutoffs are fixed, ``DEFAULT_TOLERANCE``'s
for the subspace and linear layers, except on the path of ``ldkit verify``:
``load_structure_spec``, ``LinearLD``, ``from_ab``, ``from_pair``,
``from_subspace`` and ``classification_residuals`` take a
:class:`Tolerance`, and a structure keeps the one it was classified at for
everything derived from it.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (AdmissibilityError, ConsistencyError,
                     DegenerateMultiplierError, DegenerateRepresentationError,
                     InputError, LDKitError, NotLDStructureError,
                     OrientationError, PreconditionError, RegularityError,
                     SpecFormatError, StepFailureError)
from .subspaces import (DEFAULT_TOLERANCE, Subspace, Tolerance, annihilator,
                        intersect, project_factor, rank_kernel)
from .linear import (ABRep, LDFlags, LinearLD, PairRep, SplitPairing,
                     classification_residuals, cotangent_part,
                     deform, from_ab, from_pair, from_subspace, split_pairing,
                     tangent_part, to_pair)
from .fields import (BracketValue, ConstraintField, LDField, RegularityReport,
                     ScalarField, TensorField, bracket, carrier_at,
                     pointwise, regularity_scan)
from .dynamics import (ConsistencyReport, DIHSystem, EnergyAudit,
                       IntegratorConfig, KernelForm, Trajectory, audit_series,
                       check_consistency, energy_audit, energy_rate,
                       kernel_form, multipliers, oracle_simulate, rhs,
                       simulate)
from .catalog import (CATALOG, CatalogEntry, SystemSpec, build_system,
                      damped_mechanical, damped_particle, gradient_system,
                      metriplectic_system)
from .io import (SCHEMA_VERSION, load_structure_spec, load_system_spec,
                 read_trajectory, write_trajectory_csv, write_trajectory_json)

__all__ = [
    "__version__",
    # errors
    "LDKitError", "InputError", "DegenerateRepresentationError",
    "NotLDStructureError", "PreconditionError", "OrientationError",
    "RegularityError", "AdmissibilityError", "ConsistencyError",
    "DegenerateMultiplierError", "StepFailureError", "SpecFormatError",
    # subspaces
    "Tolerance", "DEFAULT_TOLERANCE", "Subspace", "rank_kernel",
    "annihilator", "intersect", "project_factor",
    # linear
    "LDFlags", "LinearLD", "ABRep", "PairRep", "SplitPairing", "from_ab",
    "from_pair", "from_subspace", "to_pair", "classification_residuals",
    "split_pairing", "deform", "tangent_part", "cotangent_part",
    # fields
    "ScalarField", "TensorField", "ConstraintField", "LDField",
    "BracketValue", "RegularityReport", "pointwise", "bracket", "carrier_at",
    "regularity_scan",
    # dynamics
    "DIHSystem", "IntegratorConfig", "Trajectory", "ConsistencyReport",
    "KernelForm", "EnergyAudit", "check_consistency", "multipliers", "rhs",
    "kernel_form", "energy_rate", "simulate", "oracle_simulate",
    "energy_audit", "audit_series",
    # catalog
    "gradient_system", "metriplectic_system", "damped_mechanical",
    "damped_particle", "SystemSpec", "CATALOG", "CatalogEntry",
    "build_system",
    # io
    "SCHEMA_VERSION", "load_structure_spec", "load_system_spec",
    "read_trajectory", "write_trajectory_csv", "write_trajectory_json",
]
