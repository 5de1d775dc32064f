"""Command line interface: ldkit verify | simulate | audit.

Exit codes are stable: 0 success, 2 spec parse/validation error, 3 structure
not LD (or degenerate representation), 4 inconsistent initial state, 5
integration step failure, 1 anything unexpected.  A failure prints one
``error:`` line on stderr; numpy's floating-point warnings are not shown.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .catalog import build_system
from .dynamics import RATE_TOL, IntegratorConfig, audit_series, simulate
from .errors import (ConsistencyError, DegenerateRepresentationError,
                     InputError, LDKitError, NotLDStructureError,
                     SpecFormatError, StepFailureError)
from .io import (load_structure_spec, load_system_spec, read_trajectory,
                 write_trajectory_csv, write_trajectory_json)
from .linear import split_pairing
from .subspaces import DEFAULT_TOLERANCE, Tolerance, float_rule

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_SPEC = 2
EXIT_NOT_LD = 3
EXIT_INCONSISTENT = 4
EXIT_STEP_FAILURE = 5

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def cmd_verify(args: argparse.Namespace) -> int:
    tol = Tolerance(rank_eps=args.tol_rank, residual_eps=args.tol_residual)
    ld = load_structure_spec(args.spec, tol)
    print(f"structure: n={ld.n}, subspace dimension {ld.space.dim}")
    for name, residual in ld.residuals.items():
        flag = getattr(ld.flags, name)
        print(f"{name}: {str(flag).lower()} (residual {residual:.3e})")
    orientation = "forward" if ld.flags.forward else "backward"
    pairing = split_pairing(ld, orientation)
    pos, neg = pairing.signature
    print(f"split pairing signature ({orientation}): ({pos}, {neg})")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = load_system_spec(args.spec)
    system, x0 = build_system(spec)
    config = IntegratorConfig(dt=args.dt, t_end=args.t_end)
    trajectory = simulate(system, x0, config)
    output = args.output
    if output is None:
        output = f"trajectory.{args.format}"
    if args.format == "csv":
        write_trajectory_csv(trajectory, output)
    else:
        write_trajectory_json(trajectory, output)
    final = ", ".join(_fmt(v) for v in trajectory.states[-1])
    print(f"system: {spec.name}, {trajectory.times.shape[0]} samples, "
          f"dt={_fmt(args.dt)}, t_end={_fmt(args.t_end)}")
    print(f"final state: ({final})")
    print(f"max constraint residual: {trajectory.residuals.max():.3e}")
    print(f"H(start) = {_fmt(trajectory.energies[0])}, "
          f"H(end) = {_fmt(trajectory.energies[-1])}")
    print(f"bracket [H,H] range: [{trajectory.energy_rates.min():.6g}, "
          f"{trajectory.energy_rates.max():.6g}]")
    print(f"wrote {output}")
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    trajectory = read_trajectory(args.trajectory)
    audit = audit_series(trajectory.times, trajectory.energies,
                         trajectory.energy_rates)
    print(f"samples: {audit.n_samples}")
    print(f"energy drift H(end) - H(start): {audit.energy_drift:.6e}")
    print(f"max bracket value [H,H]: {audit.max_rate:.6e}")
    print(f"max |dH/dt - [H,H]| (finite differences): "
          f"{audit.max_rate_deviation:.6e}")
    print(f"energy rates nonpositive: "
          f"{'yes' if audit.rates_nonpositive else 'no'}")
    print(f"energy monotone nonincreasing: "
          f"{'yes' if audit.energy_monotone else 'no'} "
          f"(max step increase {audit.max_energy_increase:.3e})")
    times = trajectory.times

    def at(row: int) -> str:
        return f"row {row} (t = {times[row]:.9g})"

    print(f"max [H,H] at {at(audit.max_rate_row)}")
    print(f"max step increase ends at {at(audit.max_energy_increase_row)}")
    print(f"max |dH/dt - [H,H]| at {at(audit.max_rate_deviation_row)}")
    first = audit.first_positive_rate_row
    print(f"first [H,H] above {RATE_TOL:g}: "
          f"{'none' if first is None else at(first)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldkit",
        description="Verify LD structure specs, simulate constrained "
                    "dissipative systems, audit trajectory energy budgets.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="classify a structure-spec file and print residuals")
    p_verify.add_argument("spec", help="structure-spec JSON file")
    p_verify.add_argument(
        "--tol-rank", type=float, default=DEFAULT_TOLERANCE.rank_eps,
        help="relative singular-value cutoff for rank decisions "
             "(default %(default)g)")
    p_verify.add_argument(
        "--tol-residual", type=float, default=DEFAULT_TOLERANCE.residual_eps,
        help="residual bound for membership and equation checks "
             "(default %(default)g)")
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser(
        "simulate", help="integrate a catalog system from a system-spec file")
    p_sim.add_argument("spec", help="system-spec JSON file")
    p_sim.add_argument("--dt", type=float, default=1e-3,
                       help="fixed step size (default 1e-3)")
    p_sim.add_argument("--t-end", type=float, default=10.0,
                       help="end time (default 10)")
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="trajectory output format (default csv)")
    p_sim.add_argument("--output", default=None,
                       help="output path (default trajectory.<format>)")
    p_sim.set_defaults(func=cmd_simulate)

    p_audit = sub.add_parser(
        "audit", help="energy audit of a stored trajectory (csv or json)")
    p_audit.add_argument("trajectory", help="trajectory file")
    p_audit.set_defaults(func=cmd_audit)
    return parser


# first match wins, so a subclass comes before its base
_EXIT_CODES = (
    (SpecFormatError, EXIT_SPEC),
    ((NotLDStructureError, DegenerateRepresentationError), EXIT_NOT_LD),
    (ConsistencyError, EXIT_INCONSISTENT),
    (StepFailureError, EXIT_STEP_FAILURE),
    (InputError, EXIT_SPEC),
    (LDKitError, EXIT_UNEXPECTED),
)


@float_rule
def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LDKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES
                    if isinstance(exc, kind))
    except Exception as exc:  # safety net
        print(f"unexpected error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
