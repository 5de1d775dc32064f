#!/usr/bin/env python3
# The constrained damped particle end to end: consistency gate, multiplier
# formula, a reference trajectory with CSV export, an energy audit, and a
# cross-check against the independent integrator.
#
# A particle in R^3 with kinetic energy and diagonal friction is forced to
# respect zdot = y xdot; in momentum form the motion must stay on the
# surface y p_x = p_z, and a single Lagrange multiplier keeps it there.
#
# Usage:
#   python demos/damped_particle_run.py [output.csv]
#
# Dependencies: numpy, ldkit

import sys

import numpy as np

from ldkit.catalog import damped_particle
from ldkit.dynamics import (IntegratorConfig, check_consistency, energy_audit,
                            multipliers, oracle_simulate, simulate)
from ldkit.io import write_trajectory_csv

output = sys.argv[1] if len(sys.argv) > 1 else "damped_particle.csv"

system = damped_particle((1.0, 1.0, 1.0))

# Not every phase-space point is a legal start: the constraint surface
# y p_x = p_z filters initial conditions.
good = np.array([0.0, 0.5, 0.0, 1.0, 0.3, 0.5])
bad = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 1.0])
for x in (good, bad):
    report = check_consistency(system, x)
    verdict = "consistent" if report.in_chi_c else "rejected"
    print(f"state {x} -> {verdict} (residual {report.residual:.2e})")

lam, _ = multipliers(system, good)
print(f"\nmultiplier at the consistent state: lambda = {lam[0]:.6f}")

config = IntegratorConfig(dt=1e-3, t_end=10.0)
trajectory = simulate(system, good, config)
write_trajectory_csv(trajectory, output)
print(f"\nintegrated {trajectory.times.shape[0]} samples, wrote {output}")

h = trajectory.energies
surface = np.abs(trajectory.states[:, 1] * trajectory.states[:, 3]
                 - trajectory.states[:, 5])
print(f"H(0) = {h[0]:.6f}, H(10) = {h[-1]:.6f}")
print(f"max |y p_x - p_z| along the run: {surface.max():.2e}")
print(f"max single-step energy increase: {np.diff(h).max():.2e}")

print("\n  t      H          [H,H]        lambda")
for i in range(0, trajectory.times.shape[0], 2000):
    print(f"  {trajectory.times[i]:4.1f}  {h[i]:.6f}  "
          f"{trajectory.energy_rates[i]: .6f}  "
          f"{trajectory.multipliers[i, 0]: .6f}")

audit = energy_audit(trajectory)
print(f"\naudit: rates nonpositive = {audit.rates_nonpositive}, "
      f"monotone = {audit.energy_monotone}")
print(f"audit: max |dH/dt - [H,H]| = {audit.max_rate_deviation:.2e}")

# The second integrator shares no stepping code with the first; agreement
# is the correctness certificate for both.
other = oracle_simulate(system, good, config.dt, config.t_end)
gap = np.abs(trajectory.states - other.states).max()
print(f"max discrepancy vs the independent integrator: {gap:.2e}")
