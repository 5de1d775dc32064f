#!/usr/bin/env python3
# Tour of linear structures on R^n (+) R^n*: build a few subspaces from
# matrix pairs and carrier/map data, classify them, and deform a skew graph
# until it picks up a symmetric (dissipative) part.
#
# Usage:
#   python demos/classify_structures.py
#
# Dependencies: numpy, ldkit

import numpy as np

from ldkit import (ABRep, PairRep, Subspace, deform, from_ab, from_pair,
                   split_pairing, to_pair)


def show(title, ld):
    flags = ld.flags
    print(f"\n{title}")
    print(f"  n = {ld.n}, dim(L) = {ld.space.dim}")
    for name, residual in ld.residuals.items():
        print(f"  {name:16s} {str(getattr(flags, name)).lower():5s} "
              f"(residual {residual:.2e})")
    orientation = "forward" if flags.forward else "backward"
    pairing = split_pairing(ld, orientation)
    print(f"  split pairing signature ({orientation}): {pairing.signature}")
    return ld


poisson = np.array([[0.0, 1.0], [-1.0, 0.0]])

# The graph of a skew map is the classical conservative case: a Dirac
# structure readable in both orientations.
dirac = show("graph of the canonical Poisson map", from_ab(ABRep(np.eye(2), poisson)))

# A symmetric map gives the opposite extreme: gradient-flow geometry.
show("graph of -I (pure dissipation)", from_ab(ABRep(np.eye(2), -np.eye(2))))

# A generic map mixes both; neither pairing vanishes.
show("graph of [[1, 1], [0, 1]] (mixed)",
     from_ab(ABRep(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))))

# A factor plus its annihilator: K (+) K deg, the separable case.  The same
# subspace comes out of an (A, B) pair supported on complementary columns.
show("span{(e1, 0), (0, e2*)} = K (+) K deg",
     from_ab(ABRep(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))))

# Carrier/map input: a map defined only on a 1-dimensional carrier of R^2.
carrier = Subspace.from_spanning(np.array([[1.0], [1.0]]) / np.sqrt(2.0))
show("forward pair on a 1-dim carrier", from_pair(PairRep("forward", carrier, np.array([[0.5]]))))

# Deforming a Dirac structure by a symmetric form adds dissipation while
# keeping the forward orientation; the zero form is the identity.
print("\ndeforming the Poisson graph by t * I:")
for t in (0.0, 0.5, 1.0):
    shifted = deform(dirac, t * np.eye(2), "forward")
    pair = to_pair(shifted, "forward")
    flags = shifted.flags
    rows = np.array2string(pair.matrix).splitlines()
    print(f"  t = {t:3.1f}: map = {rows[0]}")
    for row in rows[1:]:
        print(f"                 {row}")
    print(f"           dirac = {str(flags.dirac).lower()}, "
          f"forward = {str(flags.forward).lower()}")
