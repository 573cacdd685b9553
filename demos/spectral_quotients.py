#!/usr/bin/env python3
# Equitable partitions collapse big matrices to exact 3x3 quotients.
from fractions import Fraction

from fracext import (ExtremalParams, extremal_graph, quotient, charpoly3,
                     closed_form, largest_real_root, largest_eigenvalue)
from fracext.spectral import (adjacency_matrices, distance_matrices,
                              positional_blocks, signless_laplacians)

p = ExtremalParams(n=20, k=1, s=4)
g = extremal_graph(p)
blocks = positional_blocks(p)           # clique block, inner block, lone tail
print("blocks:", [list(b) for b in blocks])

# the builders take a stack of graphs of one order; here a stack of one
A = adjacency_matrices([g])
Q = signless_laplacians(A)[0]
qm = quotient(Q, blocks)
print("equitable:", qm.equitable)
for row in qm.entries:
    print("  ", [str(x) for x in row])

# the quotient's characteristic cubic is exact rational arithmetic all the way
cubic = charpoly3(qm)
print("charpoly coefficients:", [str(c) for c in cubic.coefficients()])
assert cubic == closed_form("f_pi_1", n=p.n, k=p.k, s=p.s)

# and its largest root reproduces the full 20x20 matrix radius
root = largest_real_root(cubic)
eig = largest_eigenvalue(Q)
print(f"cubic root {root:.12f}")
print(f"matrix eig {eig:.12f}  (difference {abs(root - eig):.2e})")

# same story for the distance matrix
D = distance_matrices(A)[0]
dm = quotient(D, blocks)
droot = largest_real_root(charpoly3(dm))
deig = largest_eigenvalue(D)
print(f"\ndistance radius: cubic {droot:.12f} vs matrix {deig:.12f}")
assert abs(droot - deig) < 1e-8
