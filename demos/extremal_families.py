#!/usr/bin/env python3
# The three extremal families behind the spectral bounds, built and measured.
import numpy as np

from fracext import (ExtremalParams, extremal_graph, extremal_edge_count,
                     emit_graph6, closed_form, largest_real_root,
                     largest_eigenvalue, spectral_report)

n, k = 11, 1

# general family: an s-clique joined to a clique plus s-2k+1 lone vertices
for s in (2, 3, 4):
    p = ExtremalParams(n=n, k=k, s=s)
    g = extremal_graph(p)
    rep = spectral_report(g)
    print(f"s={s}: {emit_graph6(g)}  e={rep.e}  min_degree={rep.min_degree}")
    assert rep.e == extremal_edge_count(p)

# s=2k is the densest member; its signless Laplacian radius has a closed
# characteristic cubic whose largest root matches the matrix computation
p2 = ExtremalParams(n=n, k=k, s=2 * k)
cubic = closed_form("f2", n=n, k=k)
root = largest_real_root(cubic)
eig = spectral_report(extremal_graph(p2)).q_radius
print(f"\ndense family cubic: {[str(c) for c in cubic.coefficients()]}")
print(f"largest root {root:.12g}  vs matrix eigenvalue {eig:.12g}")

# the minimum-degree member takes s equal to delta; watch both spectral
# quantities move as delta grows with the order fixed
print("\n n  delta    q(G)            mu(G)")
for delta in (3, 4, 5):
    p3 = ExtremalParams(n=36, k=1, s=delta)
    rep = spectral_report(extremal_graph(p3))
    print(f"{p3.n:3d} {delta:5d}  {rep.q_radius:14.10f}  {rep.distance_radius:14.10f}")

# orders past the graph6 limit still work; the stacked matrix builders take
# the family graph like any other
from fracext.spectral import adjacency_matrices, signless_laplacians
big = signless_laplacians(adjacency_matrices([extremal_graph(ExtremalParams(90, 2, 7))]))[0]
print(f"\norder 90 family Q matrix: shape {big.shape}, "
      f"radius {largest_eigenvalue(big):.8f}")
