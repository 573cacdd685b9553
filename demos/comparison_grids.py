#!/usr/bin/env python3
# The inequalities between family spectra, verified on parameter grids.
from fracext import ExtremalParams
from fracext.theorems import (edge_certificates, lemma_grid, probe_gap_region,
                              sample_spanning_subgraphs, sharpness,
                              theorem_spec)

# the edge comparison at every order: 12 margins, each proven positive by its coefficients
print(*(f"{t} r={r} {m}: constant {C[0, 0, 0]}, proven {ok}\n"
        for t, r, m, C, ok in edge_certificates()), sep="")

# q(general family) <= q(dense family), equality exactly at s=2k
rep = lemma_grid("q1q2", k_max=2, n_max=30)
print(f"q1q2: {rep.points} points, {rep.equality_points} equalities, "
      f"{len(rep.violations)} violations")
print(f"      strict margin {rep.min_strict_margin:.4f}, "
      f"crosscheck error {rep.max_crosscheck_error:.2e}")

# the delta-indexed comparisons drive the minimum-degree theorems
for lemma in ("q1q3", "mu_compare"):
    rep = lemma_grid(lemma, k_max=1, n_max=60, delta_max=4)
    print(f"{lemma}: {rep.points} points, {len(rep.violations)} violations")

# between 6*delta and the theorem's order bound nothing is asserted,
# but the inequality keeps holding there; probe and report
probe = probe_gap_region("mu", k=1, delta=3)
print(f"\nmu gap region: {probe.points} rows, all hold: {probe.ok}, "
      f"min margin {probe.min_strict_margin:.4f}")

# sharpness: the extremal graph meets its bound exactly and is not extendable
p = ExtremalParams(n=35, k=1, s=3)
sh = sharpness(p, theorem_spec("mu", 1))
print(f"\nsharp instance n=35: bound equality {sh.bound_equality}, "
      f"witness is the clique {sh.witness_is_clique}")
print(f"distance radius {sh.value:.8f} stays above the floor {sh.mu_floor}")

# and random spanning subgraphs of it never violate the theorem
samp = sample_spanning_subgraphs(p, theorem_spec("mu", 1), samples=2000, seed=1)
print(f"\n2000 spanning subgraphs: {dict(samp.statuses)}, "
      f"counterexamples {len(samp.counterexamples)}")
assert samp.ok
