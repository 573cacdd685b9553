#!/usr/bin/env python3
# Sweep a whole corpus against one spectral bound and inspect the outcome.
from fracext.corpus import complement_stack, connected_stack
from fracext.theorems import theorem_spec, check_theorem, sweep

# the corpora: one 0/1 adjacency matrix per isomorphism class, canonically
# ordered, stacked as one array
for n in range(1, 9):
    print(f"order {n}: {len(connected_stack(n)):5d} connected")

spec = theorem_spec("q_1", k=1)

# one graph at a time: check_theorem classifies into five statuses
from fracext import complete, cycle, extremal_graph, ExtremalParams
for g in (complete(8), cycle(8), extremal_graph(ExtremalParams(8, 1, 2))):
    r = check_theorem(g, spec)
    print(f"{r.graph6:10s} e={r.e:2d}  value={r.value:.6f}  "
          f"threshold={r.threshold:.6f}  {r.status}")

# the full order-8 sweep: every connected graph, no exceptions
rep = sweep(connected_stack(8), spec)
print(f"\nscanned {rep.scanned}, hypotheses met {rep.hypothesis_met}, "
      f"bound met {rep.bound_met}")
print(f"confirmed extendable {rep.confirmed}, equality cases "
      f"{len(rep.equality_cases)}, counterexamples {len(rep.counterexamples)}")

eq = rep.equality_cases[0]
print(f"the unique equality case is {eq.graph6} with q = {eq.value:.10f}")

# an edge-count bound prefers a dense corpus: the complements of every
# graph of order 11 with at most 8 edges
edge_spec = theorem_spec("edge_1", k=1)
dense = sweep(complement_stack(11, 8), edge_spec)
print(f"\ndense corpus: scanned {dense.scanned}, equality "
      f"{len(dense.equality_cases)}, counterexamples {len(dense.counterexamples)}")
assert dense.ok and rep.ok
