#!/usr/bin/env python3
# Fractional k-extendability from the definition, with both kinds of certificate.
from fracext import (complete, cycle, extremal_graph, ExtremalParams,
                     extend_matching, is_fext_definitional, verify_witness)


def show(name, g, k):
    v = is_fext_definitional(g, k)   # test each k-matching's covered vertex set once
    print(f"{name:14s} k={k}: extendable={v.answer} ({v.reason})")
    if v.witness_matching:
        print(f"{'':14s}   stuck matching: {v.witness_matching}")
    if v.witness_set is not None:
        # V(M) plus the deficiency set of G - V(M): i(G-S) > |S| - 2k
        verts = [u for u in range(g.n) if (v.witness_set >> u) & 1]
        print(f"{'':14s}   violating set: {verts}")
    if not v.answer:
        assert verify_witness(g, k, v)


show("K6", complete(6), 1)
show("C8", cycle(8), 1)
show("C7", cycle(7), 1)              # odd cycle fails: an edge strands an odd path
show("C21", cycle(21), 1)            # no order limit on either certificate
show("family(11,1)", extremal_graph(ExtremalParams(11, 1, 2)), 1)

# extensions are half-integral: weight 1 on the matching, halves on odd cycles
h = extend_matching(complete(6), [(0, 1)])
print("\nK6 extension pinned at (0,1):")
for e, w in sorted(h.items()):
    print(f"  {e}: {w}")
