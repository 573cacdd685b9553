#!/usr/bin/env python3
# Two independent routes to fractional k-extendability, with certificates.
from fracext import (complete, cycle, extremal_graph, ExtremalParams,
                     extend_matching, is_fext_definitional, is_fext_lemma,
                     verify_witness)


def show(name, g, k):
    a = is_fext_definitional(g, k)   # test each k-matching's covered vertex set once
    b = is_fext_lemma(g, k)          # scan vertex sets for the counting condition (n <= 20)
    print(f"{name:14s} k={k}: definitional={a.answer} ({a.reason}), "
          f"set condition={b.answer} ({b.reason})")
    if a.witness_matching:
        print(f"{'':14s}   stuck matching: {a.witness_matching}")
    if b.witness_set is not None:
        verts = [v for v in range(g.n) if (b.witness_set >> v) & 1]
        print(f"{'':14s}   violating set: {verts}")
    assert a.answer == b.answer      # the two routes must agree
    if not a.answer:
        assert verify_witness(g, k, a) and verify_witness(g, k, b)


show("K6", complete(6), 1)
show("C8", cycle(8), 1)
show("C7", cycle(7), 1)              # odd cycle fails: an edge strands an odd path
show("family(11,1)", extremal_graph(ExtremalParams(11, 1, 2)), 1)

# extensions are half-integral: weight 1 on the matching, halves on odd cycles
h = extend_matching(complete(6), [(0, 1)])
print("\nK6 extension pinned at (0,1):")
for e, w in sorted(h.items()):
    print(f"  {e}: {w}")
