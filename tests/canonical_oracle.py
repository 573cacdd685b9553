"""Reference canonical form: the same maximum, found with no pruning.

`fracext.corpus._canonical_forms` returns, for each graph of a stack, the
largest packed upper triangle over the labelings that place the
colour-refinement cells in order.  It refines whole stacks at once, reads the form off the cells when they force
it, and otherwise runs a DFS that skips branches (greedy chunks, prefix
bounds, twin swaps).  This module keeps the refinement graph by graph, on
sorted tuples, and takes the maximum over every such labeling, so a fault
in any of those shortcuts shows as a different value here.  Exponential in the
cell sizes: orders <= 11, since the value must fit an int64.
"""
import itertools

import numpy as np


def refinement_cells_reference(g):
    """Color-refinement classes in an isomorphism-invariant order."""
    n = g.n
    colors = [r.bit_count() for r in g.rows]
    while True:
        sigs = []
        for v in range(n):
            m = g.rows[v]
            nb = []
            while m:
                low = m & -m
                nb.append(colors[low.bit_length() - 1])
                m ^= low
            sigs.append((colors[v], tuple(sorted(nb))))
        order = sorted(set(sigs))
        new = [order.index(s) for s in sigs]
        if new == colors:
            break
        colors = new
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def canonical_form_reference(g):
    """(order, largest packed upper triangle over cell-respecting labelings).

    A labeling lists the vertices position by position, each cell's
    members in some order, the cells in refinement order.  Position p
    contributes its adjacency to positions 0..p-1, earliest most
    significant.
    """
    n = g.n
    if n <= 1:
        return (n, 0)
    if n * (n - 1) // 2 > 63:
        raise ValueError("order too large for the int64 reference")
    adj = np.array([[g.rows[u] >> v & 1 for v in range(n)] for u in range(n)],
                   dtype=np.int64)
    cells = refinement_cells_reference(g)
    labelings = np.array([sum(parts, ()) for parts in
                          itertools.product(*(itertools.permutations(c) for c in cells))])
    value = np.zeros(len(labelings), dtype=np.int64)
    for p in range(n):
        for q in range(p):
            value = value << 1 | adj[labelings[:, q], labelings[:, p]]
    return (n, int(value.max()))
