"""Exhaustive small-graph corpora, one representative per isomorphism class.

Two augmentation axes: by vertex (all graphs / connected graphs of a given
order) and by edge (graphs on a fixed vertex set with few edges, which
enumerates dense sweeps through complements).  Deduplication uses a
canonical form: color refinement orders the vertex classes, then a pruned
DFS maximizes the packed upper-triangle bitstring.  Identical-row twins
collapse to a single branch, which keeps the families with large symmetric
blocks (cliques, independent sets) linear.

Before canonicalising, a child is kept only if its new element maximises
an isomorphism invariant (McKay's canonical deletion; ties pass): a new
vertex its (degree, neighbour-degree sum), a new edge uv the (max, min) of
its endpoint degrees.  Sound: if x maximises the invariant in a class G,
then G - x is some parent P, and the child of P that adds the image of x
is G with the new element on x, so it passes.  Every class is still
reached, the set of forms drops the rest, and the output is unchanged.
"""
from __future__ import annotations

from .graph6 import from_triangle_bits
from .graphs import Graph, complement, empty_graph, is_connected

_ALL_CACHE: dict[int, tuple[Graph, ...]] = {}
_CONN_CACHE: dict[int, tuple[Graph, ...]] = {}


def _refinement_cells(g: Graph) -> list[list[int]]:
    """Color-refinement classes in an isomorphism-invariant order."""
    n = g.n
    colors = [g.degree(v) for v in range(n)]
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


def canonical_form(g: Graph) -> tuple[int, int]:
    """(order, packed upper-triangle bits) maximal over admissible labelings.

    Placing position p appends its adjacency to the p earlier positions,
    earliest most significant: the graph6 column order, so the integer is
    the graph6 payload without padding (graph6.from_triangle_bits decodes it).
    """
    n = g.n
    if n <= 1:
        return (n, 0)
    cells = _refinement_cells(g)
    # cell membership in placement order: cell boundaries are fixed
    remaining = [list(c) for c in cells]
    placed: list[int] = []
    best_acc: int | None = None
    best_path: list[int] = [0] * (n + 1)
    path: list[int] = [0] * (n + 1)

    def dfs(p: int, acc: int):
        nonlocal best_acc
        if p == n:
            if best_acc is None or acc > best_acc:
                best_acc = acc
                best_path[:] = path
            return
        cell = next(c for c in remaining if c)
        chunk_of = []
        mx = -1
        for w in cell:
            ch = 0
            row = g.rows[w]
            for u in placed:
                ch = (ch << 1) | ((row >> u) & 1)
            chunk_of.append((w, ch))
            if ch > mx:
                mx = ch
        acc2 = (acc << p) | mx
        if best_acc is not None and acc2 < best_path[p + 1]:
            return
        path[p + 1] = acc2
        tried_rows = []
        for w, ch in chunk_of:
            # identical-row twins are interchangeable: explore one
            if ch != mx or g.rows[w] in tried_rows:
                continue
            tried_rows.append(g.rows[w])
            cell.remove(w)
            placed.append(w)
            dfs(p + 1, acc2)
            placed.pop()
            cell.append(w)

    dfs(0, 0)
    assert best_acc is not None
    return (n, best_acc)


def _outranked(rows: list[int], s: int) -> bool:
    """Whether a vertex of degree s has a larger neighbour-degree sum than the last one."""
    deg = [r.bit_count() for r in rows]
    sums = [sum(deg[u] for u in range(len(rows)) if r >> u & 1) for r in rows]
    return any(d == s and t > sums[-1] for d, t in zip(deg, sums))


def all_graphs(n: int) -> tuple[Graph, ...]:
    """Every graph of order n up to isomorphism, canonically ordered."""
    if n < 0:
        raise ValueError("negative order")
    cached = _ALL_CACHE.get(n)
    if cached is not None:
        return cached
    if n <= 1:
        out = (empty_graph(n),)
    else:
        forms: set[tuple[int, int]] = set()
        for parent in all_graphs(n - 1):
            degs = [r.bit_count() for r in parent.rows]
            top = max(degs)
            at_top = sum(1 << v for v, d in enumerate(degs) if d == top)
            for sub in range(1 << (n - 1)):
                # canonical deletion; the degree test needs no rows
                s = sub.bit_count()
                if s < top or (s == top and sub & at_top):
                    continue
                rows = [r | (((sub >> v) & 1) << (n - 1)) for v, r in enumerate(parent.rows)]
                rows.append(sub)
                if s <= top + 1 and _outranked(rows, s):
                    continue
                forms.add(canonical_form(Graph(n, tuple(rows))))
        out = tuple(from_triangle_bits(*f) for f in sorted(forms))
    _ALL_CACHE[n] = out
    return out


def connected_graphs(n: int) -> tuple[Graph, ...]:
    cached = _CONN_CACHE.get(n)
    if cached is None:
        cached = tuple(g for g in all_graphs(n) if is_connected(g))
        _CONN_CACHE[n] = cached
    return cached


def _top_edge(rows: list[int], u: int, v: int) -> bool:
    """Whether uv maximises (larger, smaller) endpoint degree over all edges."""
    deg = [r.bit_count() for r in rows]
    hi, lo = max(deg[u], deg[v]), min(deg[u], deg[v])
    return all(d < hi or d == hi and all(deg[y] <= lo for y in range(len(rows)) if r >> y & 1)
               for d, r in zip(deg, rows))


def sparse_graphs(n: int, max_edges: int) -> tuple[Graph, ...]:
    """Graphs on n labeled-then-canonicalized vertices with <= max_edges
    edges, up to isomorphism; isolated vertices allowed."""
    if max_edges < 0:
        raise ValueError("negative edge budget")
    current = [empty_graph(n)]
    out = list(current)
    for _ in range(max_edges):
        forms: set[tuple[int, int]] = set()
        for g in current:
            for u in range(n):
                for v in range(u + 1, n):
                    rows = list(g.rows)
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    if not g.has_edge(u, v) and _top_edge(rows, u, v):
                        forms.add(canonical_form(Graph(n, tuple(rows))))
        current = [from_triangle_bits(*f) for f in sorted(forms)]
        out.extend(current)
    return tuple(out)


def complement_corpus(n: int, complement_budget: int) -> tuple[Graph, ...]:
    """All graphs of order n whose complement has <= complement_budget edges.

    This is the natural exhaustive corpus for edge-count sweeps near the
    complete graph.
    """
    return tuple(complement(g) for g in sparse_graphs(n, complement_budget))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test via canonical forms (corpus-internal sizes)."""
    return g.n == h.n and canonical_form(g) == canonical_form(h)
