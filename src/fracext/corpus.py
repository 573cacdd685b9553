"""Exhaustive small-graph corpora, one representative per isomorphism class.

Two augmentation axes: by vertex (all graphs / connected graphs of a given
order) and by edge (graphs on a fixed vertex set with few edges, which
enumerates dense sweeps through complements).  Deduplication uses a
canonical form: color refinement orders the vertex classes, then a pruned
DFS maximizes the packed upper-triangle bitstring.

Before canonicalising, a child is kept only if its new element maximises
an isomorphism invariant (McKay's canonical deletion; ties pass): a new
vertex its (degree, neighbour-degree sum), a new edge uv the (max, min) of
its endpoint degrees.  Sound: if x maximises the invariant in a class G,
then G - x is some parent P, and the child of P that adds the image of x
is G with the new element on x, so it passes.  Every class is still
reached, the set of forms drops the rest, and the output is unchanged.

Twins are the cheapest automorphisms, and both the search and the
augmentations skip them.  Vertices u, w are open twins when their rows are
equal (so they are not adjacent) and closed twins when their rows with
their own bits set are equal (so they are adjacent).  Either way every
other vertex sees u and w alike, so the swap (u w) is an automorphism that
fixes every other vertex.  Both relations are equivalences, and no vertex
has both kinds of twin: if u has open twin w and closed twin x, then x is
adjacent to u, hence to w, so w lies in x's closed row, which is u's, and
u, w would be adjacent.  So the twin classes partition the vertices, and
the twin swaps generate the product of the symmetric groups on the classes.

- In the search, the swap of two twins in a cell fixes every placed vertex
  and maps every cell to itself, so the subtree that places one is the
  image of the subtree that places the other, with the same bits: one
  member of each twin class is tried per node.
- In the augmentations, a swap sigma of the parent P maps the child that
  joins a new vertex to sub (or adds the pair uv) onto the child for
  sigma(sub) (or sigma(u)sigma(v)), and the isomorphism fixes the new
  element.  So the two children are isomorphic, the canonical-deletion
  invariants agree on them, and one subset per orbit suffices: the one that
  meets every twin class of P in a prefix of that class in vertex order.
  Every orbit of the product group has exactly one such subset.
"""
from __future__ import annotations

from .graph6 import from_triangle_bits
from .graphs import Graph, complement, empty_graph, is_connected

_ALL_CACHE: dict[int, tuple[Graph, ...]] = {}
_CONN_CACHE: dict[int, tuple[Graph, ...]] = {}


def _twin_classes(rows: tuple[int, ...]) -> list[int]:
    """Masks of the twin classes with at least two members."""
    open_: dict[int, int] = {}
    closed: dict[int, int] = {}
    for v, r in enumerate(rows):
        bit = 1 << v
        open_[r] = open_.get(r, 0) | bit
        closed[r | bit] = closed.get(r | bit, 0) | bit
    return [m for d in (open_, closed) for m in d.values() if m & (m - 1)]


def _twin_prefixes(rows: tuple[int, ...]) -> dict[int, frozenset[int]]:
    """Each twin class mask -> the masks of its prefixes in vertex order."""
    out = {}
    for c in _twin_classes(rows):
        prefixes = [0]
        m = c
        while m:
            low = m & -m
            prefixes.append(prefixes[-1] | low)
            m ^= low
        out[c] = frozenset(prefixes)
    return out


def _refinement_cells(g: Graph) -> list[list[int]]:
    """Color-refinement classes in an isomorphism-invariant order.

    A vertex's signature is its color, then the sorted tuple of its
    neighbours' colors; each round ranks the distinct signatures in sorted
    order.  The signature leads with the old color, so each round refines
    the last, and once the number of cells stops growing the partition and
    its order are fixed.

    The tuple is encoded as an integer with the same order.  Colors refine
    degrees, so the tuples compared within one color have equal length, and
    the smaller one has more of the first color at which the counts differ.
    With base n (no count reaches n), key = sum of n**(n-1-c) over the
    neighbour colors c orders the count vectors color 0 first, and
    color * n**n - key (key < n**n) sorts as (color, tuple).
    """
    n = g.n
    nbrs = []
    for m in g.rows:
        nb = []
        while m:
            low = m & -m
            nb.append(low.bit_length() - 1)
            m ^= low
        nbrs.append(nb)
    big = n ** n
    power = [n ** (n - 1 - c) for c in range(n)]
    colors = [len(nb) for nb in nbrs]
    count = len(set(colors))
    while count < n:
        weight = [power[c] for c in colors].__getitem__
        sigs = [c * big - sum(map(weight, nb)) for c, nb in zip(colors, nbrs)]
        order = sorted(set(sigs))
        if len(order) == count:
            break
        rank = {s: i for i, s in enumerate(order)}
        colors = [rank[s] for s in sigs]
        count = len(order)
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def canonical_form(g: Graph) -> tuple[int, int]:
    """(order, packed upper-triangle bits) maximal over admissible labelings.

    Placing position p appends its adjacency to the p earlier positions,
    earliest most significant: the graph6 column order, so the integer is
    the graph6 payload without padding (graph6.from_triangle_bits decodes it).

    The DFS tries one member per twin class at each node: twins share a
    cell and a chunk, and their swap is an automorphism that fixes every
    placed vertex and keeps every cell, so it maps one subtree onto the
    other leaf for leaf (module docstring).  Open and closed twin classes
    are disjoint, so one representative per vertex names its class.
    """
    n = g.n
    if n <= 1:
        return (n, 0)
    rows = g.rows
    cells = _refinement_cells(g)
    twin = list(range(n))
    for c in _twin_classes(rows):
        first = (c & -c).bit_length() - 1
        while c:
            low = c & -c
            twin[low.bit_length() - 1] = first
            c ^= low
    # position p draws from the cell that covers it; members leave the
    # shared list while placed
    cell_at = [c for c in cells for _ in c]
    placed: list[int] = []
    # best_path[p]: packed bits of the best labeling's first p positions
    best_path = [-1] * (n + 1)
    path = [0] * (n + 1)

    def dfs(p: int, acc: int):
        cell = cell_at[p]
        mx = -1
        for w in cell:
            ch = 0
            row = rows[w]
            for u in placed:
                ch = (ch << 1) | ((row >> u) & 1)
            if ch > mx:
                mx = ch
                tops = [w]
            elif ch == mx:
                tops.append(w)
        acc = (acc << p) | mx
        if acc < best_path[p + 1]:
            return
        path[p + 1] = acc
        if p + 1 == n:
            best_path[:] = path
            return
        tried = set()
        for w in tops:
            if twin[w] in tried:
                continue
            tried.add(twin[w])
            cell.remove(w)
            placed.append(w)
            dfs(p + 1, acc)
            placed.pop()
            cell.append(w)

    dfs(0, 0)
    return (n, best_path[n])


def _outranked(rows: list[int], s: int) -> bool:
    """Whether a vertex of degree s has a larger neighbour-degree sum than the last one."""
    deg = [r.bit_count() for r in rows]
    span = range(len(rows))

    def degree_sum(r: int) -> int:
        return sum(deg[u] for u in span if r >> u & 1)

    last = degree_sum(rows[-1])
    return any(d == s and degree_sum(r) > last for d, r in zip(deg, rows))


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
            prefixes = _twin_prefixes(parent.rows)
            for sub in range(1 << (n - 1)):
                # canonical deletion; the degree test needs no rows
                s = sub.bit_count()
                if s < top or (s == top and sub & at_top):
                    continue
                if any(sub & c not in ok for c, ok in prefixes.items()):
                    continue
                rows = [r | (((sub >> v) & 1) << (n - 1)) for v, r in enumerate(parent.rows)]
                rows.append(sub)
                if s <= top + 1 and _outranked(rows, s):
                    continue
                forms.add(canonical_form(Graph._of(n, tuple(rows))))
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
            prefixes = _twin_prefixes(g.rows)
            for u in range(n):
                for v in range(u + 1, n):
                    pair = 1 << u | 1 << v
                    if g.has_edge(u, v) or any(pair & c not in ok for c, ok in prefixes.items()):
                        continue
                    rows = list(g.rows)
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    if _top_edge(rows, u, v):
                        forms.add(canonical_form(Graph._of(n, tuple(rows))))
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
