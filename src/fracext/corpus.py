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

Everything before the search runs on numpy stacks of 0/1 adjacency matrices
of one order.  The generators build a block of parents' children, sized by
SWEEP_CHUNK_ENTRIES, and filter them as arrays; each block's survivors are
canonicalised as they are generated, so the memory held does not grow with
the candidates.  A level's canonical forms are packed triangle rows
(graph6.pack_triangles), sorted and deduplicated as one array and decoded
back into one uint8 stack (graph6.decode_triangles).  One per-order cache
holds the stacks of all graphs, and the next order's children are built
from it directly.  connected_stack filters a cached stack on each call, and
complement_stack builds its levels on each call, up to the complete graph
at most; both hand sweeps the stacks as they are, with no Graph built.
Twins need no row hashing: the rows of u and w differ in
deg u + deg w - 2|N(u) & N(w)| columns, two of them u and w when u, w are
adjacent, so u, w are twins exactly when that count is 2 A[u, w], one
batched matrix product for the whole stack.

Colour refinement runs on the whole chunk at once.  A vertex's signature
is its colour, then the sorted tuple of its neighbours' colours; a round
ranks each graph's distinct signatures in sorted order, and a graph stops
when a round adds no colour.  The signature leads with the old colour, so
each round refines the last.  Colours refine degrees, so the tuples
compared within one colour have equal length, and the smaller one has more
of the first colour at which the counts differ: (colour, tuple) sorts as
(colour, count of colour 0, count of colour 1, ...) with the counts
descending.  A round therefore counts the neighbour colours of every
vertex with one stacked matmul against the one-hot colours in use, writes
each vertex's row (graph, colour, 255 - counts) as bytes (no count or
colour exceeds 127 at orders <= 128), and ranks all rows of the chunk with
one argsort of fixed-width byte strings; the graph leads, so each graph's
rows sort among themselves and take n consecutive places.

A labeling is admissible when it places the cells in order.  When every
cell is a singleton or lies inside one twin class, the cell order itself
gives the form with no search: two admissible labelings differ by a
permutation of each cell's members, a permutation of twins is a product of
twin swaps, and each swap is an automorphism, so the two labelings give the
same bits.  Only the other graphs go to the DFS, seeded with the cells,
and it reads their bit rows off the Graphs of spectral.stack_graphs.
"""
from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .graph6 import decode_triangles, pack_triangles
from .graphs import MAX_VERTICES, CapacityError, Graph
from .spectral import SWEEP_CHUNK_ENTRIES, adjacency_matrices, connected_flags, stack_graphs

# order -> the uint8 adjacency stack of all graphs of that order
_ALL_CACHE: dict[int, np.ndarray] = {}


def _twins(A: np.ndarray) -> np.ndarray:
    """T[b, u, w]: u = w, or u and w are twins in graph b (module docstring)."""
    F = A.astype(np.float32)
    deg = F.sum(axis=2)
    return deg[:, :, None] + deg[:, None, :] - 2 * np.matmul(F, F) == 2 * F


def _ranks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each graph's byte rows ranked lexicographically: ((B, n) ranks, (B,) rank counts).

    rows is (B, n, w) uint8 with n >= 1, and its leading bytes name the
    graph in ascending order, so one argsort of the rows as byte strings
    sorts graph by graph, each graph's n rows in n consecutive places.
    """
    B, n, w = rows.shape
    flat = rows.reshape(B * n, w)
    order = np.argsort(flat.view(f"S{w}").ravel())
    ranked = flat[order].reshape(B, n, w)
    step = np.zeros((B, n), dtype=np.int64)
    step[:, 1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=2)
    rank = np.cumsum(step, axis=1)
    out = np.empty(B * n, dtype=np.int64)
    out[order] = rank.ravel()
    return out.reshape(B, n), rank[:, -1] + 1


def _refine(A: np.ndarray) -> np.ndarray:
    """Colour-refinement colours of a stack, (B, n): each graph's cells are its
    colour classes, in colour order (module docstring)."""
    B, n = A.shape[:2]
    g = np.arange(B)[:, None]
    # the first colours rank the degrees: how many distinct degrees lie below
    deg = A.sum(axis=2)
    seen = np.zeros((B, n + 1), dtype=np.int64)
    seen[g, deg] = 1
    below = np.cumsum(seen, axis=1)
    colours, count = below[g, deg] - 1, below[:, -1]
    head = ((B - 1).bit_length() + 7) // 8
    tag = (g >> np.arange(8 * head - 8, -1, -8)).astype(np.uint8)   # big-endian graph index
    F = A.astype(np.float32)
    live = np.flatnonzero(count < n)
    while live.size:
        c = colours[live]
        used = count[live].max()
        hits = np.matmul(F[live], (c[:, :, None] == np.arange(used)).astype(np.float32))
        rows = np.empty((len(live), n, head + 1 + used), dtype=np.uint8)
        rows[:, :, :head] = tag[live, None, :]
        rows[:, :, head] = c
        rows[:, :, head + 1:] = 255 - hits
        # a round that adds no colour keeps the partition, so the ranks equal the old colours
        colours[live], grown = _ranks(rows)
        more = grown > count[live]
        count[live] = grown
        live = live[more & (grown < n)]
    return colours


def _search(rows: tuple[int, ...], cells: list[list[int]], twin: list[int]) -> int:
    """Packed upper-triangle bits maximal over the labelings that place the
    cells in order; twin[v] is the first member of v's twin class.

    Placing position p appends its adjacency to the p earlier positions,
    earliest most significant: the graph6 column order, so the integer is
    the graph6 payload without padding (graph6.from_triangle_bits decodes it).

    The DFS tries one member per twin class at each node: twins share a
    cell and a chunk, and their swap is an automorphism that fixes every
    placed vertex and keeps every cell, so it maps one subtree onto the
    other leaf for leaf (module docstring).
    """
    n = len(rows)
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
    return best_path[n]


def _canonical_forms(A: np.ndarray) -> np.ndarray:
    """The canonical form of every graph of a stack of one order, as
    pack_triangles rows: the upper triangle maximal over the labelings that
    place the refinement cells in order, read off the cell order when the
    cells force it, else searched."""
    B, n = A.shape[:2]
    nbits = n * (n - 1) // 2
    width, pad = (nbits + 7) // 8, -nbits % 8
    out = np.zeros((B, width), dtype=np.uint8)
    if n <= 1:
        return out
    g = np.arange(B)[:, None]
    colours = _refine(A)
    order = np.argsort(colours, axis=1, kind="stable")   # cells in order, members ascending
    ranked = colours[g, order]
    opens = np.ones((B, n), dtype=bool)
    opens[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    first = order[g, np.maximum.accumulate(np.where(opens, np.arange(n), 0), axis=1)]
    T = _twins(A)
    forced = T[g, order, first].all(axis=1)
    hit = np.flatnonzero(forced)
    labeled = order[hit]
    out[hit] = pack_triangles(A[hit[:, None, None], labeled[:, :, None], labeled[:, None, :]])
    rest = np.flatnonzero(~forced)
    searched = []
    for g, labels, new, twin in zip(stack_graphs(A[rest]), order[rest].tolist(),
                                    opens[rest].tolist(), T[rest].argmax(axis=2).tolist()):
        starts = [p for p, fresh in enumerate(new) if fresh] + [n]
        bits = _search(g.rows, [labels[s:t] for s, t in zip(starts, starts[1:])], twin)
        searched.append((bits << pad).to_bytes(width, "big"))
    out[rest] = np.frombuffer(b"".join(searched), dtype=np.uint8).reshape(len(rest), width)
    return out


def _level(children: Iterable[np.ndarray], n: int) -> np.ndarray:
    """The distinct graphs among the children's stacks, in canonical-form
    order, as one uint8 stack: each non-empty block is canonicalised as it
    comes, and the forms are sorted and deduplicated as fixed-width byte
    strings, whose order is their integers' order."""
    forms = [_canonical_forms(block) for block in children if len(block)]
    if not forms:
        return np.zeros((0, n, n), dtype=np.uint8)
    packed = np.concatenate(forms)
    width = packed.shape[1]
    unique = np.unique(packed.view(f"S{width}").ravel()).view(np.uint8).reshape(-1, width)
    return decode_triangles(n, unique)


def _check_order(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise CapacityError(f"order {n} outside 0..{MAX_VERTICES}")


def _vertex_children(parents: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Children of the order n - 1 parents that add vertex n - 1 and pass
    canonical deletion and the twin-prefix test, a block of parents at a
    time: a block's table of subsets by vertices holds about
    SWEEP_CHUNK_ENTRIES entries."""
    m = n - 1
    S = (np.arange(1 << m)[:, None] >> np.arange(m) & 1).astype(np.uint8)   # subset bits
    SF = S.astype(np.float32)
    s = S.sum(axis=1)
    block = max(1, SWEEP_CHUNK_ENTRIES // (len(S) * n))
    for i in range(0, len(parents), block):
        A = parents[i:i + block]
        deg = A.sum(axis=2)
        top = deg.max(axis=1)[:, None]
        # canonical deletion, first by degree: s > top, or s = top missing every top vertex
        hit = np.matmul((deg == top).astype(np.float32), SF.T)
        keep = (s > top) | (s == top) & (hit == 0)
        # twin prefixes: a chosen vertex has every earlier twin chosen
        before = np.tril(_twins(A), -1).astype(np.float32)   # [p, v, u]: twins u < v
        chosen = np.matmul(SF, before.transpose(0, 2, 1))
        keep &= ((S == 0) | (chosen == before.sum(axis=2)[:, None, :])).all(axis=2)
        par, sub = np.nonzero(keep)
        A, S_, s_ = A[par], S[sub], s[sub]
        # then by neighbour-degree sum among the vertices of the new degree
        d = deg[par] + S_
        sums = (A * d[:, None, :]).sum(axis=2) + S_ * s_[:, None]
        own = (S_ * d).sum(axis=1)
        keep = ~((d == s_[:, None]) & (sums > own[:, None])).any(axis=1)
        child = np.zeros((int(keep.sum()), n, n), dtype=np.uint8)
        child[:, :m, :m] = A[keep]
        child[:, m, :m] = child[:, :m, m] = S_[keep]
        yield child


def _all_stack(n: int) -> np.ndarray:
    """Every graph of order n up to isomorphism, canonically ordered, as one
    uint8 stack; the order is checked before any smaller order is built."""
    _check_order(n)
    cached = _ALL_CACHE.get(n)
    if cached is None:
        if n <= 1:
            cached = np.zeros((1, n, n), dtype=np.uint8)
        else:
            cached = _level(_vertex_children(_all_stack(n - 1), n), n)
        _ALL_CACHE[n] = cached
    return cached


def connected_stack(n: int) -> np.ndarray:
    """The connected graphs of _all_stack(n) in its order, filtered on each call."""
    A = _all_stack(n)
    return A[connected_flags(A)]


def _edge_children(graphs: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Children of the graphs that add one edge uv and pass the twin-prefix
    test and canonical deletion, a block of graphs at a time: a block's
    table of pairs by vertices holds about SWEEP_CHUNK_ENTRIES entries."""
    u, v = np.triu_indices(n, 1)
    block = max(1, SWEEP_CHUNK_ENTRIES // max(1, len(u) * n))
    for i in range(0, len(graphs), block):
        A = graphs[i:i + block]
        T = _twins(A)
        rank = np.tril(T, -1).sum(axis=2)   # earlier members of the vertex's twin class
        # twin prefixes: u first in its class, v first or second after u
        keep = (A[:, u, v] == 0) & (rank[:, u] == 0) & (
            (rank[:, v] == 0) | T[:, u, v] & (rank[:, v] == 1))
        par, e = np.nonzero(keep)
        child = A[par]
        k = np.arange(len(par))
        child[k, u[e], v[e]] = child[k, v[e], u[e]] = 1
        # canonical deletion: no edge beats uv's (larger, smaller) endpoint degree
        d = child.sum(axis=2)
        du, dv = d[k, u[e]], d[k, v[e]]
        hi, lo = np.maximum(du, dv)[:, None], np.minimum(du, dv)[:, None]
        top_nbr = (child * d[:, None, :]).max(axis=2, initial=0)
        yield child[((d < hi) | (d == hi) & (top_nbr <= lo)).all(axis=1)]


def _sparse_stack(n: int, max_edges: int) -> np.ndarray:
    """The graphs on n vertices with <= max_edges edges up to isomorphism,
    level by level in edge count and canonically ordered in each level, as
    one uint8 stack; isolated vertices allowed.  Levels stop at n(n-1)/2 edges."""
    _check_order(n)
    if max_edges < 0:
        raise ValueError("negative edge budget")
    levels = [np.zeros((1, n, n), dtype=np.uint8)]
    for _ in range(min(max_edges, n * (n - 1) // 2)):
        levels.append(_level(_edge_children(levels[-1], n), n))
    return np.concatenate(levels)


def complement_stack(n: int, complement_budget: int) -> np.ndarray:
    """All graphs of order n whose complement has <= complement_budget edges,
    the complements of _sparse_stack(n, complement_budget) in its order, as
    one uint8 stack: the natural exhaustive corpus for edge-count sweeps
    near the complete graph (every graph once the budget reaches n(n-1)/2)."""
    return _sparse_stack(n, complement_budget) ^ (1 - np.eye(n, dtype=np.uint8))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test via canonical forms (corpus-internal sizes):
    the pair is canonicalised as one stack of two."""
    if g.n != h.n:
        return False
    form_g, form_h = _canonical_forms(adjacency_matrices([g, h]))
    return bool((form_g == form_h).all())
