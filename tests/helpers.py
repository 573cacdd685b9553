"""Shared test utilities: reference implementations kept deliberately naive."""
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from fracext import ExtremalParams, Graph, corpus, extremal_graph, neighbourhood, theorems
from fracext.graph6 import _header
from fracext.spectral import (adjacency_matrices, distance_matrices, signless_laplacians,
                              stack_graphs)


# the corpora as Graph tuples, in the order of the stacks they are built from
def all_graphs(n):
    return stack_graphs(corpus._all_stack(n))


def connected_graphs(n):
    return stack_graphs(corpus.connected_stack(n))


def sparse_graphs(n, max_edges):
    return stack_graphs(corpus._sparse_stack(n, max_edges))


def complement_corpus(n, complement_budget):
    return stack_graphs(corpus.complement_stack(n, complement_budget))


def complement(g):
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ r ^ (1 << v)) for v, r in enumerate(g.rows)))


# graph statistics on the bit rows: the reference for spectral.stack_stats
def connected_component_mask(g, start=0):
    seen = 1 << start
    frontier = seen
    while frontier:
        frontier = neighbourhood(g, frontier) & ~seen
        seen |= frontier
    return seen


def is_connected(g):
    return g.n == 0 or connected_component_mask(g, 0) == (1 << g.n) - 1


@dataclass(frozen=True)
class GraphStats:
    n: int
    e: int
    min_degree: int
    connected: bool


def graph_stats(g):
    degrees = [r.bit_count() for r in g.rows]
    return GraphStats(g.n, sum(degrees) // 2, min(degrees, default=0), is_connected(g))


# one graph's matrices: the stacked builders on a stack of one
def adjacency_matrix(g):
    return adjacency_matrices([g])[0]


def signless_laplacian(g):
    return signless_laplacians(adjacency_matrices([g]))[0]


def distance_matrix_array(g):
    return distance_matrices(adjacency_matrices([g]))[0]


def canonical_forms(graphs):
    """(order, packed upper-triangle bits) of each graph of one order,
    canonicalised as one stack: each packed row read as an integer."""
    n = graphs[0].n
    pad = -(n * (n - 1) // 2) % 8
    return [(n, int.from_bytes(row.tobytes(), "big") >> pad)
            for row in corpus._canonical_forms(adjacency_matrices(graphs))]


def canonical_form(g):
    """(order, packed upper-triangle bits) of one graph: the stack of one."""
    return canonical_forms([g])[0]


def grid_groups(lemma, k_max, n_max, delta_max=None):
    """The (k, delta, n, members, first) groups of lemma_grid(lemma, ...), in its order."""
    for k in range(1, k_max + 1):
        spec = theorems.theorem_spec(theorems._LEMMA_THEOREM[lemma], k)
        for delta in range(2 * k + 1, delta_max + 1) if spec.uses_delta else (None,):
            yield from theorems._grid_groups(spec, delta, range(spec.min_order(delta), n_max + 1))


def with_member_cubic(real, quantity, member, coefficients):
    """family_coefficients real, with the (n, k, s) member's row in every
    call for quantity replaced by the coefficients (c2, c1, c0)."""
    def patched(q, members):
        C = real(q, members)
        if q == quantity:
            C[(np.asarray(members) == member).all(axis=1)] = coefficients
        return C
    return patched


def brute_matching_number(g, active=None):
    """Maximum matching by exhaustive recursion.  Exponential, n <= ~10 only."""
    act = set(range(g.n)) if active is None else set(active)
    edges = [e for e in g.edges() if e[0] in act and e[1] in act]
    best = 0

    def rec(i, used, size):
        nonlocal best
        if size > best:
            best = size
        for j in range(i, len(edges)):
            u, v = edges[j]
            if u not in used and v not in used:
                rec(j + 1, used | {u, v}, size + 1)

    rec(0, set(), 0)
    return best


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng, n_lo=4, n_hi=30, p_lo=0.12, p_hi=0.9):
    """Random spanning tree plus density-p extras; connected by construction."""
    n = rng.randint(n_lo, n_hi)
    p = rng.uniform(p_lo, p_hi)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    for i in range(1, n):
        a, b = perm[i], perm[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def half_integral_by_cycles(match_l, mask):
    """The FPM of a perfect double-cover matching by walking its permutation
    cycles: a 2-cycle's edge gets 1, each edge of a longer cycle 1/2.  The
    reference for matching._half_integral_from_permutation's per-vertex rule."""
    h, seen = {}, set()
    for start in (v for v in range(mask.bit_length()) if (mask >> v) & 1):
        if start in seen:
            continue
        cyc, v = [start], match_l[start]
        while v != start:
            cyc.append(v)
            v = match_l[v]
        seen.update(cyc)
        weight = Fraction(1) if len(cyc) == 2 else Fraction(1, 2)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            h[(min(a, b), max(a, b))] = weight
    return h


def reference_graph6(g):
    """graph6 by string slicing: one '0'/'1' character per pair, six at a time."""
    # column j lists (0,j), ..., (j-1,j): the low j bits of row j, reversed
    tri = "".join(format(g.rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n))
    tri += "0" * (-len(tri) % 6)
    return _header(g.n) + "".join(chr(int(tri[t:t + 6], 2) + 63) for t in range(0, len(tri), 6))


def relabel(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def petersen():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return Graph.from_edges(10, edges)


def floyd_warshall(g):
    """All-pairs distances by Floyd-Warshall over g.edges(); math.inf where
    no path exists.  Cubic in n and shares no code with the BFS under test."""
    n = g.n
    D = [[0 if u == v else math.inf for v in range(n)] for u in range(n)]
    for u, v in g.edges():
        D[u][v] = D[v][u] = 1
    for w in range(n):
        for u in range(n):
            for v in range(n):
                if D[u][w] + D[w][v] < D[u][v]:
                    D[u][v] = D[u][w] + D[w][v]
    return D


def distance_matrices_by_frontier(A):
    """All-pairs distances of an (m, n, n) adjacency stack by a float64 BFS
    from every source at once: each level's frontier is (frontier @ A) > 0
    minus what was seen, scattered into D at its level.  The reference for
    spectral.distance_matrices's sum of reach masks."""
    A = A.astype(np.float64)
    D = np.zeros(A.shape, dtype=np.int64)
    frontier = np.broadcast_to(np.eye(A.shape[1], dtype=bool), A.shape).copy()
    seen = frontier.copy()
    d = 0
    while frontier.any():
        d += 1
        frontier = (np.matmul(frontier, A) > 0) & ~seen
        D[frontier] = d
        seen |= frontier
    if not seen.all():
        raise ValueError("distance matrix requires a connected graph")
    return D


def positional_blocks_prime(p):
    """Partition for the boundary order n = 2s-2k+1 (no inner clique):
    the independent block splits into s-2k vertices and one singleton."""
    if p.inner_size != 0:
        raise ValueError("prime partition only applies when the inner clique is empty")
    s = p.s
    return (range(0, s), range(s, p.n - 1), range(p.n - 1, p.n))


def embeds_in_extremal(g, k, s_mask):
    """Certify g as a spanning subgraph of extremal_graph(n, k, |S|).

    S must be a violating set: g - S leaves at least |S|-2k+1 isolated
    vertices.  The embedding sends S to the dominating clique, t of the
    isolated vertices to the independent block, everything else inside the
    inner clique; edge containment is then checked explicitly.
    """
    n = g.n
    s = s_mask.bit_count()
    t = s - 2 * k + 1
    iso = [v for v in range(n) if not (s_mask >> v) & 1 and g.rows[v] & ~s_mask == 0]
    if len(iso) < t or t < 1:
        return False
    pattern = extremal_graph(ExtremalParams(n, k, s))
    order = ([v for v in range(n) if (s_mask >> v) & 1]
             + [v for v in range(n) if not (s_mask >> v) & 1 and v not in iso[:t]]
             + iso[:t])
    slot = {v: i for i, v in enumerate(order)}
    return all(pattern.has_edge(slot[u], slot[v]) for u, v in g.edges())
