"""Matching machinery and the two fractional extendability oracles.

A fractional perfect matching (FPM) is a nonnegative edge weighting with
unit sum at every vertex; existence is decided combinatorially on the
bipartite double cover, and any witness assignment is half-integral
(weights in {0, 1/2, 1}).  A graph of order >= 2k+2 is fractional
k-extendable when every k-matching extends to an FPM that keeps its k
edges at weight 1, that is when G - V(M) has an FPM for every k-matching
M.  Only the covered set V(M) matters, so the definitional oracle walks
the distinct covered sets, each once, and tests each with one FPM
search; it is polynomial for fixed k and decides every theorem verdict.
The set-condition oracle instead demands i(G-S) <= |S| - 2k of every
S whose induced subgraph carries a k-matching; one int8 table of
i(G-S) - |S| over all 2^n vertex masks names the candidate sets.  Its
cost is 2^n whatever k is, so it covers orders up to LEMMA_MAX_ORDER and
serves as the independent cross-check.  Both return Verdicts that carry
re-checkable witnesses.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, isolated_count

HALF = Fraction(1, 2)
ONE = Fraction(1)

# reason codes shared by both oracles
EXTENDABLE = "extendable"
TOO_SMALL = "too_small"             # order < 2k+2: outside the definition
NO_K_MATCHING = "no_k_matching"     # no k-matching to extend
BAD_MATCHING = "unextendable_matching"
BAD_SET = "violating_set"

LEMMA_MAX_ORDER = 20     # largest order the set-condition table covers


# Nothing raises this: the definitional oracle has no cap.  It stays
# because perfbench/tracer.py binds matching.OracleCapacityError on install.
class OracleCapacityError(ValueError):
    """Never raised; kept for the benchmark tracer."""


@dataclass(frozen=True)
class Verdict:
    """Oracle answer plus a witness that can be re-verified independently.

    witness_set is a vertex bitmask (violating S); witness_matching is the
    k-matching that failed to extend.
    """
    answer: bool
    reason: str
    witness_set: int | None = None
    witness_matching: tuple[tuple[int, int], ...] | None = None


# ---------------------------------------------------------------------------
# maximum matching (blossom contraction)
# ---------------------------------------------------------------------------

def _blossom_augment(g: Graph, active: int, match: list[int], root: int) -> bool:
    # standard O(V^2) single-phase search with blossom contraction via bases
    n = g.n
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_blossom = [False] * n
    q = deque([root])
    in_queue[root] = True

    def lca(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int):
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while q:
        v = q.popleft()
        m = g.rows[v] & active
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            if base[v] == base[u] or match[v] == u:
                continue
            if u == root or (match[u] != -1 and parent[match[u]] != -1):
                # odd cycle: contract the blossom
                b = lca(v, u)
                for i in range(n):
                    in_blossom[i] = False
                mark_path(v, b, u)
                mark_path(u, b, v)
                for i in range(n):
                    if (active >> i) & 1 and in_blossom[base[i]]:
                        base[i] = b
                        if not in_queue[i]:
                            in_queue[i] = True
                            q.append(i)
            elif parent[u] == -1:
                parent[u] = v
                if match[u] == -1:
                    # augmenting path found: flip along parents
                    while u != -1:
                        pv = parent[u]
                        nxt = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = nxt
                    return True
                else:
                    w = match[u]
                    if not in_queue[w]:
                        in_queue[w] = True
                        q.append(w)
    return False


def matching_number(g: Graph, active_mask: int | None = None, stop_at: int | None = None) -> int:
    """Maximum matching size on the (optionally masked) vertex set.

    stop_at allows early exit once that many edges are guaranteed.
    """
    active = (1 << g.n) - 1 if active_mask is None else active_mask
    match = [-1] * g.n
    size = 0
    # greedy warm start
    m = active
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        if match[v] == -1:
            cand = g.rows[v] & active
            while cand:
                lu = cand & -cand
                u = lu.bit_length() - 1
                cand ^= lu
                if match[u] == -1:
                    match[u] = v
                    match[v] = u
                    size += 1
                    break
    if stop_at is not None and size >= stop_at:
        return size
    m = active
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        if match[v] == -1 and _blossom_augment(g, active, match, v):
            size += 1
            if stop_at is not None and size >= stop_at:
                return size
    return size


def _has_k_matching_in_mask(g: Graph, mask: int, k: int) -> bool:
    if k <= 0:
        return True
    if mask.bit_count() < 2 * k:
        return False
    return matching_number(g, mask, stop_at=k) >= k


def has_k_matching(g: Graph, k: int) -> bool:
    """Does g contain k pairwise disjoint edges?"""
    return _has_k_matching_in_mask(g, (1 << g.n) - 1, k)


# ---------------------------------------------------------------------------
# fractional perfect matchings via the bipartite double cover
# ---------------------------------------------------------------------------

def _double_cover_matching(g: Graph, mask: int) -> tuple[list[int], int]:
    """Hopcroft-Karp on the double cover restricted to mask.

    Left copies are the vertices themselves, right copies their mirrors;
    u-left is adjacent to v-right iff uv is an edge.  Returns (match_l,
    deficiency-certificate mask of alternating-reachable left vertices);
    the certificate mask is 0 when the matching is perfect.
    """
    n = g.n
    INF = n + 1
    match_l = [-1] * n
    match_r = [-1] * n
    verts = [v for v in range(n) if (mask >> v) & 1]
    # greedy init
    for v in verts:
        cand = g.rows[v] & mask
        while cand:
            low = cand & -cand
            u = low.bit_length() - 1
            cand ^= low
            if match_r[u] == -1:
                match_l[v] = u
                match_r[u] = v
                break
    dist = [INF] * n
    while True:
        q = deque()
        for v in verts:
            if match_l[v] == -1:
                dist[v] = 0
                q.append(v)
            else:
                dist[v] = INF
        found = False
        while q:
            v = q.popleft()
            cand = g.rows[v] & mask
            while cand:
                low = cand & -cand
                u = low.bit_length() - 1
                cand ^= low
                w = match_r[u]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[v] + 1
                    q.append(w)
        if not found:
            break

        def try_augment(v: int) -> bool:
            cand = g.rows[v] & mask
            while cand:
                low = cand & -cand
                u = low.bit_length() - 1
                cand ^= low
                w = match_r[u]
                if w == -1 or (dist[w] == dist[v] + 1 and try_augment(w)):
                    match_l[v] = u
                    match_r[u] = v
                    return True
            dist[v] = INF
            return False

        for v in verts:
            if match_l[v] == -1:
                try_augment(v)
    if all(match_l[v] != -1 for v in verts):
        return match_l, 0
    # final BFS layer marks exactly the alternating-reachable left vertices
    reach = 0
    for v in verts:
        if dist[v] != INF:
            reach |= 1 << v
    return match_l, reach


def _deficiency_witness(g: Graph, mask: int, reach: int) -> int:
    """Turn the reachable-left set into a set S with i(G-S) > |S|.

    reach is a Hall violator A of the double cover: every right copy it
    reaches is matched back into A, so |N(A)| < |A|.  Let X = A & N(A) and
    A' = A - X.  A neighbour of an A' vertex that lay in X would put that
    vertex in N(A) & A = X, so N(A') lies in N(A) - X and
    |N(A')| <= |N(A)| - |X| < |A| - |X| = |A'|.  A' is independent, so
    each of its vertices is isolated in G - N(A'), and S = N(A') works.
    """
    def nbhd(a: int) -> int:
        s = 0
        while a:
            low = a & -a
            s |= g.rows[low.bit_length() - 1] & mask
            a ^= low
        return s

    a = reach & ~nbhd(reach)
    s = nbhd(a)
    outside = ((1 << g.n) - 1) & ~mask
    assert isolated_count(g, outside | s) > s.bit_count(), \
        "deficient double cover but no violating set"
    return s


def _half_integral_from_permutation(match_l: list[int], mask: int) -> dict[tuple[int, int], Fraction]:
    """Decompose the double-cover matching into weight-1 pairs and 1/2 cycles."""
    h: dict[tuple[int, int], Fraction] = {}
    seen = 0
    v0 = mask
    while v0:
        low = v0 & -v0
        start = low.bit_length() - 1
        v0 ^= low
        if (seen >> start) & 1:
            continue
        cyc = [start]
        seen |= 1 << start
        v = match_l[start]
        while v != start:
            cyc.append(v)
            seen |= 1 << v
            v = match_l[v]
        if len(cyc) == 2:
            a, b = cyc
            h[(min(a, b), max(a, b))] = ONE
        else:
            for i, a in enumerate(cyc):
                b = cyc[(i + 1) % len(cyc)]
                h[(min(a, b), max(a, b))] = HALF
    return h


def fractional_pm_exists(g: Graph, mask: int | None = None):
    """Decide FPM existence; returns (True, half-integral h) or (False, witness S).

    The witness S satisfies i(G-S) > |S| and certifies nonexistence.
    """
    active = (1 << g.n) - 1 if mask is None else mask
    if active == 0:
        return True, {}
    match_l, reach = _double_cover_matching(g, active)
    if reach == 0:
        return True, _half_integral_from_permutation(match_l, active)
    return False, _deficiency_witness(g, active, reach)


def extend_matching(g: Graph, matching) -> dict[tuple[int, int], Fraction] | None:
    """Extend the given matching to an FPM with its edges pinned at weight 1.

    Returns the full half-integral assignment, or None when no extension
    exists.  Raises ValueError if the input is not a matching in g.
    """
    used = 0
    edges = []
    for u, v in matching:
        if not g.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge")
        bit = (1 << u) | (1 << v)
        if used & bit:
            raise ValueError("edges share a vertex: not a matching")
        used |= bit
        edges.append((min(u, v), max(u, v)))
    ok, rest = fractional_pm_exists(g, ((1 << g.n) - 1) ^ used)
    if not ok:
        return None
    h = {e: ONE for e in edges}
    h.update(rest)
    return h


# ---------------------------------------------------------------------------
# the two extendability oracles
# ---------------------------------------------------------------------------

def _covered_sets(g: Graph, k: int):
    """Yield (V(M), M) once for each distinct vertex set V(M) of a k-matching M.

    Edges are added in increasing order of their larger endpoint, so the
    edges that can extend a partial set U (larger endpoint above max U,
    both endpoints outside U) depend on U alone, and U is extended only
    the first time it is reached; M is the matching that reached V(M)
    first, its edges in the order added.
    """
    below = [row & ((1 << v) - 1) for v, row in enumerate(g.rows)]
    seen: set[int] = set()

    def extend(used: int, top: int, chosen: tuple[tuple[int, int], ...]):
        for b in range(top + 1, g.n):
            cand = below[b] & ~used
            while cand:
                low = cand & -cand
                a = low.bit_length() - 1
                cand ^= low
                covered = used | low | (1 << b)
                if covered in seen:
                    continue
                seen.add(covered)
                m = chosen + ((a, b),)
                if len(m) == k:
                    yield covered, m
                else:
                    yield from extend(covered, b, m)

    yield from extend(0, -1, ())


def is_fext_definitional(g: Graph, k: int) -> Verdict:
    """Fractional k-extendability straight from the definition.

    A k-matching M extends exactly when G - V(M) has an FPM, so each
    distinct covered set from _covered_sets gets one FPM search on the
    double cover; the matching that first covered a failing set is the
    witness.  No cap: every order up to 128 is decided.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n < 2 * k + 2:
        return Verdict(False, TOO_SMALL)
    full = (1 << g.n) - 1
    found_any = False
    for used, m in _covered_sets(g, k):
        found_any = True
        if _double_cover_matching(g, full ^ used)[1]:
            return Verdict(False, BAD_MATCHING, witness_matching=m)
    if not found_any:
        return Verdict(False, NO_K_MATCHING)
    return Verdict(True, EXTENDABLE)


def _excess_table(g: Graph):
    """excess[S] = i(G-S) - |S| for every vertex mask S, in mask order.

    v adds 1 where (S & (N(v) | v)) == N(v), that is where it lies outside
    S with N(v) inside S, and takes 1 where (S & v) == v.  A test
    (S & x) == y holds when it holds on the high bits and on the low h
    bits of S, so each is an outer AND of two 2^(n/2)-entry tests and no
    array of 2^n masks is made.  Values stay in [-n, n], so int8 holds
    them.
    """
    h = g.n // 2
    low = (1 << h) - 1
    lo = np.arange(1 << h, dtype=np.uint32)
    hi = np.arange(1 << (g.n - h), dtype=np.uint32)[:, None]

    def masked_equal(x: int, y: int):
        return ((hi & (x >> h)) == (y >> h)) & ((lo & (x & low)) == (y & low))

    excess = np.zeros((hi.size, lo.size), dtype=np.int8)
    for v, row in enumerate(g.rows):
        bit = 1 << v
        excess += masked_equal(row | bit, row)
        excess -= masked_equal(bit, bit)
    return excess.reshape(-1)


def is_fext_lemma(g: Graph, k: int) -> Verdict:
    """Fractional k-extendability via the set condition, for n <= LEMMA_MAX_ORDER.

    The candidates are the S with excess[S] > -2k (_excess_table), in
    ascending mask order; the first whose induced subgraph has a
    k-matching is a violator and the witness, and no violator certifies
    extendability.  Graphs without a k-matching, or of order < 2k+2, get
    distinct negative verdicts.  Larger orders raise ValueError;
    is_fext_definitional decides them.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n < 2 * k + 2:
        return Verdict(False, TOO_SMALL)
    if g.n > LEMMA_MAX_ORDER:
        raise ValueError(f"set-condition scan covers orders <= {LEMMA_MAX_ORDER}, got {g.n}")
    if not has_k_matching(g, k):
        return Verdict(False, NO_K_MATCHING)
    for s in map(int, np.nonzero(_excess_table(g) > -2 * k)[0]):
        if _has_k_matching_in_mask(g, s, k):
            return Verdict(False, BAD_SET, witness_set=s)
    return Verdict(True, EXTENDABLE)


def verify_witness(g: Graph, k: int, verdict: Verdict) -> bool:
    """Independently re-check a negative witness."""
    if verdict.answer:
        return True
    if verdict.reason == TOO_SMALL:
        return g.n < 2 * k + 2
    if verdict.reason == NO_K_MATCHING:
        return not has_k_matching(g, k)
    if verdict.reason == BAD_SET:
        s = verdict.witness_set
        if s is None or not _has_k_matching_in_mask(g, s, k):
            return False
        return isolated_count(g, s) > s.bit_count() - 2 * k
    if verdict.reason == BAD_MATCHING:
        m = verdict.witness_matching
        return m is not None and extend_matching(g, m) is None
    return False
