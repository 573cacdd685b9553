"""Matching machinery and the fractional extendability oracle.

A fractional perfect matching (FPM) is a nonnegative edge weighting with
unit sum at every vertex; existence is decided combinatorially on the
bipartite double cover, and any witness assignment is half-integral
(weights in {0, 1/2, 1}).  A graph of order >= 2k+2 is fractional
k-extendable when every k-matching extends to an FPM that keeps its k
edges at weight 1, that is when G - V(M) has an FPM for every k-matching
M.  A dense graph is confirmed at once when a greedy clique cover has at
most delta - 2k cliques (is_fext_definitional proves it); that
certificate only answers yes.  Every other graph is decided by a walk.
Only the covered set V(M) matters, so the walk visits the distinct
covered sets, each once, in time polynomial for fixed k.  It carries one
maximum double-cover matching down the walk and repairs it at each step:
drop both copies of the two new vertices, free their partners, augment
once from every free left copy.  One pass leaves the matching maximum,
since a left copy with no augmenting path keeps none after other paths
are flipped.  A failure carries both witness kinds: the k-matching M
that does not extend, and a set S that breaks the equivalent set
condition i(G-S) <= |S| - 2k while G[S] holds a k-matching, namely V(M)
plus the deficiency set of G - V(M).  That set is read off the left
copies that alternating paths reach from the free ones.  By
Dulmage-Mendelsohn these are the left copies that some maximum matching
leaves free, the same for every maximum matching, so the repairs do not
change the witness.  verify_witness re-checks either kind.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, isolated_count, neighbourhood

HALF = Fraction(1, 2)
ONE = Fraction(1)

# reason codes
EXTENDABLE = "extendable"
TOO_SMALL = "too_small"             # order < 2k+2: outside the definition
NO_K_MATCHING = "no_k_matching"     # no k-matching to extend
BAD_MATCHING = "unextendable_matching"
BAD_SET = "violating_set"


# Nothing raises this: the definitional oracle has no cap.  It stays
# because perfbench/tracer.py binds matching.OracleCapacityError on install.
class OracleCapacityError(ValueError):
    """Never raised; kept for the benchmark tracer."""


@dataclass(frozen=True)
class Verdict:
    """Oracle answer plus a witness that can be re-verified independently.

    witness_set is a vertex bitmask (violating S); witness_matching is the
    k-matching that failed to extend.  An unextendable_matching verdict
    carries both.
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


def _has_k_matching_in_mask(g: Graph, mask: int, k: int) -> bool:
    """Does g[mask] hold k pairwise disjoint edges?  One blossom search from
    each vertex in turn, starting from the empty matching, grows it to a
    maximum matching (Edmonds 1965); the search stops once it reaches k."""
    if k <= 0:
        return True
    if mask.bit_count() < 2 * k:
        return False
    match = [-1] * g.n
    size = 0
    m = mask
    while m and size < k:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        if match[v] == -1 and _blossom_augment(g, mask, match, v):
            size += 1
    return size >= k


def has_k_matching(g: Graph, k: int) -> bool:
    """Does g contain k pairwise disjoint edges?"""
    return _has_k_matching_in_mask(g, (1 << g.n) - 1, k)


# ---------------------------------------------------------------------------
# fractional perfect matchings via the bipartite double cover
# ---------------------------------------------------------------------------

def _augment(g: Graph, mask: int, match_l: list[int], match_r: list[int], root: int,
             free_r: int) -> int:
    """BFS for an alternating path from free left copy root to a right copy in free_r.

    free_r must be exactly the free right copies in mask.  Flips the path
    and returns the right copy it ends at, or -1 when there is none.
    """
    via = {}
    seen_r = 0
    queue = [root]
    for x in queue:
        cand = g.rows[x] & mask & ~seen_r
        hit = cand & free_r
        if hit:
            u = end = (hit & -hit).bit_length() - 1
            while True:
                nxt = match_l[x]
                match_l[x] = u
                match_r[u] = x
                if x == root:
                    return end
                u = nxt
                x = via[u]
        seen_r |= cand
        while cand:
            low = cand & -cand
            u = low.bit_length() - 1
            cand ^= low
            via[u] = x
            queue.append(match_r[u])
    return -1


def _augment_free(g: Graph, mask: int, match_l: list[int], match_r: list[int], free: int,
                  free_r: int) -> tuple[int, int]:
    """Augment once from each left copy in free; return the left and right copies left free."""
    stuck = 0
    while free:
        low = free & -free
        free ^= low
        u = _augment(g, mask, match_l, match_r, low.bit_length() - 1, free_r)
        if u < 0:
            stuck |= low
        else:
            free_r ^= 1 << u
    return stuck, free_r


def _double_cover_matching(g: Graph, mask: int) -> tuple[list[int], list[int], int, int]:
    """Maximum matching of the double cover restricted to mask.

    Left copies are the vertices themselves, right copies their mirrors;
    u-left is adjacent to v-right iff uv is an edge.  One _augment_free
    pass from the empty matching: each search takes a free right copy
    next to its root before it looks further, so the pass starts greedy.
    Returns (match_l, match_r, free left copies, free right copies); both
    masks are 0 when the matching is perfect.
    """
    match_l = [-1] * g.n
    match_r = [-1] * g.n
    return match_l, match_r, *_augment_free(g, mask, match_l, match_r, mask, mask)


def _deficiency_witness(g: Graph, mask: int, match_r: list[int], free: int) -> int:
    """Turn a maximum double-cover matching with free left copies into S with i(G-S) > |S|.

    reach, the left copies that alternating paths reach from the free
    ones, is the same for every maximum matching (module docstring).  It
    is a Hall violator A of the double cover: every right copy it reaches
    is matched back into A, so |N(A)| < |A|.  Let X = A & N(A) and
    A' = A - X.  A neighbour of an A' vertex that lay in X would put that
    vertex in N(A) & A = X, so N(A') lies in N(A) - X and
    |N(A')| <= |N(A)| - |X| < |A| - |X| = |A'|.  A' is independent, so
    each of its vertices is isolated in G - N(A'), and S = N(A') works.
    """
    reach = free
    queue = [v for v in range(g.n) if (free >> v) & 1]
    for x in queue:
        cand = g.rows[x] & mask
        while cand:
            low = cand & -cand
            w = match_r[low.bit_length() - 1]
            cand ^= low
            if not (reach >> w) & 1:
                reach |= 1 << w
                queue.append(w)
    a = reach & ~neighbourhood(g, reach)
    s = neighbourhood(g, a) & mask
    outside = ((1 << g.n) - 1) & ~mask
    assert isolated_count(g, outside | s) > s.bit_count(), \
        "deficient double cover but no violating set"
    return s


def _half_integral_from_permutation(match_l: list[int], mask: int) -> dict[tuple[int, int], Fraction]:
    """The double-cover matching as an FPM: each vertex v of the mask picks the
    edge {v, match_l[v]}, so an edge that both its ends pick, a 2-cycle, gets 1
    at its second pick, with no Fraction arithmetic, and a longer cycle's edges 1/2."""
    h: dict[tuple[int, int], Fraction] = {}
    while mask:
        low = mask & -mask
        v = low.bit_length() - 1
        mask ^= low
        edge = (min(v, match_l[v]), max(v, match_l[v]))
        h[edge] = ONE if edge in h else HALF
    return h


def fractional_pm_exists(g: Graph, mask: int | None = None):
    """Decide FPM existence; returns (True, half-integral h) or (False, witness S).

    The witness S satisfies i(G-S) > |S| and certifies nonexistence.  A mask
    outside 0..2^n - 1 raises ValueError.
    """
    active = (1 << g.n) - 1 if mask is None else mask
    if not 0 <= active < 1 << g.n:
        raise ValueError(f"mask {mask} is not a vertex set of an order-{g.n} graph")
    if active == 0:
        return True, {}
    match_l, match_r, free, _ = _double_cover_matching(g, active)
    if not free:
        return True, _half_integral_from_permutation(match_l, active)
    return False, _deficiency_witness(g, active, match_r, free)


def extend_matching(g: Graph, matching) -> dict[tuple[int, int], Fraction] | None:
    """Extend the given matching to an FPM with its edges pinned at weight 1.

    Returns the full half-integral assignment, or None when no extension
    exists.  Raises ValueError if the input is not a matching in g.
    """
    used = 0
    edges = []
    for u, v in matching:
        if not (0 <= u < g.n and 0 <= v < g.n and g.has_edge(u, v)):
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
# the extendability oracle
# ---------------------------------------------------------------------------

def is_fext_definitional(g: Graph, k: int) -> Verdict:
    """Fractional k-extendability straight from the definition.

    Before it walks, the oracle tries one certificate of a positive
    answer.  Let t = delta(G) - 2k.  If a greedy clique cover of G has at
    most t cliques, then alpha(G) <= t, since each clique holds at most one
    vertex of an independent set.  For a k-matching M, H = G - V(M) has no
    FPM only if some nonempty independent I of H has |N_H(I)| < |I| (the
    reduction of _deficiency_witness).  But for v in I,
    |N_H(I)| >= |N_H(v)| >= deg v - 2k >= t >= alpha(G) >= |I|.  So every
    such H has an FPM and G is extendable.  A cover needs t >= 1, and then
    n >= delta + 1 >= 2k + 2 and G has a k-matching: a maximal matching of
    fewer than k edges leaves some vertex free, and one of its 2k + 1 or
    more neighbours is free too.  The certificate only ever answers yes,
    so every negative verdict and its witness come from the walk (_walk).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    delta = min((row.bit_count() for row in g.rows), default=0)
    if _clique_cover_within(g, delta - 2 * k):
        return Verdict(True, EXTENDABLE)
    return _walk(g, k)


def _clique_cover_within(g: Graph, t: int) -> bool:
    """Does a greedy clique cover of g use at most t cliques?

    Each clique starts at the uncovered vertex with the fewest uncovered
    neighbours and takes, while any uncovered vertex is adjacent to all of
    it, the one with the most neighbours among those.  The cover stops
    after t cliques, so a no costs at most t of them.
    """
    rows = g.rows
    left = (1 << g.n) - 1
    for _ in range(t):
        if not left:
            break
        v = min((u for u in range(g.n) if left >> u & 1),
                key=lambda u: (rows[u] & left).bit_count())
        left ^= 1 << v
        cand = rows[v] & left
        while cand:
            u = max((w for w in range(g.n) if cand >> w & 1),
                    key=lambda w: (rows[w] & cand).bit_count())
            left ^= 1 << u
            cand &= rows[u]
    # the order-0 graph's cover has no clique, which is at most t only for t >= 0
    return not left and t >= 0


def _walk(g: Graph, k: int) -> Verdict:
    """The verdict for k >= 1 from the covered sets V(M) alone.

    The walk adds edges in increasing order of their larger endpoint, so
    the edges that can extend a partial set U (larger endpoint above max U,
    both endpoints outside U) depend on U alone, and U is extended only
    the first time it is reached; the matching that first covered a
    failing set is the witness.  No cap: every order up to 128 is decided.
    The child U | {a, b} repairs a copy of its parent's maximum
    double-cover matching (module docstring), so a child of a perfect
    parent needs at most two augmentations, and a leaf passes exactly when
    no left copy stays free.  The deficiency set S' of G - V(M) has
    i(G - V(M) - S') > |S'|, so S = S' | V(M) has i(G-S) > |S| - 2k, and M
    lies inside G[S].
    """
    if g.n < 2 * k + 2:
        return Verdict(False, TOO_SMALL)
    if not has_k_matching(g, k):
        return Verdict(False, NO_K_MATCHING)
    full = (1 << g.n) - 1
    below = [row & ((1 << v) - 1) for v, row in enumerate(g.rows)]
    seen: set[int] = set()

    def walk(used, top, chosen, match_l, match_r, free, free_r) -> Verdict | None:
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
                ml, mr = match_l[:], match_r[:]
                fl, fr = free, free_r
                for v in (a, b):
                    if ml[v] != -1:
                        fr |= 1 << ml[v]
                        mr[ml[v]] = -1
                        ml[v] = -1
                    if mr[v] != -1:
                        fl |= 1 << mr[v]
                        ml[mr[v]] = -1
                        mr[v] = -1
                rest = full ^ covered
                fl, fr = _augment_free(g, rest, ml, mr, fl & rest, fr & rest)
                m = chosen + ((a, b),)
                if len(m) < k:
                    found = walk(covered, b, m, ml, mr, fl, fr)
                    if found:
                        return found
                elif fl:
                    s = _deficiency_witness(g, rest, mr, fl) | covered
                    return Verdict(False, BAD_MATCHING, witness_set=s, witness_matching=m)
        return None

    return walk(0, -1, (), *_double_cover_matching(g, full)) or Verdict(True, EXTENDABLE)


def _violates_set_condition(g: Graph, k: int, s: int) -> bool:
    """Is s a vertex set of g with a k-matching in G[s] and i(G-s) > |s| - 2k?"""
    if not 0 <= s < 1 << g.n or not _has_k_matching_in_mask(g, s, k):
        return False
    return isolated_count(g, s) > s.bit_count() - 2 * k


def verify_witness(g: Graph, k: int, verdict: Verdict) -> bool:
    """Independently re-check a negative witness; malformed ones fail."""
    if verdict.answer:
        return True
    if verdict.reason == TOO_SMALL:
        return g.n < 2 * k + 2
    if verdict.reason == NO_K_MATCHING:
        return not has_k_matching(g, k)
    s = verdict.witness_set
    if verdict.reason == BAD_SET:
        return s is not None and _violates_set_condition(g, k, s)
    if verdict.reason == BAD_MATCHING:
        m = verdict.witness_matching
        if m is None or len(m) != k:
            return False
        try:
            stuck = extend_matching(g, m) is None
        except ValueError:   # not a matching of g
            return False
        return stuck and (s is None or _violates_set_condition(g, k, s))
    return False
