import math
import random
import timeit
from fractions import Fraction

import pytest

from fracext import (Graph, Verdict, complete, cycle,
                     disjoint_union, empty_graph, extend_matching,
                     extremal_graph, ExtremalParams, fractional_pm_exists,
                     has_k_matching, is_fext_definitional,
                     isolated_count, path, verify_witness)
from fracext.matching import (_clique_cover_within, _double_cover_matching,
                              _half_integral_from_permutation, _has_k_matching_in_mask, _walk)
from covered_set_oracle import covered_sets, is_fext_by_covered_sets
from helpers import (all_graphs, brute_matching_number, connected_graphs,
                     half_integral_by_cycles, petersen, random_connected_graph, random_graph)
from lp_oracle import fractional_pm_feasible_lp
from set_condition_oracle import excess_table, is_fext_lemma

HALF = Fraction(1, 2)


def _k_matching_answers(g, mask=None):
    """has-a-j-matching answers for j = 0 .. n/2 + 1, restricted to mask."""
    if mask is None:
        return [has_k_matching(g, j) for j in range(g.n // 2 + 2)]
    return [_has_k_matching_in_mask(g, mask, j) for j in range(g.n // 2 + 2)]


def _brute_answers(g, active=None):
    nu = brute_matching_number(g, active)
    return [j <= nu for j in range(g.n // 2 + 2)]


def test_has_k_matching_known():
    for g, nu in ((complete(6), 3), (cycle(7), 3), (path(5), 2),
                  (Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), 1),
                  (petersen(), 5)):
        assert _k_matching_answers(g) == [j <= nu for j in range(g.n // 2 + 2)]


def test_has_k_matching_vs_brute_enumerated():
    for n in range(1, 8):
        for g in all_graphs(n):
            assert _k_matching_answers(g) == _brute_answers(g), g


def test_has_k_matching_vs_brute_random():
    rng = random.Random(7)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        assert _k_matching_answers(g) == _brute_answers(g), g
        mask = rng.getrandbits(g.n)
        active = [v for v in range(g.n) if mask >> v & 1]
        assert _k_matching_answers(g, mask) == _brute_answers(g, active), (g, mask)


def test_has_k_matching_in_mask():
    g = cycle(6)
    assert _k_matching_answers(g, 0b001111) == [True, True, True, False, False]  # induced P4
    assert has_k_matching(g, 3) and not has_k_matching(g, 4)
    assert has_k_matching(g, 0)


def test_fpm_spot_cases():
    ok, h = fractional_pm_exists(cycle(5))
    assert ok
    assert all(v == HALF for v in h.values())  # odd cycle takes halves
    ok, h = fractional_pm_exists(complete(4))
    assert ok and sum(h.values()) == 2
    ok, wit = fractional_pm_exists(Graph.from_edges(3, [(0, 1)]))
    assert not ok
    ok, _ = fractional_pm_exists(disjoint_union(cycle(5), cycle(7)))
    assert ok


def test_fpm_rejects_masks_outside_the_graph():
    for mask in (0b110011, -1, 1 << 4):
        with pytest.raises(ValueError, match="not a vertex set"):
            fractional_pm_exists(cycle(4), mask)
    assert fractional_pm_exists(cycle(4), 0b1111)[0]
    assert fractional_pm_exists(cycle(4), 0) == (True, {})


def _check_h(g, h, pinned=()):
    # half-integral values, exact unit vertex sums, pins respected
    sums = {v: Fraction(0) for v in range(g.n)}
    for (u, v), val in h.items():
        assert val in (HALF, Fraction(1)), (u, v, val)
        assert g.has_edge(u, v)
        sums[u] += val
        sums[v] += val
    assert all(s == 1 for s in sums.values())
    for e in pinned:
        assert h[tuple(sorted(e))] == 1


def test_fpm_against_lp_all_small_graphs():
    """Dual route: package FPM decision vs an exact simplex, n <= 6."""
    for n in range(1, 7):
        for g in all_graphs(n):
            ok, cert = fractional_pm_exists(g)
            assert ok == fractional_pm_feasible_lp(g), g
            if ok:
                _check_h(g, cert)
            else:
                # witness S: removing it isolates more than |S| vertices
                assert isolated_count(g, cert) > cert.bit_count()


def test_fpm_witness_on_random_graphs():
    rng = random.Random(11)
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.5))
        ok, cert = fractional_pm_exists(g)
        if ok:
            _check_h(g, cert)
        else:
            assert isolated_count(g, cert) > cert.bit_count()


def test_fpm_weights_match_the_cycle_walk():
    """The per-vertex weight rule gives the cycle walk's FPM on seeded perfect
    double-cover matchings: the same edges, each with the same Fraction."""
    rng = random.Random(25)
    perfect = 0
    while perfect < 400:
        g = random_connected_graph(rng, 8, 20)
        mask = (1 << g.n) - 1
        match_l, _, free, _ = _double_cover_matching(g, mask)
        if free:
            continue
        perfect += 1
        h = _half_integral_from_permutation(match_l, mask)
        assert h == half_integral_by_cycles(match_l, mask), g
        assert all(type(w) is Fraction for w in h.values())


def test_extend_matching_behavior():
    g = complete(6)
    h = extend_matching(g, [(0, 1)])
    _check_h(g, h, pinned=[(0, 1)])
    # C7 k=1: deleting the matched pair leaves an odd path, so no extension
    assert extend_matching(cycle(7), [(0, 1)]) is None
    with pytest.raises(ValueError):
        extend_matching(g, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        extend_matching(cycle(6), [(0, 2)])
    with pytest.raises(ValueError):
        extend_matching(cycle(6), [(0, 6)])


def test_extend_matching_against_lp():
    rng = random.Random(13)
    for _ in range(120):
        g = random_graph(rng, rng.randint(4, 10), rng.uniform(0.25, 0.8))
        edges = g.edges()
        if not edges:
            continue
        m = [edges[rng.randrange(len(edges))]]
        got = extend_matching(g, m)
        want = fractional_pm_feasible_lp(g, m)
        assert (got is not None) == want
        if got is not None:
            _check_h(g, got, pinned=m)


def test_oracle_spot_verdicts():
    v = is_fext_definitional(complete(4), 1)
    assert v.answer and v.reason == "extendable"
    assert is_fext_lemma(complete(4), 1).answer

    v = is_fext_definitional(complete(3), 1)
    assert not v.answer and v.reason == "too_small"
    assert is_fext_lemma(complete(3), 1).reason == "too_small"

    star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    assert is_fext_definitional(star, 2).reason == "no_k_matching"
    assert is_fext_lemma(star, 2).reason == "no_k_matching"

    v = is_fext_definitional(cycle(7), 1)
    assert not v.answer and v.reason == "unextendable_matching"
    w = is_fext_lemma(cycle(7), 1)
    assert not w.answer and w.reason == "violating_set"
    assert verify_witness(cycle(7), 1, v)
    assert verify_witness(cycle(7), 1, w)


def test_oracles_on_extremal_graph():
    g = extremal_graph(ExtremalParams(n=11, k=1, s=2))
    v = is_fext_lemma(g, 1)
    assert not v.answer and v.witness_set == 0b11  # the dominating pair
    assert verify_witness(g, 1, v)
    w = is_fext_definitional(g, 1)
    assert not w.answer and w.witness_matching == ((0, 1),)
    assert w.witness_set == 0b11  # V(M) already strands the independent block
    assert verify_witness(g, 1, w)


def test_verify_witness_rejects_frauds():
    g = cycle(7)
    assert not verify_witness(g, 1, Verdict(False, "violating_set", witness_set=0b11))
    # every edge of an even cycle extends, so this claimed witness is bogus
    assert not verify_witness(cycle(8), 1, Verdict(False, "unextendable_matching",
                                                   witness_matching=((1, 2),)))
    assert not verify_witness(complete(6), 1, Verdict(False, "no_k_matching"))
    assert not verify_witness(cycle(7), 1, Verdict(False, "violating_set"))
    # C8 is fractionally 1-extendable: two edges are not a 1-matching
    assert not verify_witness(cycle(8), 1, Verdict(False, "unextendable_matching",
                                                   witness_matching=((0, 1), (3, 4))))
    # malformed witnesses are refuted, not raised on
    assert not verify_witness(cycle(8), 1, Verdict(False, "unextendable_matching",
                                                   witness_matching=((0, 2),)))
    assert not verify_witness(cycle(8), 1, Verdict(False, "unextendable_matching",
                                                   witness_matching=((0, 8),)))
    assert not verify_witness(cycle(7), 1, Verdict(False, "violating_set",
                                                   witness_set=0b11 << 9))
    assert not verify_witness(cycle(7), 1, Verdict(False, "violating_set", witness_set=-1))
    # a true stuck matching does not vouch for a bogus set riding along
    assert verify_witness(cycle(7), 1, Verdict(False, "unextendable_matching",
                                               witness_matching=((0, 1),)))
    assert not verify_witness(cycle(7), 1, Verdict(False, "unextendable_matching",
                                                   witness_set=0b11 << 9,
                                                   witness_matching=((0, 1),)))
    assert not verify_witness(cycle(7), 1, Verdict(False, "unextendable_matching",
                                                   witness_set=0b11,
                                                   witness_matching=((0, 1),)))
    # positive verdicts carry no certificate, so there is nothing to refute
    assert verify_witness(complete(6), 1, Verdict(True, "extendable"))


def test_excess_table_vs_isolated_count():
    """excess[S] = i(G-S) - |S| for every mask S."""
    rng = random.Random(3)
    for n in range(1, 13):
        graphs = [empty_graph(n), complete(n)]
        graphs += [random_graph(rng, n, rng.random()) for _ in range(2)]
        for g in graphs:
            want = [isolated_count(g, s) - s.bit_count() for s in range(1 << n)]
            assert excess_table(g).tolist() == want, g


def test_k_matching_in_mask_vs_enumeration():
    """Every mask of every connected graph through order 6, k = 1, 2, 3."""
    for n in range(1, 7):
        for g in connected_graphs(n):
            for mask in range(1 << n):
                best = brute_matching_number(g, [v for v in range(n) if (mask >> v) & 1])
                for k in (1, 2, 3):
                    assert _has_k_matching_in_mask(g, mask, k) == (best >= k), (g, mask, k)


def _brute_covered_sets(g, k):
    """V(M) of every k-matching M, by exhaustive recursion over the edges."""
    edges = g.edges()
    found = set()

    def rec(start, used, size):
        if size == k:
            found.add(used)
            return
        for i in range(start, len(edges)):
            bit = (1 << edges[i][0]) | (1 << edges[i][1])
            if not used & bit:
                rec(i + 1, used | bit, size + 1)

    rec(0, 0, 0)
    return found


def test_covered_sets_vs_brute_enumeration():
    """Each distinct V(M) once, with a k-matching of g covering it, through order 7."""
    for n in range(1, 8):
        for g in connected_graphs(n):
            for k in (1, 2, 3):
                pairs = list(covered_sets(g, k))
                sets = [u for u, _ in pairs]
                assert len(sets) == len(set(sets)), (g, k)
                assert set(sets) == _brute_covered_sets(g, k), (g, k)
                for u, m in pairs:
                    assert len(m) == k and all(g.has_edge(a, b) for a, b in m)
                    covered = [v for e in m for v in e]
                    assert len(set(covered)) == 2 * k
                    assert sum(1 << v for v in covered) == u


def test_repaired_walk_vs_fresh_fpm_per_covered_set():
    """The walk's repaired matching gives the Verdict a fresh FPM search per set gives.

    All four fields must agree: both visit the covered sets in one order,
    and the deficiency set does not depend on which maximum matching found it.
    The walk runs on every case, also where the clique cover would settle it.
    """
    cases = [(g, k) for n in range(1, 8) for g in connected_graphs(n) for k in (1, 2, 3)]
    rng = random.Random(8)
    # densities 0.05..0.85 in order, k cycling, so each k meets the whole range;
    # every graph at every k would spend 40 s on the reference's dense k = 3 walks
    for i in range(300):
        p = 0.05 + 0.8 * i / 299
        cases.append((random_connected_graph(rng, 8, 20, p, p), 1 + i % 3))
    negative = 0
    for g, k in cases:
        v = _walk(g, k)
        assert v == is_fext_by_covered_sets(g, k), (g, k)
        negative += v.reason == "unextendable_matching"
    assert negative >= 1000


def test_definitional_oracle_has_no_matching_cap():
    # K_16 has 1351350 4-matchings but only C(16, 8) = 12870 covered sets
    assert is_fext_definitional(complete(16), 4).answer


def test_composed_set_witness_above_order_20():
    """Every stuck matching on seeded random graphs of order 21-40 carries a violating set."""
    rng = random.Random(21)
    stuck = 0
    for _ in range(30):
        # sparse, so most verdicts are negative and the walk stops early
        g = random_connected_graph(rng, 21, 40, 0.03, 0.2)
        for k in (1, 2):
            v = is_fext_definitional(g, k)
            if v.reason != "unextendable_matching":
                continue
            stuck += 1
            covered = sum((1 << a) | (1 << b) for a, b in v.witness_matching)
            assert v.witness_set is not None and v.witness_set & covered == covered
            assert verify_witness(g, k, v), (g, k)
            assert verify_witness(g, k, Verdict(False, "violating_set",
                                                witness_set=v.witness_set)), (g, k)
    assert stuck >= 30


def test_oracle_equivalence_sample():
    """The walk vs set condition on every connected graph through order 6."""
    for n in range(4, 7):
        for g in connected_graphs(n):
            for k in (1, 2):
                a = _walk(g, k)
                b = is_fext_lemma(g, k)
                assert a.answer == b.answer, (g, k)


def _cover_bound(g, k):
    """t = delta(G) - 2k, the most cliques a cover may use to certify."""
    return min(row.bit_count() for row in g.rows) - 2 * k


def test_clique_cover_spot_cases():
    assert _clique_cover_within(complete(6), 1)
    assert not _clique_cover_within(complete(6), 0)
    assert not _clique_cover_within(empty_graph(3), 2)
    assert _clique_cover_within(empty_graph(3), 3)
    # C_5 needs three cliques: two edges and a vertex
    assert not _clique_cover_within(cycle(5), 2) and _clique_cover_within(cycle(5), 3)
    # the order-0 graph has delta = 0 by convention, so t < 0 and no cover certifies it
    assert not _clique_cover_within(empty_graph(0), -2)
    assert is_fext_definitional(empty_graph(0), 1) == Verdict(False, "too_small")


def test_clique_cover_certificate_is_sound_and_tight():
    """Wherever the clique cover confirms a graph, a fresh FPM search per covered set agrees.

    Cases: every connected graph of order <= 8 at k = 1, 2, 3, and seeded
    random graphs of orders 9-40 at densities 0.05-0.95.  The reference
    pays one FPM search for each of up to C(n, 2k) covered sets, so a
    random graph is taken at each k with C(n, 2k) <= 2000: k = 1 at every
    order, k = 2 up to order 16, k = 3 up to order 13.  The bound is
    tight: K_s v (s-2k+1)K_1 at order 2s-2k+1 has a cover of t + 1
    cliques and is not extendable, and so are other graphs of order <= 8.
    """
    cases = [(g, k) for n in range(2, 9) for g in connected_graphs(n) for k in (1, 2, 3)]
    rng = random.Random(23)
    for n in range(9, 41):
        for i in range(10):
            p = 0.05 + 0.1 * i
            g = random_connected_graph(rng, n, n, p, p)
            cases += [(g, k) for k in (1, 2, 3) if math.comb(n, 2 * k) <= 2000]
    fired_small = fired_random = tight = 0
    for g, k in cases:
        if g.n < 2 * k + 2:
            continue
        t = _cover_bound(g, k)
        if _clique_cover_within(g, t):
            assert is_fext_by_covered_sets(g, k).answer, (g, k)
            assert is_fext_definitional(g, k) == Verdict(True, "extendable"), (g, k)
            fired_small += g.n <= 8
            fired_random += g.n > 8
        elif g.n <= 8 and _clique_cover_within(g, t + 1):
            v = is_fext_by_covered_sets(g, k)
            assert is_fext_definitional(g, k) == v, (g, k)
            tight += not v.answer
    for k in (1, 2, 3):
        g = extremal_graph(ExtremalParams(2 * k + 3, k, 2 * k + 1))
        assert _clique_cover_within(g, _cover_bound(g, k) + 1), k
        v = is_fext_by_covered_sets(g, k)
        assert not v.answer and is_fext_definitional(g, k) == v, k
    # the greedy cover confirms 180 small and 175 random cases and meets 12 tight ones
    assert fired_small >= 180 and fired_random >= 175 and tight >= 12, \
        (fired_small, fired_random, tight)


def test_clique_cover_certificate_cost():
    """The certificate stays cheap at order 128: each call under 20 ms, best of three.

    Seeded G(128, p) for p in 0.3..0.9 at k <= 3, and family members
    K_s v (K_{n-2s+2k-1} u (s-2k+1)K_1) up to order 128.
    """
    rng = random.Random(128)
    cases = [(random_graph(rng, 128, p), k) for p in (0.3, 0.5, 0.7, 0.9) for k in (1, 2, 3)]
    cases += [(extremal_graph(ExtremalParams(n, k, s)), k) for k in (1, 2, 3)
              for s in range(2 * k + 1, 64 + k, 6) for n in (2 * s - 2 * k + 1, 128)]
    for g, k in cases:
        t = _cover_bound(g, k)
        best = min(timeit.repeat(lambda: _clique_cover_within(g, t), number=1, repeat=3))
        assert best < 0.020, (g.n, k, t, best)
