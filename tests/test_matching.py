import random
from fractions import Fraction

import pytest

from fracext import (Graph, Verdict, complete, cycle,
                     delete_vertices, disjoint_union, empty_graph, extend_matching,
                     extremal_graph, ExtremalParams, fractional_pm_exists,
                     has_k_matching, is_fext_definitional, is_fext_lemma,
                     isolated_count, matching_number, path, verify_witness)
from fracext.corpus import all_graphs, connected_graphs
from fracext.matching import _covered_sets, _excess_table, _has_k_matching_in_mask
from helpers import brute_matching_number, petersen, random_graph
from lp_oracle import fractional_pm_feasible_lp

HALF = Fraction(1, 2)


def test_matching_number_known():
    assert matching_number(complete(6)) == 3
    assert matching_number(cycle(7)) == 3
    assert matching_number(path(5)) == 2
    assert matching_number(Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])) == 1
    assert matching_number(petersen()) == 5


def test_matching_number_vs_brute_enumerated():
    for n in range(1, 7):
        for g in all_graphs(n):
            assert matching_number(g) == brute_matching_number(g)


def test_matching_number_vs_brute_random():
    rng = random.Random(7)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        assert matching_number(g) == brute_matching_number(g)


def test_matching_number_active_mask_and_stop():
    g = cycle(6)
    assert matching_number(g, active_mask=0b001111) == 2  # induced P4
    assert matching_number(g, stop_at=2) >= 2
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
    assert not is_fext_definitional(g, 1).answer


def test_verify_witness_rejects_frauds():
    g = cycle(7)
    assert not verify_witness(g, 1, Verdict(False, "violating_set", witness_set=0b11))
    # every edge of an even cycle extends, so this claimed witness is bogus
    assert not verify_witness(cycle(8), 1, Verdict(False, "unextendable_matching",
                                                   witness_matching=((1, 2),)))
    assert not verify_witness(complete(6), 1, Verdict(False, "no_k_matching"))
    assert not verify_witness(cycle(7), 1, Verdict(False, "violating_set"))
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
            assert _excess_table(g).tolist() == want, g


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
                pairs = list(_covered_sets(g, k))
                sets = [u for u, _ in pairs]
                assert len(sets) == len(set(sets)), (g, k)
                assert set(sets) == _brute_covered_sets(g, k), (g, k)
                for u, m in pairs:
                    assert len(m) == k and all(g.has_edge(a, b) for a, b in m)
                    covered = [v for e in m for v in e]
                    assert len(set(covered)) == 2 * k
                    assert sum(1 << v for v in covered) == u


def test_definitional_oracle_has_no_matching_cap():
    # K_16 has 1351350 4-matchings but only C(16, 8) = 12870 covered sets
    assert is_fext_definitional(complete(16), 4).answer


def test_lemma_rejects_large_orders():
    # the set-condition scan is a cross-check for small orders only
    with pytest.raises(ValueError):
        is_fext_lemma(cycle(21), 1)


def test_oracle_equivalence_sample():
    """Definition vs set condition on every connected graph through order 6."""
    for n in range(4, 7):
        for g in connected_graphs(n):
            for k in (1, 2):
                a = is_fext_definitional(g, k)
                b = is_fext_lemma(g, k)
                assert a.answer == b.answer, (g, k)
