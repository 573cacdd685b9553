"""Acceptance gate: eleven criteria, one test each, run in order.

Every criterion states its own tolerance inline.  Shared expensive
artifacts (the order-8 corpus, the oracle survey) are computed once at
module level and reused.
"""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fracext import (DEFAULT_TOL, ExtremalParams, Graph, charpoly3,
                     closed_form, extremal_graph, largest_eigenvalue,
                     largest_real_root, parse_graph6, quotient)
from fracext.corpus import are_isomorphic
from fracext.matching import _walk, extend_matching, verify_witness
from fracext.spectral import positional_blocks
from fracext.theorems import (lemma_grid, sample_spanning_subgraphs, sharpness,
                              sweep, theorem_spec)
from helpers import (complement_corpus, connected_graphs, distance_matrix_array, is_connected,
                     positional_blocks_prime, random_connected_graph, signless_laplacian)
from set_condition_oracle import is_fext_lemma

HALF = Fraction(1, 2)
ONE = Fraction(1)

_SURVEY = None


def _oracle_survey():
    """Both oracles on every connected graph of order 4..8, k in {1,2}.

    The definitional side is the covered-set walk on every graph, also
    where the clique-cover certificate would settle it first.
    """
    global _SURVEY
    if _SURVEY is None:
        disagreements = []
        bad_witness = []
        extendable = []
        scanned = 0
        for n in range(4, 9):
            for g in connected_graphs(n):
                for k in (1, 2):
                    scanned += 1
                    a = _walk(g, k)
                    b = is_fext_lemma(g, k)
                    if a.answer != b.answer:
                        disagreements.append((g, k, a, b))
                        continue
                    if not a.answer and not (verify_witness(g, k, a)
                                             and verify_witness(g, k, b)):
                        bad_witness.append((g, k))
                    if a.answer:
                        extendable.append((g, k))
        _SURVEY = (scanned, disagreements, bad_witness, extendable)
    return _SURVEY


def test_criterion_01_oracle_equivalence():
    scanned, disagreements, bad_witness, extendable = _oracle_survey()
    assert scanned == 2 * (6 + 21 + 112 + 853 + 11117)
    assert disagreements == [], f"{len(disagreements)} oracle disagreements"
    assert bad_witness == [], f"{len(bad_witness)} unverifiable witnesses"
    print(f"[criterion 1] PASS: {scanned} oracle pairs agree, "
          f"{len(extendable)} extendable")


def _criterion2_points():
    """Every closed form against its constructed quotient, params <= 60."""
    for k in range(1, 5):
        for n in range(2 * k + 2, 61):
            yield "f2", dict(n=n, k=k), ExtremalParams(n, k, 2 * k), "q", "std"
        for s in range(2 * k, 61):
            for n in range(2 * s - 2 * k + 2, 61):
                yield "f_pi_1", dict(n=n, k=k, s=s), ExtremalParams(n, k, s), "q", "std"
                yield "phi_B1", dict(n=n, k=k, s=s), ExtremalParams(n, k, s), "d", "std"
        for s in range(2 * k + 1, 61):
            n = 2 * s - 2 * k + 1
            if n <= 60:
                yield "f_pi_prime_1", dict(k=k, s=s), ExtremalParams(n, k, s), "q", "prime"
        for d in range(2 * k + 1, 61):
            for n in range(2 * d - 2 * k + 2, 61):
                yield "f3_q", dict(n=n, k=k, delta=d), ExtremalParams(n, k, d), "q", "std"
                yield "phi_B3_case1", dict(n=n, k=k, delta=d), ExtremalParams(n, k, d), "d", "std"
            for s2 in range(d + 1, 61):
                n = 2 * s2 - 2 * k + 1
                if n <= 60:
                    yield ("phi_B3_case2", dict(k=k, s=s2, delta=d),
                           ExtremalParams(n, k, d), "d", "std")


def test_criterion_02_closed_forms_exact():
    counts = {}
    for family, kwargs, p, matrix, blocks_kind in _criterion2_points():
        g = extremal_graph(p)
        M = signless_laplacian(g) if matrix == "q" else distance_matrix_array(g)
        blocks = positional_blocks(p) if blocks_kind == "std" else positional_blocks_prime(p)
        q = quotient(M, blocks)
        assert q.equitable, (family, kwargs)
        assert charpoly3(q) == closed_form(family, **kwargs), (family, kwargs)
        counts[family] = counts.get(family, 0) + 1
    assert set(counts) == {"f2", "f_pi_1", "f_pi_prime_1", "f3_q",
                           "phi_B1", "phi_B3_case1", "phi_B3_case2"}
    total = sum(counts.values())
    print(f"[criterion 2] PASS: {total} exact quotient identities across "
          f"{len(counts)} families")


def test_criterion_03_calibration():
    for m in range(2, 201):
        J = np.ones((m, m), dtype=np.int64)
        q = largest_eigenvalue((m - 2) * np.eye(m, dtype=np.int64) + J)
        assert abs(q - (2 * m - 2)) <= 1e-9 * (2 * m - 2), m
        mu = largest_eigenvalue(J - np.eye(m, dtype=np.int64))
        assert abs(mu - (m - 1)) <= 1e-9 * (m - 1), m
    checked = 0
    for k in range(1, 5):
        for n in range(2 * k + 2, 61):
            root = largest_real_root(closed_form("f2", n=n, k=k))
            eig = largest_eigenvalue(
                signless_laplacian(extremal_graph(ExtremalParams(n, k, 2 * k))))
            assert abs(root - eig) <= 1e-8, (n, k)
            checked += 1
    print(f"[criterion 3] PASS: complete-graph calibration m<=200 at 1e-9, "
          f"{checked} dense-family roots at 1e-8")


def test_criterion_04_edge_bound_dense_corpus():
    corpus = complement_corpus(11, 8)
    assert len(corpus) == 752
    rep = sweep(corpus, theorem_spec("edge_1", 1))
    assert rep.scanned == 752
    assert not rep.counterexamples
    assert len(rep.equality_cases) == 1
    eq = parse_graph6(rep.equality_cases[0].graph6)
    assert are_isomorphic(eq, extremal_graph(ExtremalParams(11, 1, 2)))
    # its complement is the star on nine vertices plus two isolated ones
    comp_degrees = sorted(10 - d for d in eq.degree_sequence())
    assert comp_degrees == [0, 0] + [1] * 8 + [8]
    print(f"[criterion 4] PASS: 752 dense graphs swept, unique equality case "
          f"is the dense family graph")


def test_criterion_05_q_bound_full_order8():
    corpus = connected_graphs(8)
    assert len(corpus) == 11117
    rep = sweep(corpus, theorem_spec("q_1", 1))
    assert rep.scanned == 11117
    assert not rep.counterexamples
    assert len(rep.equality_cases) == 1
    eq = parse_graph6(rep.equality_cases[0].graph6)
    assert are_isomorphic(eq, extremal_graph(ExtremalParams(8, 1, 2)))
    print(f"[criterion 5] PASS: 11117 connected graphs swept, "
          f"{rep.confirmed} confirmed, unique equality case")


def test_criterion_06_q_comparison_grid():
    rep = lemma_grid("q1q2", k_max=3, n_max=40)
    assert rep.ok and rep.points == 1001
    eq_rows = [r for r in rep.rows if r.equality_expected]
    assert all(r.s == 2 * r.k for r in eq_rows)
    assert rep.equality_points == len(eq_rows) > 0
    assert rep.min_strict_margin > 10 * DEFAULT_TOL
    assert rep.max_crosscheck_error < 1e-8
    print(f"[criterion 6] PASS: {rep.points} grid points, "
          f"{rep.equality_points} equality rows, strict margin "
          f"{rep.min_strict_margin:.3g}")


def test_criterion_07_delta_comparison_grids():
    q_rep = lemma_grid("q1q3", k_max=2, n_max=90, delta_max=7)
    assert q_rep.ok and q_rep.points > 0
    assert q_rep.max_crosscheck_error < 1e-8
    mu_rep = lemma_grid("mu_compare", k_max=2, n_max=90, delta_max=7)
    assert mu_rep.ok and mu_rep.points > 0
    assert mu_rep.max_crosscheck_error < 1e-8
    print(f"[criterion 7] PASS: {q_rep.points} + {mu_rep.points} comparison "
          f"points, zero violations")


def _sharpness_grid():
    for k in (1, 2):
        for n in range(2 * k + 9, 2 * k + 18):
            yield "edge_1", ExtremalParams(n, k, 2 * k)
        for n in range(2 * k + 6, 2 * k + 15):
            yield "q_1", ExtremalParams(n, k, 2 * k)
        for d in (2 * k + 1, 2 * k + 2):
            for n in range(6 * d, 6 * d + 5):
                yield "edge_2", ExtremalParams(n, k, d)
            for n in range(-(-13 * d // 2), -(-13 * d // 2) + 5):
                yield "q_2", ExtremalParams(n, k, d)
            for n in range(12 * d - 2 * k + 1, 12 * d - 2 * k + 6):
                yield "mu", ExtremalParams(n, k, d)


def test_criterion_08_sharpness_families():
    count = 0
    mu_count = 0
    for tid, p in _sharpness_grid():
        rep = sharpness(p, theorem_spec(tid, p.k))
        assert rep.ok, (tid, p, rep)
        assert rep.not_extendable and rep.witness_is_clique
        assert rep.bound_equality and rep.connected and rep.min_degree_is_s
        if tid == "mu":
            assert rep.mu_floor_ok and rep.value >= rep.mu_floor
            mu_count += 1
        count += 1
    print(f"[criterion 8] PASS: {count} extremal instances sharp, "
          f"{mu_count} distance-radius floors hold")


def test_criterion_09_random_monotonicity():
    rng = random.Random(20260822)
    margin = 1e-9
    additions = deletions = wiener_checks = 0
    for _ in range(1000):
        g = random_connected_graph(rng, 4, 30)
        Q = signless_laplacian(g)
        q = largest_eigenvalue(Q)
        non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if not g.has_edge(u, v)]
        if non_edges:
            u, v = non_edges[rng.randrange(len(non_edges))]
            g_plus = Graph.from_edges(g.n, g.edges() + [(u, v)])
            q_plus = largest_eigenvalue(signless_laplacian(g_plus))
            assert q_plus > q + margin, (g, (u, v))
            additions += 1
        edges = g.edges()
        rng.shuffle(edges)
        for e in edges:
            g_minus = Graph.from_edges(g.n, [f for f in g.edges() if f != e])
            if is_connected(g_minus):
                q_minus = largest_eigenvalue(signless_laplacian(g_minus))
                assert q_minus < q - margin, (g, e)
                mu = largest_eigenvalue(distance_matrix_array(g))
                mu_minus = largest_eigenvalue(distance_matrix_array(g_minus))
                assert mu_minus > mu + margin, (g, e)
                deletions += 1
                break
        D = distance_matrix_array(g)
        assert largest_eigenvalue(D) >= int(D.sum()) / g.n - 1e-8, g
        wiener_checks += 1
    assert additions > 500 and deletions > 500 and wiener_checks == 1000
    print(f"[criterion 9] PASS: 1000 random graphs; {additions} edge "
          f"additions, {deletions} deletions, {wiener_checks} Wiener floors")


def test_criterion_10_mu_region_sampling():
    note = (
        "NOTE: the distance-radius bound is not exhaustively reproducible: its\n"
        "smallest admissible instance (k=1, minimum degree 3) starts at order 35,\n"
        "far past isomorph-free enumeration (order 11 already has ~10^9 labeled\n"
        "graphs) and past the set-condition scan (2^35 subsets).  Acceptance\n"
        "instead rests on the comparison grids and sharpness families (criteria\n"
        "7 and 8) plus seeded spanning-subgraph sampling at the boundary order,\n"
        "10000 samples per source family, zero counterexamples tolerated."
    )
    print(note)
    spec = theorem_spec("mu", 1)
    totals = []
    for s in (3, 4, 5):
        p = ExtremalParams(35, 1, s)
        rep = sample_spanning_subgraphs(p, spec, samples=10_000, seed=20260822 + s)
        assert rep.ok, (s, rep.statuses)
        assert rep.samples == 10_000
        assert not rep.counterexamples
        assert all(name != "oracle_capacity" for name, _ in rep.statuses)
        totals.append(sum(c for _, c in rep.statuses))
    assert totals == [10_000] * 3
    print("[criterion 10] PASS: 30000 sampled spanning subgraphs at order 35, "
          "zero counterexamples")


def _k_matchings(g, k):
    edges = g.edges()

    def rec(start, used, chosen):
        if len(chosen) == k:
            yield tuple(chosen)
            return
        for i in range(start, len(edges)):
            u, v = edges[i]
            bit = (1 << u) | (1 << v)
            if not used & bit:
                chosen.append((u, v))
                yield from rec(i + 1, used | bit, chosen)
                chosen.pop()

    yield from rec(0, 0, [])


def test_criterion_11_half_integral_extensions():
    _, _, _, extendable = _oracle_survey()
    assert extendable
    extensions = 0
    for g, k in extendable:
        for m in _k_matchings(g, k):
            h = extend_matching(g, m)
            assert h is not None, (g, k, m)
            sums = [Fraction(0)] * g.n
            for (u, v), val in h.items():
                assert val in (HALF, ONE), (g, k, m, val)
                assert g.has_edge(u, v)
                sums[u] += val
                sums[v] += val
            assert all(x == 1 for x in sums), (g, k, m)
            for e in m:
                assert h[tuple(sorted(e))] == ONE
            extensions += 1
    print(f"[criterion 11] PASS: {extensions} extensions over "
          f"{len(extendable)} extendable instances, all half-integral with "
          f"exact unit sums")
