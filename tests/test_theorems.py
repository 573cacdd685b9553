import pytest

from fracext import (ExtremalParams, Graph, complete, cycle, disjoint_union,
                     emit_graph6, extremal_edge_count, extremal_graph,
                     largest_real_root, closed_form, verify_witness)
from fracext.theorems import (LEMMA_IDS, THEOREM_IDS, check_theorem,
                              clique_witness_holds, edge_count_identities,
                              lemma_grid, probe_gap_region,
                              sample_spanning_subgraphs, sharpness, sweep,
                              theorem_spec)


def test_theorem_spec_table():
    assert set(THEOREM_IDS) == {"edge_1", "edge_2", "q_1", "q_2", "mu"}
    spec = theorem_spec("edge_1", 1)
    assert spec.quantity == "e" and spec.bound_side == ">=" and not spec.uses_delta
    assert theorem_spec("mu", 2).uses_delta
    with pytest.raises(ValueError):
        theorem_spec("edge_3", 1)
    with pytest.raises(ValueError):
        theorem_spec("edge_1", 0)


def test_hypotheses_messages():
    spec = theorem_spec("edge_1", 1)
    assert spec.hypotheses(11, 2, True) is None
    assert "connected" in spec.hypotheses(11, 2, False)
    assert "order" in spec.hypotheses(10, 2, True)
    spec = theorem_spec("q_2", 1)
    assert spec.hypotheses(19, 3, True) is not None   # 2n < 13*delta
    assert spec.hypotheses(20, 3, True) is None
    assert "degree" in spec.hypotheses(40, 2, True)   # delta < 2k+1


def test_thresholds():
    assert theorem_spec("edge_1", 1).threshold(11, None) == 47
    assert theorem_spec("edge_2", 1).threshold(18, 3) == \
        extremal_edge_count(ExtremalParams(18, 1, 3))
    q_thr = theorem_spec("q_1", 1).threshold(11, None)
    assert q_thr == pytest.approx(largest_real_root(closed_form("f2", n=11, k=1)), abs=1e-12)
    mu_thr = theorem_spec("mu", 1).threshold(35, 3)
    assert mu_thr == pytest.approx(
        largest_real_root(closed_form("phi_B3_case1", n=35, k=1, delta=3)), abs=1e-12)


def test_family_construction():
    assert theorem_spec("edge_1", 2).family(13, None) == ExtremalParams(13, 2, 4)
    assert theorem_spec("mu", 1).family(35, 3) == ExtremalParams(35, 1, 3)


def test_check_theorem_statuses():
    spec = theorem_spec("edge_1", 1)
    r = check_theorem(extremal_graph(ExtremalParams(11, 1, 2)), spec)
    assert r.status == "equality_case"
    assert r.e == 47 and r.threshold == 47
    assert r.oracle is not None and not r.oracle.answer
    assert r.oracle.witness_matching == ((0, 1),)  # the dominating pair
    assert verify_witness(extremal_graph(ExtremalParams(11, 1, 2)), 1, r.oracle)

    r = check_theorem(complete(11), spec)
    assert r.status == "confirmed_extendable" and r.e == 55

    r = check_theorem(cycle(11), spec)
    assert r.status == "bound_not_met"

    r = check_theorem(disjoint_union(complete(5), complete(6)), spec)
    assert r.status == "hypotheses_not_met" and "connected" in r.detail

    star = Graph.from_edges(11, [(0, i) for i in range(1, 11)])
    assert check_theorem(star, spec).status == "bound_not_met"


def test_check_theorem_large_order_has_no_graph6():
    p = ExtremalParams(63, 1, 2)
    g = extremal_graph(p)
    r = check_theorem(g, theorem_spec("edge_1", 1))
    assert r.status == "equality_case" and r.graph6 is None
    assert r.oracle is not None and r.oracle.reason == "unextendable_matching"
    assert verify_witness(g, 1, r.oracle)


def test_check_theorem_decides_mu_bound_at_order_35():
    # the distance bound's region starts at order 35: one edge added to the
    # boundary family keeps delta = 3 and puts mu below the threshold
    g = extremal_graph(ExtremalParams(35, 1, 3))
    g = Graph.from_edges(g.n, g.edges() + [(3, 33)])
    r = check_theorem(g, theorem_spec("mu", 1))
    assert r.min_degree == 3 and r.value < r.threshold
    assert r.status == "confirmed_extendable"
    assert r.oracle is not None and r.oracle.answer


def test_check_theorem_decides_dense_k4_at_order_16():
    # K_16 has 1351350 4-matchings; the definitional oracle tests each of
    # its 12870 covered vertex sets once
    r = check_theorem(complete(16), theorem_spec("q_1", 4))
    assert r.status == "confirmed_extendable"
    assert r.oracle is not None and r.oracle.answer


def test_sweep_mixed_corpus_and_errors():
    lines = [
        "# a comment",
        "",
        emit_graph6(extremal_graph(ExtremalParams(11, 1, 2))),
        "not graph6 at all {{{",
        emit_graph6(complete(11)),
        emit_graph6(cycle(11)),
    ]
    rep = sweep(lines, theorem_spec("edge_1", 1), corpus_name="inline")
    assert rep.scanned == 3
    assert rep.confirmed == 1
    assert len(rep.equality_cases) == 1
    assert not rep.counterexamples
    assert len(rep.parse_errors) == 1 and rep.parse_errors[0][0] == 4
    assert rep.ok


def test_sweep_accepts_graph_objects_and_parallel_matches_serial():
    graphs = [complete(11), cycle(11), extremal_graph(ExtremalParams(11, 1, 2)),
              Graph.from_edges(11, [(0, i) for i in range(1, 11)])] * 3
    spec = theorem_spec("edge_1", 1)
    serial = sweep(graphs, spec, jobs=1)
    parallel = sweep(graphs, spec, jobs=3)
    assert serial == parallel
    assert serial.scanned == 12 and serial.confirmed == 3


def test_edge_count_identities():
    for k, s, n, d in ((1, 2, 11, 2), (1, 3, 9, 3), (2, 5, 16, 5), (2, 6, 20, 5), (3, 7, 18, 7)):
        rep = edge_count_identities(k, s, n, d)
        assert rep.ok, rep.mismatches()
        assert len(rep.checks) == 10


def test_lemma_grid_small_and_equality_rows():
    rep = lemma_grid("q1q2", k_max=1, n_max=16)
    assert rep.ok and rep.points > 0
    eq_rows = [r for r in rep.rows if r.equality_expected]
    assert eq_rows and all(r.s == 2 for r in eq_rows)
    assert rep.equality_points == len(eq_rows)
    assert rep.max_crosscheck_error < 1e-8
    assert set(LEMMA_IDS) == {"q1q2", "q1q3", "mu_compare"}


def test_lemma_grid_crosscheck_guard_fires():
    # an absurd crosscheck tolerance forces violations of kind "crosscheck"
    rep = lemma_grid("q1q2", k_max=1, n_max=12, crosscheck_tol=1e-18)
    assert not rep.ok
    assert all(v.kind == "crosscheck" for v in rep.violations)


def test_lemma_grid_parallel_matches_serial():
    a = lemma_grid("q1q3", k_max=1, n_max=40, delta_max=4, jobs=1)
    b = lemma_grid("q1q3", k_max=1, n_max=40, delta_max=4, jobs=3)
    assert a == b and a.ok


def test_sharpness_canonical_points():
    cases = [
        ("edge_1", ExtremalParams(11, 1, 2)),
        ("q_1", ExtremalParams(8, 1, 2)),
        ("edge_2", ExtremalParams(18, 1, 3)),
        ("q_2", ExtremalParams(20, 1, 3)),
        ("mu", ExtremalParams(35, 1, 3)),
    ]
    for tid, p in cases:
        rep = sharpness(p, theorem_spec(tid, 1))
        assert rep.ok, (tid, rep)
        assert rep.not_extendable and rep.witness_is_clique and rep.bound_equality
    mu_rep = sharpness(cases[-1][1], theorem_spec("mu", 1))
    assert mu_rep.mu_floor == 35 - 3 + 2 + 3 and mu_rep.mu_floor_ok


def test_clique_witness_holds_small_and_large():
    # a 30-vertex join clique at order 70 is decided like the order-11 one
    for p in (ExtremalParams(70, 1, 30), ExtremalParams(11, 1, 2)):
        assert clique_witness_holds(extremal_graph(p), 1, p.s) == (True, True)


def test_probe_gap_region_reports_only():
    rep = probe_gap_region("q", 1, 3)
    assert rep.rows and rep.all_hold and rep.min_margin > 0
    rep = probe_gap_region("mu", 1, 3)
    assert rep.rows and rep.all_hold
    with pytest.raises(ValueError):
        probe_gap_region("e", 1, 3)


def test_sampling_determinism_and_tallies():
    p = ExtremalParams(35, 1, 3)
    spec = theorem_spec("mu", 1)
    a = sample_spanning_subgraphs(p, spec, samples=60, seed=5)
    b = sample_spanning_subgraphs(p, spec, samples=60, seed=5)
    assert a == b
    assert a.ok and a.samples == 60
    assert sum(count for _, count in a.statuses) == 60
    assert not a.counterexamples
    c = sample_spanning_subgraphs(p, spec, samples=60, seed=6)
    assert c.ok
