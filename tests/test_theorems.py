import random
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from fracext import (ExtremalParams, Graph, complete, cycle, disjoint_union, empty_graph,
                     emit_graph6, extremal_edge_count, extremal_graph, largest_real_root,
                     closed_form, parse_graph6, path, verify_witness)
from fracext import spectral, theorems
from fracext.corpus import complement_stack, connected_stack
from fracext.spectral import (SWEEP_CHUNK_ENTRIES, adjacency_matrices, family_coefficients,
                              family_cubic, largest_real_roots, signless_laplacians,
                              stack_graphs)
from fracext.theorems import (LEMMA_IDS, THEOREM_IDS, check_theorem,
                              clique_witness_holds, edge_count_identities,
                              lemma_grid, probe_gap_region,
                              sample_spanning_subgraphs, sharpness, sweep,
                              theorem_spec)
import family_enclosure
from family_enclosure import (_block_vectors, block_test_vectors, family_block_values,
                              family_matrices, member_values)
from grid_oracle import compare_reference, grid_report_reference
from helpers import (all_graphs, complement_corpus, connected_graphs, graph_stats, grid_groups,
                     with_member_cubic)
from root_oracle import largest_real_root_reference
from sample_oracle import sample_reference
from sweep_oracle import sweep_reference


def test_theorem_spec_table():
    assert set(THEOREM_IDS) == {"edge_1", "edge_2", "q_1", "q_2", "mu"}
    spec = theorem_spec("edge_1", 1)
    assert spec.quantity == "e" and spec.bound_side == ">=" and not spec.uses_delta
    assert theorem_spec("mu", 2).uses_delta
    with pytest.raises(ValueError):
        theorem_spec("edge_3", 1)
    with pytest.raises(ValueError):
        theorem_spec("edge_1", 0)


# a TheoremSpec's settable fields: every other column is its _THEOREMS row's
SPEC_FIELDS = ("id", "k")
# id: (quantity, bound side, uses delta), as the paper states each condition
PAPER_CONDITIONS = {"edge_1": ("e", ">=", False), "edge_2": ("e", ">=", True),
                    "q_1": ("q", ">=", False), "q_2": ("q", ">=", True),
                    "mu": ("mu", "<=", True)}


def test_theorem_spec_is_its_id_and_k():
    assert tuple(f.name for f in fields(theorems.TheoremSpec)) == SPEC_FIELDS
    # a spec built directly is checked as theorem_spec's is
    for bad in (("q_1", 0), ("nope", 1)):
        with pytest.raises(ValueError):
            theorems.TheoremSpec(*bad)
    assert theorems.TheoremSpec("q_1", 2) == theorem_spec("q_1", 2)
    for k in (1, 3):
        specs = {tid: theorem_spec(tid, k) for tid in THEOREM_IDS}
        assert {tid: (spec.quantity, spec.bound_side, spec.uses_delta)
                for tid, spec in specs.items()} == PAPER_CONDITIONS
        # the family's clique is the graph's minimum degree for the delta
        # theorems and 2k for the others
        assert {tid: spec.clique(2 * k + 4) for tid, spec in specs.items()} == {
            "edge_1": 2 * k, "edge_2": 2 * k + 4, "q_1": 2 * k, "q_2": 2 * k + 4, "mu": 2 * k + 4}
        assert specs["mu"].family(40, 2 * k + 4) == ExtremalParams(40, k, 2 * k + 4)
        assert specs["q_1"].family(40, 2 * k + 4) == ExtremalParams(40, k, 2 * k)


def test_hypotheses_messages():
    spec = theorem_spec("edge_1", 1)
    assert spec.hypotheses(11, 2, True) is None
    assert "connected" in spec.hypotheses(11, 2, False)
    assert "order" in spec.hypotheses(10, 2, True)
    spec = theorem_spec("q_2", 1)
    assert spec.hypotheses(19, 3, True) is not None   # 2n < 13*delta
    assert spec.hypotheses(20, 3, True) is None
    assert "degree" in spec.hypotheses(40, 2, True)   # delta < 2k+1


def test_min_order_is_the_least_order_of_each_region():
    for tid in THEOREM_IDS:
        for k in range(1, 4):
            spec = theorem_spec(tid, k)
            for delta in range(2 * k + 1, 2 * k + 7):
                m = spec.min_order(delta)
                assert f"order {m - 1} <" in spec.hypotheses(m - 1, delta, True)
                assert spec.hypotheses(m, delta, True) is None


def test_grids_start_at_their_theorems_min_order():
    # and the gap probe of each delta lemma's (k, delta) ends just below it
    served = {"q1q2": "q_1", "q1q3": "q_2", "mu_compare": "mu"}
    for lemma, bounds in (("q1q2", dict(k_max=2, n_max=14)),
                          ("q1q3", dict(k_max=1, n_max=28, delta_max=4)),
                          ("mu_compare", dict(k_max=1, n_max=48, delta_max=4))):
        first = {}
        for row in lemma_grid(lemma, **bounds).rows:
            first.setdefault((row.k, row.delta), row.n)
        assert len(first) == 2, lemma
        for (k, delta), n in first.items():
            assert n == theorem_spec(served[lemma], k).min_order(delta), (lemma, k, delta)
            if delta is not None:
                kind = "mu" if lemma == "mu_compare" else "q"
                probe = probe_gap_region(kind, k, delta)
                assert probe.lemma == f"gap_{kind}"
                assert sorted({row.n for row in probe.rows}) == list(range(6 * delta, n))


def test_thresholds():
    assert theorem_spec("edge_1", 1).threshold(11, None) == 47
    assert theorem_spec("edge_2", 1).threshold(18, 3) == \
        extremal_edge_count(ExtremalParams(18, 1, 3))
    # each q/mu threshold is exactly the largest root of the paper's own
    # cubic (f2, f3_q, phi_B3_case1) over its hypothesis region
    points = 0
    for k in (1, 2, 3):
        q_1, q_2, mu = (theorem_spec(t, k) for t in ("q_1", "q_2", "mu"))
        for n in range(2 * k + 6, 61):
            assert q_1.threshold(n, None) == largest_real_root(closed_form("f2", n=n, k=k))
            points += 1
        for delta in range(2 * k + 1, 61):
            for n in range(-(-13 * delta // 2), 61):
                assert q_2.threshold(n, delta) == largest_real_root(
                    closed_form("f3_q", n=n, k=k, delta=delta))
                points += 1
            for n in range(12 * delta - 2 * k + 1, 61):
                assert mu.threshold(n, delta) == largest_real_root(
                    closed_form("phi_B3_case1", n=n, k=k, delta=delta))
                points += 1
    assert points == 453


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


def test_graph_without_k_matching_past_the_bound_is_a_counterexample(monkeypatch):
    # fractional k-extendability asks for a k-matching, so a graph without
    # one that meets hypotheses and bound refutes the condition: K_{1,12}
    # is connected, has order 13 = 2k+9 and no 2-matching
    monkeypatch.setattr(theorems, "_family_threshold", lambda quantity, p: (0, None, None))
    star = Graph.from_edges(13, [(0, i) for i in range(1, 13)])
    r = check_theorem(star, theorem_spec("edge_1", 2))
    assert r.oracle is not None and r.oracle.reason == "no_k_matching"
    assert r.status == theorems.COUNTEREXAMPLE and r.detail == ""


@pytest.mark.parametrize("k, p", [(1, ExtremalParams(7, 1, 4)), (2, ExtremalParams(9, 2, 6))],
                         ids=["k1", "k2"])
def test_q1_order_hypothesis_is_tight(k, p, monkeypatch):
    # at order 2k+5, one below q_1's least order, family(2k+5, k, 2k+2) is
    # past the q_1 bound of its own order and not fractionally k-extendable
    g, spec = extremal_graph(p), theorem_spec("q_1", k)
    assert check_theorem(g, spec).status == "hypotheses_not_met"
    monkeypatch.setitem(theorems._THEOREMS, "q_1",
                        (*theorems._THEOREMS["q_1"][:4], lambda k, delta: 2 * k + 5))
    r = check_theorem(g, spec)
    assert r.status == theorems.COUNTEREXAMPLE and r.n == 2 * k + 5
    assert verify_witness(g, k, r.oracle)
    assert r.value - r.threshold > 0.25


def test_check_theorem_keeps_the_float_value_a_certificate_did_without(monkeypatch):
    # C_11 is proven below q_1's threshold with no eigenvalue; check_theorem
    # still hands back the eigensolver's value, bitwise, from one call
    calls = []
    real = theorems.largest_eigenvalues
    monkeypatch.setattr(theorems, "largest_eigenvalues", lambda M: calls.append(len(M)) or real(M))
    A = adjacency_matrices([cycle(11)])
    r = check_theorem(cycle(11), theorem_spec("q_1", 1))
    assert r.status == "bound_not_met" and calls == [1]
    assert r.value == float(real(signless_laplacians(A))[0]) and type(r.value) is float


def test_check_theorem_large_order_graph6_round_trips():
    p = ExtremalParams(63, 1, 2)
    g = extremal_graph(p)
    r = check_theorem(g, theorem_spec("edge_1", 1))
    assert r.status == "equality_case" and parse_graph6(r.graph6) == g
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


def test_check_theorem_confirms_q_bound_at_k2_order_35():
    # one edge from the independent vertex into the inner clique lifts
    # the minimum degree to 5 and q just above the k = 2 threshold, so the
    # oracle walks every covered set of a near-complete order-35 graph
    g = extremal_graph(ExtremalParams(35, 2, 4))
    g = Graph.from_edges(g.n, g.edges() + [(34, 4)])
    r = check_theorem(g, theorem_spec("q_1", 2))
    assert r.min_degree == 5
    assert r.value == pytest.approx(66.163, abs=1e-3)
    assert r.threshold == pytest.approx(66.129, abs=1e-3)
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
    rep = sweep(lines, theorem_spec("edge_1", 1))
    assert rep.scanned == 3
    assert rep.confirmed == 1
    assert len(rep.equality_cases) == 1
    assert not rep.counterexamples
    assert len(rep.parse_errors) == 1 and rep.parse_errors[0][0] == 4
    assert rep.ok


def test_sweep_accepts_graph_objects():
    graphs = [complete(11), cycle(11), extremal_graph(ExtremalParams(11, 1, 2)),
              Graph.from_edges(11, [(0, i) for i in range(1, 11)])] * 3
    rep = sweep(graphs, theorem_spec("edge_1", 1))
    assert rep.scanned == 12 and rep.confirmed == 3


def _near_family_graphs():
    """Each k = 1 family at its theorem's least order (delta 3), and the
    graphs one edge away from it (three non-edges added and two edges
    removed, one at a time): the bound is met and missed."""
    out = []
    for tid in THEOREM_IDS:
        spec = theorem_spec(tid, 1)
        g = extremal_graph(spec.family(spec.min_order(3), 3))
        non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if not g.has_edge(u, v)]
        out.append(g)
        for u, v in non_edges[:2] + non_edges[-1:] + g.edges()[-2:]:
            rows = list(g.rows)
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            out.append(Graph(g.n, tuple(rows)))
    return out


def _mixed_order_lines():
    """graph6 lines of orders 5-9 in seeded interleaved order, disconnected
    graphs included, with a comment, a blank and a malformed line."""
    rng = random.Random(41)
    graphs = [*all_graphs(5), *all_graphs(6), *rng.sample(connected_graphs(7), 120),
              *rng.sample(connected_graphs(8), 120), *complement_corpus(9, 3),
              extremal_graph(ExtremalParams(9, 1, 2)), disjoint_union(complete(4), complete(5))]
    rng.shuffle(graphs)
    lines = [emit_graph6(g) for g in graphs]
    lines[10:10] = ["# order 5-9", "", "not graph6 {{{"]
    return lines


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_sweep_matches_per_graph_reference(theorem, k, tmp_path, monkeypatch):
    spec = theorem_spec(theorem, k)
    for corpus in (connected_graphs(7), complement_corpus(9, 6)):
        assert sweep(corpus, spec) == sweep_reference(corpus, spec)
    lines = _mixed_order_lines()
    path = tmp_path / "mixed.g6"
    path.write_text("".join(line + "\n" for line in lines))
    want = sweep_reference(lines, spec)
    assert want.scanned > 400 and len(want.parse_errors) == 1
    # 7 to 12 graphs per chunk, so every order spans several chunks
    monkeypatch.setattr(spectral, "SWEEP_CHUNK_ENTRIES", 512)
    with open(path, "rb") as corpus:
        assert sweep(corpus, spec) == want
    if k == 1:
        near = _near_family_graphs()
        rep = sweep(near, spec)
        assert rep == sweep_reference(near, spec)
        assert rep.bound_met > rep.confirmed > 0 and rep.equality_cases


def test_sweep_keeps_input_order_across_orders_and_chunks(monkeypatch):
    # equality cases of three orders, interleaved, in chunks of two graphs:
    # the order-11 chunk (positions 0, 3) fills before the order-12 chunk
    # (1, 4), so the chunks do not come back in input order
    monkeypatch.setattr(spectral, "SWEEP_CHUNK_ENTRIES", 256)
    family = [extremal_graph(ExtremalParams(n, 1, 2)) for n in (11, 12, 13)]
    corpus = [family[i % 3] if i % 2 else complete(11 + i % 3) for i in range(30)]
    rep = sweep(corpus, theorem_spec("edge_1", 1))
    assert rep == sweep_reference(corpus, theorem_spec("edge_1", 1))
    assert [r.n for r in rep.equality_cases] == [12, 11, 13] * 5


def test_sweep_builds_results_only_for_what_it_keeps(monkeypatch):
    # 25 graphs meet the bound: 24 confirmed and 1 equality case, whose row
    # is the one row the sweep encodes
    emitted = []
    encode = theorems.stack_graph6
    monkeypatch.setattr(theorems, "stack_graph6", lambda A: emitted.extend(encode(A)) or encode(A))
    rep = sweep(complement_corpus(9, 6), theorem_spec("q_1", 1))
    assert rep.bound_met == 25 and rep.confirmed == 24
    assert len(rep.equality_cases) + len(rep.counterexamples) == 1
    assert emitted == [rep.equality_cases[0].graph6]


def _stacked_stats(graphs, dtype=np.int64):
    """(e, delta, connected) of graphs of one order, as _classify reads them
    off their stack, built in the given integer type."""
    A = adjacency_matrices(graphs).astype(dtype)
    return [tuple(outcome[1:4]) for outcome in theorems._classify(A, theorem_spec("edge_1", 1))]


def test_stacked_stats_equal_graph_stats():
    # every graph of order <= 7; a path of diameter 127, which a fixed number
    # of reachability steps would cut short; two components of order 64; and
    # K_128, whose reachability sums reach 128, in the corpora's uint8 too
    stacks = [all_graphs(n) for n in range(8)]
    stacks += [[path(128), disjoint_union(path(127), empty_graph(1)),
                disjoint_union(complete(64), complete(64)), complete(128)]]
    for graphs in stacks:
        want = [(st.e, st.min_degree, st.connected) for st in map(graph_stats, graphs)]
        assert _stacked_stats(graphs) == _stacked_stats(graphs, np.uint8) == want
    assert _stacked_stats([path(128)]) == [(127, 1, True)]
    assert _stacked_stats([empty_graph(0)]) == [(0, 0, True)]
    assert _stacked_stats([empty_graph(1)]) == [(0, 0, True)]


@pytest.mark.parametrize("theorem", ["edge_1", "q_1", "mu"])
def test_sweep_of_a_generated_stack_equals_its_graphs_and_lines(theorem):
    # one corpus three ways: the stack a generated corpus is swept as, its
    # Graph tuple and its graph6 lines
    spec = theorem_spec(theorem, 1)
    for stack in (connected_stack(7), complement_stack(9, 6)):
        graphs = stack_graphs(stack)
        want = sweep_reference(graphs, spec)
        lines = [emit_graph6(g) for g in graphs]
        assert sweep(stack, spec) == sweep(graphs, spec) == sweep(lines, spec) == want


def test_edge_count_identities():
    for k, s, n, d in ((1, 2, 11, 2), (1, 3, 9, 3), (2, 5, 16, 5), (2, 6, 20, 5), (3, 7, 18, 7)):
        rep = edge_count_identities(k, s, n, d)
        assert rep.ok, [c for c in rep.checks if c[1] != c[2]]
        assert len(rep.checks) == 10


def test_lemma_grid_small_and_equality_rows():
    rep = lemma_grid("q1q2", k_max=1, n_max=16)
    assert rep.ok and rep.points > 0
    eq_rows = [r for r in rep.rows if r.equality_expected]
    assert eq_rows and all(r.s == 2 for r in eq_rows)
    assert rep.equality_points == len(eq_rows)
    assert rep.max_crosscheck_error < 1e-8
    assert set(LEMMA_IDS) == {"q1q2", "q1q3", "mu_compare"}


def test_lemma_grid_crosscheck_guard_fires(monkeypatch):
    # an absurd crosscheck tolerance forces violations of kind "crosscheck"
    monkeypatch.setattr(theorems, "CROSSCHECK_TOL", 1e-18)
    rep = lemma_grid("q1q2", k_max=1, n_max=12)
    assert not rep.ok
    assert all(v.kind == "crosscheck" for v in rep.violations)


def _point_values(members):
    """{(quantity, n, k, s): (root, error)} of family members: the scalar
    reference bisection of each cubic, and the width of its certified
    bracket, from one pass over the members in reverse sorted order, not in
    the grid's lane order (each lane is computed on its own)."""
    members = sorted(set(members), reverse=True)
    cubics = [family_cubic(*m) for m in members]
    widths = largest_real_roots([[c.c2, c.c1, c.c0] for c in cubics])[1].tolist()
    return {m: (largest_real_root_reference(c), w) for m, c, w in zip(members, cubics, widths)}


# grid-delta's three commands
GRID_DELTA = (("q1q2", dict(k_max=3, n_max=40)),
              ("q1q3", dict(k_max=1, n_max=90, delta_max=3)),
              ("mu_compare", dict(k_max=1, n_max=90, delta_max=3)))
# the grids of criteria 6 and 7
CRITERIA_GRIDS = (("q1q2", dict(k_max=3, n_max=40)),
                  ("q1q3", dict(k_max=2, n_max=90, delta_max=7)),
                  ("mu_compare", dict(k_max=2, n_max=90, delta_max=7)))


def test_grid_rows_bitwise_equal_a_per_point_reference():
    # grid-delta's grids have one delta; the last two share members across deltas
    grids = GRID_DELTA + (("q1q3", dict(k_max=2, n_max=40, delta_max=5)),
                          ("mu_compare", dict(k_max=1, n_max=60, delta_max=5)))
    reports = [("mu" if lemma == "mu_compare" else "q", lemma_grid(lemma, **bounds).rows)
               for lemma, bounds in grids]
    reports += [(kind, probe_gap_region(kind, 1, 3).rows) for kind in ("q", "mu")]
    sides = [(quantity, row, (row.s, row.delta if row.delta is not None else 2 * row.k))
             for quantity, rows in reports for row in rows]
    value = _point_values((quantity, row.n, row.k, s) for quantity, row, pair in sides
                          for s in pair)
    points = 0
    for quantity, row, (s, s_rhs) in sides:
        lhs, lhs_err = value[quantity, row.n, row.k, s]
        rhs, rhs_err = value[quantity, row.n, row.k, s_rhs]
        got = (row.lhs, row.rhs, row.lhs_err, row.rhs_err)
        assert [x.hex() for x in got] == [x.hex() for x in (lhs, rhs, lhs_err, rhs_err)], row
        points += 1
    assert points > 1001 + 1757 + 1596 + 1000


def _members(rows):
    """{(k, n): sorted s values} of every member either side of the rows use."""
    members = {}
    for row in rows:
        members.setdefault((row.k, row.n), set()).update(
            (row.s, row.delta if row.delta is not None else 2 * row.k))
    return {key: sorted(ss) for key, ss in members.items()}


def test_grid_rows_match_the_dense_eigenvalue_at_every_point_of_criteria_6_and_7():
    """The dense cross-check the grids no longer run: at every point, each
    side's eigvalsh value lies within 1e-8 of the row value, inside the
    Collatz-Wielandt enclosure of the member's own matrix and inside the
    row's certified bracket, each widened by n * eps * hi, a slack for the
    rounding of the matvec and of the eigensolver.  The members of each
    (k, n) are built and factored in chunked stacks."""
    eps = np.finfo(float).eps
    points = 0
    for lemma, bounds in CRITERIA_GRIDS:
        quantity = "mu" if lemma == "mu_compare" else "q"
        rows = lemma_grid(lemma, **bounds).rows
        value = member_values(quantity, _members(rows))
        for row in rows:
            s_rhs = row.delta if row.delta is not None else 2 * row.k
            for s, side, err in ((row.s, row.lhs, row.lhs_err), (s_rhs, row.rhs, row.rhs_err)):
                eig, lo, hi = value[row.k, row.n, s]
                slack = row.n * eps * hi
                assert abs(eig - side) < 1e-8, row
                assert lo - slack <= eig <= hi + slack, row
                assert abs(eig - side) <= err + slack, row
        points += len(rows)
    assert points == 1001 + 11_777 + 7_222


def test_lemma_grid_flags_shifted_roots_at_every_row(monkeypatch):
    # every bracket shifted right by 1e-6 misses its root, so neither
    # certificate proves it, while the returned roots stay as they were
    real = spectral._enclosure_widths
    monkeypatch.setattr(spectral, "_enclosure_widths",
                        lambda C, lo, hi: real(C, lo + 1e-6, hi + 1e-6))
    for lemma, bounds in GRID_DELTA[:2]:
        rep = lemma_grid(lemma, **bounds)
        crosscheck = [v.row for v in rep.violations if v.kind == "crosscheck"]
        assert crosscheck == list(rep.rows) and rep.points > 1000
        assert rep.max_crosscheck_error == np.inf
        assert all(v.kind == "crosscheck" for v in rep.violations)


def test_an_uncertified_bracket_makes_one_violation(monkeypatch):
    # one left-hand member of the q1q2 grid takes a cubic with a double
    # largest root at 20, below the right-hand side's 22.198: its root stays
    # on the right side of the inequality, but neither the float nor the
    # exact certificate proves a bracket, so its error is inf
    target = (13, 1, 5)   # (n, k, s)
    monkeypatch.setattr(theorems, "family_coefficients", with_member_cubic(
        theorems.family_coefficients, "q", target, (-41, 440, -400)))   # (x-20)^2 (x-1)
    rep = lemma_grid("q1q2", k_max=1, n_max=14)
    [violation] = rep.violations
    assert violation.kind == "crosscheck"
    assert (violation.row.n, violation.row.k, violation.row.s) == target
    assert abs(violation.row.lhs - 20.0) < 1e-6 and violation.row.lhs < violation.row.rhs
    assert violation.row.lhs_err == rep.max_crosscheck_error == np.inf


def _assert_grid_equals_reference(rep, quantity, groups):
    """Every field and row of rep equal the row-by-row reference's, floats
    bitwise (repr round-trips a float and keeps the sign of a zero), and
    every row field a plain Python value."""
    ref = grid_report_reference(rep.lemma, quantity, list(groups))
    got = {name: getattr(rep, name) for name in ref}
    assert got == ref and repr(got) == repr(ref)
    assert {type(x) for x in (rep.points, rep.equality_points)} == {int}
    assert {type(x) for x in (rep.max_crosscheck_error, rep.min_strict_margin)} == {float}
    for row in got["rows"] + tuple(v.row for v in rep.violations):
        assert {type(getattr(row, f.name)) for f in fields(row)} <= {int, float, bool, str,
                                                                     type(None)}, row
    return got


def _probe_groups(kind, k, delta):
    spec = theorem_spec("q_2" if kind == "q" else "mu", k)
    return theorems._grid_groups(spec, delta, range(6 * delta, spec.min_order(delta)))


def test_grid_reports_equal_the_row_by_row_reference():
    # criterion 6's grid is grid-delta's q1q2 grid; the last grid is empty
    grids = GRID_DELTA + CRITERIA_GRIDS[1:] + (("q1q2", dict(k_max=1, n_max=5)),)
    for lemma, bounds in grids:
        quantity = "mu" if lemma == "mu_compare" else "q"
        got = _assert_grid_equals_reference(lemma_grid(lemma, **bounds), quantity,
                                            grid_groups(lemma, **bounds))
        assert got["points"] == len(got["rows"]) and not got["violations"]
    assert got["points"] == 0 and got["min_strict_margin"] == np.inf
    for kind in ("q", "mu"):
        for k, delta in ((1, 3), (2, 5)):
            _assert_grid_equals_reference(probe_gap_region(kind, k, delta), kind,
                                          _probe_groups(kind, k, delta))


def test_flagged_grids_equal_the_row_by_row_reference(monkeypatch):
    q1q2 = ("q1q2", dict(k_max=1, n_max=14))

    def check(lemma, bounds, kinds):
        quantity = "mu" if lemma == "mu_compare" else "q"
        got = _assert_grid_equals_reference(lemma_grid(lemma, **bounds), quantity,
                                            grid_groups(lemma, **bounds))
        assert {v.kind for v in got["violations"]} == kinds

    with monkeypatch.context() as m:   # every row a crosscheck violation
        m.setattr(theorems, "CROSSCHECK_TOL", 1e-18)
        check(*q1q2, {"crosscheck"})
    with monkeypatch.context() as m:   # every bracket shifted off its root
        real = spectral._enclosure_widths
        m.setattr(spectral, "_enclosure_widths", lambda C, lo, hi: real(C, lo + 1e-6, hi + 1e-6))
        for lemma, bounds in GRID_DELTA:
            check(lemma, bounds, {"crosscheck"})
    for quantity, member, cubic, grid, kinds in (
            # a double largest root: uncertified, on the right side of the inequality
            ("q", (13, 1, 5), (-41, 440, -400), q1q2, {"crosscheck"}),
            # the right-hand side of order 13 falls below every left-hand side
            ("q", (13, 1, 2), (-41, 440, -400), q1q2, {"crosscheck", "inequality"}),
            # one mu falls below its right-hand side: (x-20)(x-2)(x-1)
            ("mu", (36, 1, 5), (-23, 62, -40), ("mu_compare", dict(k_max=1, n_max=40,
                                                                   delta_max=3)),
             {"inequality"})):
        with monkeypatch.context() as m:
            m.setattr(theorems, "family_coefficients", with_member_cubic(
                family_coefficients, quantity, member, cubic))
            check(*grid, kinds)


def test_compare_is_elementwise_and_returns_python_ints():
    # values at, just inside and just outside the margin of refs either side of 1
    refs = [0.0, 0.5, 1.0, -3.0, 12.3852, 1e6, 7, 47]
    xs = [r + d * 10.0 * theorems.DEFAULT_TOL * max(1.0, abs(r)) * f
          for r in refs for d in (-1, 1) for f in (0.5, 1.0, 1.5, 1e6)] + [0.0, 7, 48, np.nan]
    pairs = [(x, r) for x in xs for r in refs]
    got = theorems._compare([x for x, _ in pairs], [r for _, r in pairs])
    assert got == [compare_reference(x, r) for x, r in pairs]
    assert {type(side) for side in got} == {int} and set(got) == {-1, 0, 1}
    assert theorems._compare(np.array([1.0, 2.0]), 1.5) == [-1, 1]
    assert theorems._compare(np.empty(0), np.empty(0)) == []
    for x, r in pairs[:50]:
        side = theorems._compare(x, r)
        assert type(side) is int and side == compare_reference(x, r)


def test_grid_test_vectors_bitwise_equal_the_reference_read_off_each_matrix():
    # every member of grid-delta's grids, in the chunks the dense cross-check
    # builds: block values from the quotients' Perron vectors, expanded into
    # x, are bitwise the ones read off each member's own matrix
    for lemma, bounds in GRID_DELTA:
        quantity = "mu" if lemma == "mu_compare" else "q"
        members = _members(lemma_grid(lemma, **bounds).rows)
        for (k, n), ss in members.items():
            size = max(1, SWEEP_CHUNK_ENTRIES // (n * n))
            for part in (ss[i:i + size] for i in range(0, len(ss), size)):
                x = _block_vectors(family_block_values(quantity, n, k, part), n, k, part)
                M = family_matrices(quantity, n, k, part)
                assert x.tobytes() == block_test_vectors(M, k, part).tobytes(), (n, k, part)
        assert sum(map(len, members.values())) > 900


def test_one_quotient_eigensolve_per_grid_and_none_per_chunk(monkeypatch):
    # the grids themselves make no eig call; the dense cross-check of a
    # grid's members makes one, an (m, 3, 3) stack holding every member
    # that its chunks enclose
    stacks = []
    chunks = []
    eig = np.linalg.eig
    real = family_enclosure.family_radius_bounds

    def counting_eig(B):
        stacks.append(B.shape)
        return eig(B)

    def counting_chunks(M, k, s_values, values):
        chunks.append(len(s_values))
        return real(M, k, s_values, values)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    monkeypatch.setattr(family_enclosure, "family_radius_bounds", counting_chunks)
    runs = [("mu" if lemma == "mu_compare" else "q",
             lambda lemma=lemma, bounds=bounds: lemma_grid(lemma, **bounds).rows)
            for lemma, bounds in GRID_DELTA]
    runs += [(kind, lambda kind=kind: probe_gap_region(kind, 1, 3).rows) for kind in ("q", "mu")]
    for quantity, run in runs:
        stacks.clear()
        chunks.clear()
        rows = run()
        assert stacks == []
        member_values(quantity, _members(rows))
        assert len(stacks) == 1 and len(chunks) > 1
        assert stacks[0] == (sum(chunks), 3, 3)


def test_grids_and_probes_run_no_dense_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver was called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    for lemma, bounds in (("q1q2", dict(k_max=2, n_max=20)),
                          ("q1q3", dict(k_max=1, n_max=40, delta_max=4)),
                          ("mu_compare", dict(k_max=1, n_max=48, delta_max=4))):
        assert lemma_grid(lemma, **bounds).ok
    for kind in ("q", "mu"):
        assert probe_gap_region(kind, 1, 3).ok


def test_grids_and_probes_evaluate_cubics_in_bulk(monkeypatch):
    """A grid or probe builds no Cubic and calls neither closed_form nor
    family_cubic: every member's cubic comes from one family_coefficients
    evaluation."""
    def refuse(*args, **kwargs):
        raise AssertionError("a per-member cubic was built")

    for name in ("Cubic", "closed_form", "family_cubic"):
        monkeypatch.setattr(spectral, name, refuse)
        monkeypatch.setattr(theorems, name, refuse, raising=False)
    calls = []
    real = theorems.family_coefficients
    monkeypatch.setattr(theorems, "family_coefficients",
                        lambda *args: calls.append(args) or real(*args))
    for lemma, bounds in GRID_DELTA:
        assert lemma_grid(lemma, **bounds).ok
    for kind in ("q", "mu"):
        assert probe_gap_region(kind, 1, 3).ok
    assert len(calls) == 5


def test_family_coefficients_equal_closed_form_at_every_member_of_criteria_6_and_7():
    """The int64 evaluation against closed_form's exact cubic, member by
    member, boundary-order members (f_pi_prime_1 for q) included."""
    members = boundary = 0
    for lemma, bounds in CRITERIA_GRIDS:
        quantity = "mu" if lemma == "mu_compare" else "q"
        groups = grid_groups(lemma, **bounds)
        grid = [(n, k, s) for k, _, n, ss, _ in groups for s in ss]
        for (n, k, s), row in zip(grid, family_coefficients(quantity, grid).tolist()):
            if quantity == "mu":
                cubic = closed_form("phi_B1", n=n, k=k, s=s)
            elif n == 2 * s - 2 * k + 1:
                cubic = closed_form("f_pi_prime_1", k=k, s=s)
                boundary += 1
            else:
                cubic = closed_form("f_pi_1", n=n, k=k, s=s)
            assert row == [cubic.c2, cubic.c1, cubic.c0], (quantity, n, k, s)
        members += len(grid)
    assert members == 20_672 and boundary > 0


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
    assert rep.rows and rep.ok and rep.min_strict_margin > 0
    rep = probe_gap_region("mu", 1, 3)
    assert rep.rows and rep.ok
    with pytest.raises(ValueError):
        probe_gap_region("e", 1, 3)
    with pytest.raises(ValueError, match="2k\\+1"):
        probe_gap_region("q", 2, 4)


def test_a_probe_row_past_its_bound_is_one_inequality_violation(monkeypatch):
    # one left-hand member of the mu probe at k = 1, delta = 3 takes the cubic
    # (x-20)(x-2)(x-1): its root 20, certified, falls below the right-hand
    # side's 21.779, where mu should grow with s
    monkeypatch.setattr(theorems, "family_coefficients", with_member_cubic(
        theorems.family_coefficients, "mu", (19, 1, 5), (-23, 62, -40)))
    rep = probe_gap_region("mu", 1, 3)
    [violation] = rep.violations
    assert violation.kind == "inequality" and not rep.ok
    assert (violation.row.n, violation.row.k, violation.row.s) == (19, 1, 5)
    assert abs(violation.row.lhs - 20.0) <= violation.row.lhs_err < 1e-8
    assert violation.row.lhs < violation.row.rhs
    assert rep.min_strict_margin == violation.row.lhs - violation.row.rhs < 0


def _settled_sides_agree_with_eigvalsh(A, spec, delta, bound_sides=theorems._bound_sides):
    """bound_sides of a stack, with each side that a certificate settled
    (value None) checked against eigvalsh; a Counter of -1 and 1 for the
    settled graphs and "open" for the others."""
    e = (A.sum(axis=(1, 2)) // 2).tolist()
    values, thr, sides = bound_sides(A, spec, e, delta)
    truth = theorems._compare(spec.values(A), thr)
    for value, side, true in zip(values, sides, truth):
        assert value is not None or side in (-1, 1) and true != -side
    return Counter(side if value is None else "open" for value, side in zip(values, sides))


def test_certificates_never_contradict_eigvalsh_on_small_graphs():
    # every connected graph of order 3-8, against q_1's threshold and the
    # q_2 and mu thresholds of its own minimum degree where that family exists
    tally = {theorem: Counter() for theorem in ("q_1", "q_2", "mu")}
    for n in range(3, 9):
        A = connected_stack(n)
        delta = A.sum(axis=2).min(axis=1)
        for theorem, counts in tally.items():
            spec = theorem_spec(theorem, 1)
            # the family of minimum degree d exists from order 2d - 1 on
            keep = np.flatnonzero((delta >= 2) & (2 * delta - 1 <= n)) if spec.uses_delta \
                else np.arange(len(A))
            counts.update(_settled_sides_agree_with_eigvalsh(A[keep], spec, delta[keep].tolist()))
    assert all(t[-1] and t[1] and t["open"] for t in tally.values()), tally


@pytest.mark.parametrize("offset, side", [(-1, 1), (0, 0), (1, -1)])
def test_certificates_prove_only_strict_sides(offset, side, monkeypatch):
    # K_11's Q has every row sum 20, so both of its bounds are exactly 20: a
    # bracket one grid step below or above is cleared, and one at 20 is a tie,
    # which stays open for the eigensolver
    end = (20 << spectral.DYADIC_BITS) + offset
    monkeypatch.setattr(theorems, "_family_threshold", lambda quantity, p: (20.0, end, end))
    A = adjacency_matrices([complete(11)])
    values, _, sides = theorems._bound_sides(A, theorem_spec("q_1", 1), [55], [10])
    assert sides == [side] and (values[0] is None) == (side != 0)


def test_certificates_never_contradict_eigvalsh_on_criterion_10_draws(monkeypatch):
    tally = Counter()

    def checked(A, spec, e, delta):
        tally.update(_settled_sides_agree_with_eigvalsh(A, spec, delta, real))
        return real(A, spec, e, delta)

    real = theorems._bound_sides
    monkeypatch.setattr(theorems, "_bound_sides", checked)
    spec = theorem_spec("mu", 1)
    for s in (3, 4, 5):
        sample_spanning_subgraphs(ExtremalParams(35, 1, s), spec, samples=10_000, seed=20260822 + s)
    assert tally[1] > 9_000 and not tally[-1] and not tally["open"], tally


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


@pytest.mark.parametrize("theorem, params", [
    ("mu", (35, 1, 3)), ("mu", (35, 1, 4)), ("mu", (35, 1, 5)),
    ("q_2", (20, 1, 3)), ("edge_2", (14, 1, 3)),
    ("q_1", (6, 1, 2)), ("q_1", (8, 1, 3)),
])
def test_sampling_matches_the_draw_by_draw_reference(theorem, params):
    # chunk_size(n) draws make one chunk (58 at order 35): one fewer, as
    # many and one more end inside, at and past its edge; the q_1 families
    # reject disconnected draws, and at 500 draws a rejected draw's redraw
    # crosses into the next chunk
    p, spec = ExtremalParams(*params), theorem_spec(theorem, 1)
    size = spectral.chunk_size(p.n)
    counts = (0, 1, size - 1, size, size + 1, 100) + ((500,) if theorem == "q_1" else ())
    for samples in counts:
        rep = sample_spanning_subgraphs(p, spec, samples=samples, seed=1)
        assert rep == sample_reference(p, spec, samples=samples, seed=1)
        assert sum(count for _, count in rep.statuses) == samples


def test_sampling_rejects_disconnected_draws_and_redraws():
    p, spec = ExtremalParams(6, 1, 2), theorem_spec("q_1", 1)
    rep = sample_spanning_subgraphs(p, spec, samples=500, seed=1)
    assert rep.rejected == 217
    assert rep.statuses == (("hypotheses_not_met", 500),)
    assert sample_spanning_subgraphs(ExtremalParams(8, 1, 3), spec,
                                     samples=500, seed=1).rejected == 16


def test_sampling_refuses_a_negative_sample_count():
    # a report of -3 samples with no statuses would break samples == sum of statuses
    with pytest.raises(ValueError, match="non-negative"):
        sample_spanning_subgraphs(ExtremalParams(35, 1, 3), theorem_spec("mu", 1), samples=-3)
    empty = sample_spanning_subgraphs(ExtremalParams(35, 1, 3), theorem_spec("mu", 1), samples=0)
    assert empty.samples == 0 and empty.statuses == () and empty.rejected == 0


def test_chunk_size_is_linear_in_the_order():
    # order 8 keeps the 256 graphs a chunk has always held: sweep-conn8's
    # 11,117 connected graphs go through it, and a 2048-graph order-8 chunk
    # read more peak memory (+5%) and fewer graphs a second (-5%) there
    assert spectral.chunk_size(8) == 256
    assert [spectral.chunk_size(n) for n in (0, 1, 35, 128, 4096)] == [2048, 2048, 58, 16, 1]


def test_chunk_size_changes_no_result(monkeypatch):
    # chunks of one graph, of the 13 and 58 graphs an order-35 chunk held
    # under the quadratic and the linear rule, and of the whole input: the
    # sampler's reports and graph6 stream, and a corpus sweep, are the same
    streamed = []
    real_graph6 = theorems.stack_graph6

    def recorded(A):
        lines = real_graph6(A)
        streamed.extend(lines)
        return lines

    monkeypatch.setattr(theorems, "stack_graph6", recorded)
    mu = theorem_spec("mu", 1)
    corpus = complement_stack(11, 8)
    runs = []
    for size in (1, 13, 58, 10_000):
        for module in (theorems, spectral):   # the classify and connected_flags chunks
            monkeypatch.setattr(module, "chunk_size", lambda n, size=size: size)
        streamed.clear()
        reports = [sample_spanning_subgraphs(ExtremalParams(35, 1, s), mu, samples=200, seed=s)
                   for s in (3, 4, 5)]
        lines = list(streamed)
        sweeps = [sweep(corpus, theorem_spec(t, 1)) for t in ("edge_1", "q_1")]
        runs.append((reports, lines, sweeps))
    assert len(runs[0][1]) == 600 and runs[0][2][0].equality_cases
    assert all(run == runs[0] for run in runs[1:])


def test_sampling_classifies_a_chunk_per_call(monkeypatch):
    # 100 connected draws at order 35 come in chunks of 58: two stacks, at
    # most one eigensolver call each, and no result for a draw that is below
    # the bound or fails the hypotheses, as every one of them does
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_classify", "largest_eigenvalues", "_result"):
        monkeypatch.setattr(theorems, name, counted(name, getattr(theorems, name)))
    rep = sample_spanning_subgraphs(ExtremalParams(35, 1, 3), theorem_spec("mu", 1),
                                    samples=100, seed=1)
    assert rep.rejected == 0 and spectral.chunk_size(35) == 58
    assert calls["_classify"] == 2
    assert calls["largest_eigenvalues"] <= 2
    assert rep.statuses == (("bound_not_met", 95), ("hypotheses_not_met", 5))
    assert calls["_result"] == 0
