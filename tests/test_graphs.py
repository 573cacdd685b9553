import random

import pytest

from fracext import (CapacityError, ExtremalParams, Graph, MAX_VERTICES,
                     complete, cycle, disjoint_union, empty_graph,
                     extremal_edge_count, extremal_graph, is_fext_definitional,
                     isolated_count, join, matches_extremal, neighbourhood, path)
from fracext import theorems
from fracext.graph6 import from_triangle_bits, parse_graph6
from fracext.corpus import are_isomorphic
from fracext.matching import BAD_MATCHING
from helpers import (all_graphs, complement, complement_corpus, connected_component_mask,
                     connected_graphs, embeds_in_extremal, graph_stats, is_connected, relabel)


def test_basic_constructors():
    assert complete(5).edge_count() == 10
    assert cycle(6).edge_count() == 6
    assert path(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert empty_graph(3).edge_count() == 0
    g = Graph.from_edges(4, [(2, 0), (3, 1), (0, 2)])  # duplicates collapse
    assert g.edges() == [(0, 2), (1, 3)]
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 1)


def test_join_and_union_reject_orders_above_capacity():
    with pytest.raises(CapacityError):
        join(complete(100), complete(29))
    with pytest.raises(CapacityError):
        disjoint_union(complete(100), complete(29))


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


def test_constructor_rejects_bad_rows():
    for n, rows in ((2, (0b10, 0)),      # 0 ~ 1 but not 1 ~ 0
                    (2, (0b01, 0)),      # a loop at 0
                    (2, (0b100, 0)),     # a bit at n
                    (3, (0b10, 0b01))):  # two rows for order 3
        with pytest.raises(ValueError):
            Graph(n, rows)


def test_builders_make_rows_the_checking_constructor_accepts(monkeypatch):
    # the builders skip the row scan, so rebuild each result through Graph(n, rows)
    rng = random.Random(20261019)
    built = []
    for _ in range(30):
        n = rng.randint(0, 40)
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(n)
                                 if u != v and rng.random() < 0.3])
        h = Graph.from_edges(rng.randint(0, 40), [])
        built += [g, complement(g), join(g, complement(h)), disjoint_union(g, h),
                  empty_graph(n), complete(n)]
    built += [from_triangle_bits(n, rng.getrandbits(n * (n - 1) // 2))
              for n in range(MAX_VERTICES + 1)]
    built += [extremal_graph(ExtremalParams(n, k, s)) for n in range(3, 30, 4)
              for k in (1, 2, 3) for s in range(2 * k, (n + 2 * k - 1) // 2 + 1)]
    draws = []   # every connected draw's graph6 line comes from stack_graph6
    encode = theorems.stack_graph6

    def collect(A):
        lines = encode(A)
        draws.extend(map(parse_graph6, lines))
        return lines

    monkeypatch.setattr(theorems, "stack_graph6", collect)
    theorems.sample_spanning_subgraphs(ExtremalParams(20, 1, 3), theorems.theorem_spec("mu", 1),
                                       samples=50, seed=3)
    assert len(draws) == 50
    built += draws + list(all_graphs(6)) + list(complement_corpus(8, 3))
    for g in built:
        assert Graph(g.n, g.rows) == g
    for make in (lambda: from_triangle_bits(MAX_VERTICES + 1, 0),
                 lambda: Graph.from_edges(MAX_VERTICES + 1, []),
                 lambda: empty_graph(MAX_VERTICES + 1),
                 lambda: complete(MAX_VERTICES + 1)):
        with pytest.raises(CapacityError):
            make()


def test_degrees_and_stats():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert g.rows[0].bit_count() == 4
    assert sorted(g.degree_sequence()) == [1, 1, 1, 1, 4]
    st = graph_stats(g)
    assert (st.n, st.e, st.min_degree, st.connected) == (5, 4, 1, True)


def test_neighbourhood():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(1, 70)
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < 0.1])
        mask = rng.getrandbits(n)
        want = 0
        for u, v in g.edges():
            want |= ((mask >> u & 1) << v) | ((mask >> v & 1) << u)
        assert neighbourhood(g, mask) == want
    assert neighbourhood(complete(4), 0) == 0
    assert connected_component_mask(disjoint_union(path(3), path(2)), 4) == 0b11000


def test_join_and_union_and_complement():
    assert join(complete(2), complete(3)) == complete(5)
    assert complement(empty_graph(4)) == complete(4)
    g = disjoint_union(complete(3), complete(2))
    assert g.n == 5 and g.edge_count() == 4
    assert not is_connected(g)
    assert is_connected(complement(g))


def test_isolated_count():
    c5 = cycle(5)
    assert isolated_count(c5) == 0
    assert isolated_count(disjoint_union(complete(1), complete(2))) == 1
    # removal mask semantics: drop both neighbors of a path end
    assert isolated_count(path(3), 0b010) == 2


def test_equality_and_hash():
    a = Graph.from_edges(4, [(0, 1), (2, 3)])
    b = Graph.from_edges(4, [(2, 3), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph.from_edges(4, [(0, 1)])


def test_capacity_cap():
    complete(MAX_VERTICES)  # the cap itself is fine
    with pytest.raises(CapacityError):
        complete(MAX_VERTICES + 1)


def test_extremal_params_validation():
    p = ExtremalParams(n=11, k=1, s=2)
    assert p.inner_size == 8 and p.independent_size == 1
    with pytest.raises(ValueError):
        ExtremalParams(n=11, k=0, s=2)
    with pytest.raises(ValueError):
        ExtremalParams(n=11, k=2, s=3)  # s < 2k
    with pytest.raises(ValueError):
        ExtremalParams(n=6, k=1, s=4)   # inner clique would be negative


def test_extremal_graph_shape():
    p = ExtremalParams(n=11, k=1, s=2)
    g = extremal_graph(p)
    assert g.n == 11
    assert g.edge_count() == extremal_edge_count(p) == 47
    # the s-clique dominates, the tail is independent
    for v in range(p.s):
        assert g.rows[v].bit_count() == 10
    tail = range(p.s + p.inner_size, p.n)
    for v in tail:
        assert g.rows[v].bit_count() == p.s
    tail_mask = sum(1 << v for v in tail)
    assert all(g.rows[v] & tail_mask == 0 for v in tail)
    assert min(g.degree_sequence()) == p.s


@pytest.mark.parametrize("n,k,s", [(11, 1, 2), (12, 1, 3), (16, 2, 5), (13, 2, 4)])
def test_matches_extremal_under_relabeling(n, k, s):
    p = ExtremalParams(n=n, k=k, s=s)
    g = extremal_graph(p)
    assert matches_extremal(g, p)
    rng = random.Random(n * 100 + s)
    for _ in range(5):
        perm = list(range(n))
        rng.shuffle(perm)
        assert matches_extremal(relabel(g, perm), p)


def test_matches_extremal_rejects_perturbations():
    p = ExtremalParams(n=11, k=1, s=2)
    g = extremal_graph(p)
    edges = g.edges()
    assert not matches_extremal(Graph.from_edges(11, edges[:-1]), p)
    assert not matches_extremal(complete(11), p)
    # right edge count, wrong shape
    assert not matches_extremal(cycle(11), ExtremalParams(n=11, k=1, s=5))


def test_matches_extremal_picks_one_class_per_family_member():
    # independent route: canonical-form isomorphism over every class of order <= 8
    for n in range(1, 9):
        for k in range(1, n):
            for s in range(2 * k, (n + 2 * k - 1) // 2 + 1):
                p = ExtremalParams(n=n, k=k, s=s)
                hits = [g for g in all_graphs(n) if matches_extremal(g, p)]
                assert len(hits) == 1, p
                assert are_isomorphic(hits[0], extremal_graph(p)), p


def test_embeds_in_extremal():
    p = ExtremalParams(n=11, k=1, s=2)
    g = extremal_graph(p)
    clique = 0b11
    assert embeds_in_extremal(g, 1, clique)
    # dropping inner edges keeps the embedding
    thinner = Graph.from_edges(11, [e for e in g.edges() if e != (2, 3)])
    assert embeds_in_extremal(thinner, 1, clique)
    # K11 leaves no isolated vertices behind the set, so no certificate
    assert not embeds_in_extremal(complete(11), 1, clique)


def test_negative_verdicts_embed_in_extremal():
    # the proof's structural step: a violating set S of a graph that is not
    # fractional k-extendable puts the graph inside extremal_graph(n, k, |S|)
    negatives = 0
    for n in range(4, 8):
        for g in connected_graphs(n):
            for k in (1, 2):
                verdict = is_fext_definitional(g, k)
                if verdict.reason == BAD_MATCHING:
                    assert embeds_in_extremal(g, k, verdict.witness_set), (g.rows, k)
                    negatives += 1
    assert negatives > 0
    print(f"{negatives} unextendable_matching verdicts on connected orders 4-7, "
          f"k in {{1, 2}}: every witness set embeds in its extremal family member")
