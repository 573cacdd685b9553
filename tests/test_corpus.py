import itertools
import random

import numpy as np
import pytest

from fracext import (ExtremalParams, Graph, complete, cycle, disjoint_union, empty_graph,
                     extremal_graph, join, path)
from fracext import corpus, spectral
from fracext.corpus import are_isomorphic
from fracext.graph6 import emit_graph6, from_triangle_bits
from fracext.spectral import adjacency_matrices
from canonical_oracle import canonical_form_reference, refinement_cells_reference
from corpus_oracle import all_graphs_reference, sparse_graphs_reference
from helpers import (all_graphs, canonical_form, canonical_forms, complement, complement_corpus,
                     connected_graphs, is_connected, random_graph, relabel, sparse_graphs)

# counts frozen from the standard unlabeled enumeration sequences
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONN_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def test_enumeration_counts():
    for n, want in ALL_COUNTS.items():
        assert len(all_graphs(n)) == want, n
    for n, want in CONN_COUNTS.items():
        got = connected_graphs(n)
        assert len(got) == want, n
        assert all(is_connected(g) for g in got)


def test_enumeration_is_duplicate_free():
    for n in range(1, 7):
        forms = [canonical_form(g) for g in all_graphs(n)]
        assert len(set(forms)) == len(forms)


def test_all_graphs_match_unfiltered_reference():
    for n in range(8):
        assert all_graphs(n) == all_graphs_reference(n), n


def _count_routes(monkeypatch):
    """[graphs canonicalised in bulk, graphs searched by the DFS], counted
    while the test runs."""
    counts = [0, 0]
    bulk, search = corpus._canonical_forms, corpus._search

    def counted_bulk(A):
        counts[0] += len(A)
        return bulk(A)

    def counted_search(*args):
        counts[1] += 1
        return search(*args)

    monkeypatch.setattr(corpus, "_canonical_forms", counted_bulk)
    monkeypatch.setattr(corpus, "_search", counted_search)
    return counts


def test_canonical_deletion_skips_most_candidates(monkeypatch):
    """Up to order 7 canonical deletion and twin-orbit pruning canonicalise
    1685 of the 11290 candidates; canonical deletion alone needs 2490.  The
    DFS searches 606 of them."""
    monkeypatch.setattr(corpus, "_ALL_CACHE", {})
    counts = _count_routes(monkeypatch)
    kept = sum(len(all_graphs(n)) for n in range(2, 8))
    assert kept == 1251 and counts[0] <= 1685 and counts[1] <= 606


def test_order_8_search_reaches_a_quarter_of_the_candidates(monkeypatch):
    """all_graphs(8) canonicalises 16373 candidates and searches 4005."""
    monkeypatch.setattr(corpus, "_ALL_CACHE", {n: corpus._all_stack(n) for n in range(8)})
    counts = _count_routes(monkeypatch)
    assert len(all_graphs(8)) == 12346
    assert counts[0] <= 16373 and counts[1] <= 4005


def test_sparse_graphs_skip_most_candidates(monkeypatch):
    """sparse_graphs(8, 6) canonicalises 166 children for its 100 classes;
    canonical deletion alone needs 398.  The DFS searches 78 of them."""
    counts = _count_routes(monkeypatch)
    assert len(sparse_graphs(8, 6)) == 100 and counts[0] <= 166 and counts[1] <= 78


def test_chunk_boundaries_leave_the_corpora_unchanged(monkeypatch):
    """At 512 entries the corpus patch narrows the child blocks, each
    canonicalised as one stack, to one vertex parent at order 7 and to two
    edge parents at order 8 and one at order 9; the spectral patch narrows
    the connected_flags chunks to 9 graphs of order 7."""
    want = (all_graphs(7), connected_graphs(7), sparse_graphs(8, 6), complement_corpus(9, 6))
    monkeypatch.setattr(corpus, "SWEEP_CHUNK_ENTRIES", 512)    # the child blocks
    monkeypatch.setattr(spectral, "SWEEP_CHUNK_ENTRIES", 512)  # the connected_flags chunks
    monkeypatch.setattr(corpus, "_ALL_CACHE", {})
    assert (all_graphs(7), connected_graphs(7), sparse_graphs(8, 6),
            complement_corpus(9, 6)) == want


def _relabeled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_canonical_form_equals_unpruned_reference():
    """Every class of order <= 7 in a seeded relabeling, and the twin-heavy
    graphs: K_m and its complement, every family member of order <= 9 and
    its complement."""
    rng = random.Random(403)
    family = [extremal_graph(ExtremalParams(n, k, s)) for n in range(10)
              for k in range(1, 5) for s in range(2 * k, n) if n >= 2 * s - 2 * k + 1]
    graphs = [g for n in range(8) for g in all_graphs(n)]
    graphs += [complete(m) for m in range(8)] + [empty_graph(m) for m in range(8)]
    graphs += family + [complement(g) for g in family]
    for g in graphs:
        h = _relabeled(rng, g)
        assert _cells([h]) == [refinement_cells_reference(h)]
        assert canonical_form(h) == canonical_form_reference(h)


def _cells(graphs):
    """The stacked refinement's cells of graphs of one order, graph by graph."""
    colours = corpus._refine(adjacency_matrices(graphs))
    return [[[v for v in range(len(c)) if c[v] == k] for k in range(max(c, default=-1) + 1)]
            for c in colours.tolist()]


def _route(g, cells):
    """'discrete', 'twins' (the cells force the labeling) or 'search'."""
    def twins(u, w):
        rest = ~(1 << u | 1 << w)
        return g.rows[u] & rest == g.rows[w] & rest

    if all(len(c) == 1 for c in cells):
        return "discrete"
    return "twins" if all(twins(c[0], v) for c in cells for v in c) else "search"


def _blow_up(rng, n):
    """A random graph on n vertices made of twin classes: a random quotient
    whose vertices become cliques or independent sets, relabeled."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(rng.randint(1, 4), n - sum(sizes)))
    quotient = random_graph(rng, len(sizes), 0.5)
    start = [sum(sizes[:i]) for i in range(len(sizes))]
    edges = [(a, b) for i, size in enumerate(sizes) if rng.random() < 0.5
             for a in range(start[i], start[i] + size) for b in range(a + 1, start[i] + size)]
    edges += [(a, b) for i, j in quotient.edges()
              for a in range(start[i], start[i] + sizes[i])
              for b in range(start[j], start[j] + sizes[j])]
    return _relabeled(rng, Graph.from_edges(n, edges))


def test_refinement_cells_equal_reference_on_random_graphs():
    """Seeded stacks of every order 1-20 and of 40, 64, 100 and 128 mix
    discrete graphs, graphs whose cells are twin classes and graphs that
    need the search; every graph's cells equal the reference's, and up to
    order 20 its form from the stack equals its form alone.  Above order 15
    a key of n ** n would overflow int64."""
    rng = random.Random(405)
    for n in list(range(1, 21)) + [40, 64, 100, 128]:
        stack = [random_graph(rng, n, rng.random()) for _ in range(4)]
        stack += [_blow_up(rng, n) for _ in range(4)]
        stack += [_relabeled(rng, g) for g in (path(n), complete(n), empty_graph(n))]
        if n >= 4:
            stack += [_relabeled(rng, g) for g in (cycle(n), join(cycle(n - 1), empty_graph(1)))]
        if n >= 6:
            # a path with a triangle near one end refines to singletons
            tadpole = Graph.from_edges(n, [(v, v + 1) for v in range(n - 2)] + [(n - 1, 1), (n - 1, 2)])
            stack.append(_relabeled(rng, tadpole))
        rng.shuffle(stack)
        cells = _cells(stack)
        assert cells == [refinement_cells_reference(g) for g in stack], n
        routes = {_route(g, c) for g, c in zip(stack, cells)}
        assert routes >= ({"discrete"} if n == 1 or n >= 6 else set()) | ({"twins"} if n >= 2 else set()), n
        assert n < 4 or "search" in routes, n
        if n <= 20:
            assert canonical_forms(stack) == [canonical_form(g) for g in stack]


def test_canonical_form_large_twin_classes():
    """K_20 has one class of 20 closed twins; family (20, 1, 3) plus the
    edge (3, 19) keeps 14 of its 15 inner-clique twins."""
    rng = random.Random(404)
    near = Graph.from_edges(20, list(extremal_graph(ExtremalParams(20, 1, 3)).edges()) + [(3, 19)])
    for g in (complete(20), near):
        form = canonical_form(g)
        assert canonical_form(_relabeled(rng, g)) == form
        assert from_triangle_bits(*form).degree_sequence() == g.degree_sequence()
    assert canonical_form(complete(20)) == (20, (1 << 190) - 1)
    assert not are_isomorphic(complete(20), near)


def test_sparse_graphs_match_unfiltered_reference():
    for n in range(8):
        top = n * (n - 1) // 2
        ref = sparse_graphs_reference(n, top)
        for m in range(top + 1):
            assert sparse_graphs(n, m) == tuple(g for g in ref if g.edge_count() <= m), (n, m)


def test_sparse_graphs_rejects_negative_budget():
    with pytest.raises(ValueError):
        sparse_graphs(5, -1)


def test_cross_enumeration_brute_force():
    """Canonical classes of all 2^10 labeled graphs on 5 vertices."""
    pairs = list(itertools.combinations(range(5), 2))
    seen = set()
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        seen.add(canonical_form(Graph.from_edges(5, edges)))
    assert len(seen) == 34
    assert seen == {canonical_form(g) for g in all_graphs(5)}


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(401)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 8), rng.random())
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(relabel(g, perm))


def test_canonical_form_round_trip():
    rng = random.Random(402)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        back = from_triangle_bits(*canonical_form(g))
        assert are_isomorphic(g, back)


def test_canonical_form_is_the_graph6_payload():
    # one layout: each class's form is the graph6 payload of the graph it
    # decodes to, with the padding bits dropped
    for n in range(2, 8):
        for g in all_graphs(n):
            form = canonical_form(g)
            text = emit_graph6(from_triangle_bits(*form))
            payload = int("".join(format(ord(c) - 63, "06b") for c in text[1:]), 2)
            nbits = n * (n - 1) // 2
            assert payload == form[1] << (-nbits % 6)


def test_are_isomorphic_hard_pairs():
    assert are_isomorphic(cycle(6), relabel(cycle(6), [3, 1, 4, 5, 0, 2]))
    # same degree sequence, different graphs
    assert not are_isomorphic(cycle(6), disjoint_union(complete(3), complete(3)))
    k33 = Graph.from_edges(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                 (0, 3), (1, 4), (2, 5)])
    assert not are_isomorphic(k33, prism)
    assert not are_isomorphic(complete(4), complete(5))


def test_are_isomorphic_agrees_with_canonical_form_on_relabelings():
    # each graph against a relabeling of itself, and of another graph of its
    # order and edge count, which is mostly not isomorphic to it
    rng = random.Random(405)
    outcomes = []
    for _ in range(120):
        g = random_graph(rng, rng.randint(0, 8), rng.random())
        pairs = list(itertools.combinations(range(g.n), 2))
        other = Graph.from_edges(g.n, rng.sample(pairs, g.edge_count()))
        for h in (_relabeled(rng, g), _relabeled(rng, other)):
            same = are_isomorphic(g, h)
            assert same == are_isomorphic(h, g) == (canonical_form(g) == canonical_form(h))
            outcomes.append(same)
    assert outcomes.count(False) > 20 and outcomes.count(True) > 120


def test_sparse_graphs_against_filter():
    want = {canonical_form(g) for g in all_graphs(5) if g.edge_count() <= 3}
    got = sparse_graphs(5, 3)
    assert {canonical_form(g) for g in got} == want
    assert all(g.edge_count() <= 3 for g in got)


def test_complement_corpus(monkeypatch):
    """A budget past n(n-1)/2 builds no level past the complete graph."""
    got = complement_corpus(6, 4)
    want = {canonical_form(complement(g)) for g in sparse_graphs(6, 4)}
    assert {canonical_form(g) for g in got} == want
    assert all(g.edge_count() >= 15 - 4 for g in got)
    for n in range(7):
        top = n * (n - 1) // 2
        assert np.array_equal(corpus.complement_stack(n, top + 3), corpus.complement_stack(n, top)), n
    full, level, calls = corpus.complement_stack(5, 10), corpus._level, []

    def counted(children, n):
        calls.append(n)
        return level(children, n)

    monkeypatch.setattr(corpus, "_level", counted)
    assert np.array_equal(corpus.complement_stack(5, 1000), full)
    assert len(calls) <= 10
