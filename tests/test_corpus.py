import itertools
import random

import pytest

from fracext import (ExtremalParams, Graph, complement, complete, cycle, disjoint_union,
                     empty_graph, extremal_graph, is_connected)
from fracext import corpus
from fracext.corpus import (all_graphs, are_isomorphic, canonical_form,
                            complement_corpus, connected_graphs, sparse_graphs)
from fracext.graph6 import emit_graph6, from_triangle_bits
from canonical_oracle import canonical_form_reference, refinement_cells_reference
from corpus_oracle import all_graphs_reference, sparse_graphs_reference
from helpers import random_graph, relabel

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


def test_canonical_deletion_skips_most_candidates(monkeypatch):
    """Up to order 7 canonical deletion and twin-orbit pruning canonicalise
    1685 of the 11290 candidates; canonical deletion alone needs 2490."""
    calls = []
    monkeypatch.setattr(corpus, "_ALL_CACHE", {})
    monkeypatch.setattr(corpus, "canonical_form",
                        lambda g: calls.append(g.n) or canonical_form(g))
    kept = sum(len(all_graphs(n)) for n in range(2, 8))
    assert kept == 1251 and len(calls) <= 1685


def test_sparse_graphs_skip_most_candidates(monkeypatch):
    """sparse_graphs(8, 6) canonicalises 166 children for its 100 classes;
    canonical deletion alone needs 398."""
    calls = []
    monkeypatch.setattr(corpus, "canonical_form",
                        lambda g: calls.append(g.n) or canonical_form(g))
    assert len(sparse_graphs(8, 6)) == 100 and len(calls) <= 166


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
        assert corpus._refinement_cells(h) == refinement_cells_reference(h)
        assert canonical_form(h) == canonical_form_reference(h)


def test_refinement_cells_equal_reference_on_random_graphs():
    """The integer signatures sort as the reference's tuples beyond the
    orders the exhaustive check reaches."""
    rng = random.Random(405)
    for _ in range(300):
        g = random_graph(rng, rng.randint(8, 40), rng.random())
        assert corpus._refinement_cells(g) == refinement_cells_reference(g)


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


def test_sparse_graphs_against_filter():
    want = {canonical_form(g) for g in all_graphs(5) if g.edge_count() <= 3}
    got = sparse_graphs(5, 3)
    assert {canonical_form(g) for g in got} == want
    assert all(g.edge_count() <= 3 for g in got)


def test_complement_corpus():
    corpus = complement_corpus(6, 4)
    want = {canonical_form(complement(g)) for g in sparse_graphs(6, 4)}
    assert {canonical_form(g) for g in corpus} == want
    assert all(g.edge_count() >= 15 - 4 for g in corpus)
