"""Reference corpora: canonicalise every augmentation, filter nothing.

The package's generators skip a candidate unless its new vertex (or edge)
maximises a degree invariant, and canonicalise only the rest.  These
generators keep both axes unfiltered: every graph of order n - 1 times
every neighbourhood of a new vertex, and every graph with m - 1 edges
times every non-edge, each child canonicalised.  They share only the
canonical form and graph6.from_triangle_bits with the package, and they emit
the classes in the same order, so the outputs must be equal as tuples.  The
children of one graph are canonicalised as one stack: helpers.canonical_form
is the stack of one, and tests/test_corpus.py checks that a graph's form does not
depend on the stack it is in.
"""
from fracext.graph6 import from_triangle_bits
from fracext.graphs import Graph, empty_graph
from helpers import canonical_forms


def _forms(children):
    """The canonical forms of graphs of one order."""
    return canonical_forms(children) if children else []


def all_graphs_reference(n):
    """Every graph of order n up to isomorphism, sorted by canonical form."""
    if n <= 1:
        return (empty_graph(n),)
    forms = set()
    for parent in all_graphs_reference(n - 1):
        children = []
        for sub in range(1 << (n - 1)):
            rows = [r | (((sub >> v) & 1) << (n - 1)) for v, r in enumerate(parent.rows)]
            children.append(Graph(n, tuple(rows + [sub])))
        forms.update(_forms(children))
    return tuple(from_triangle_bits(*f) for f in sorted(forms))


def sparse_graphs_reference(n, max_edges):
    """Graphs of order n with at most max_edges edges, level by level."""
    level = set(_forms([empty_graph(n)]))
    out = [empty_graph(n)]
    for _ in range(max_edges):
        nxt = set()
        for f in level:
            g = from_triangle_bits(*f)
            children = []
            for u in range(n):
                for v in range(u + 1, n):
                    if not g.has_edge(u, v):
                        rows = list(g.rows)
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
                        children.append(Graph(n, tuple(rows)))
            nxt.update(_forms(children))
        level = nxt
        out.extend(from_triangle_bits(*f) for f in sorted(nxt))
    return tuple(out)
