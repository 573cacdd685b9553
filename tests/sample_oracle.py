"""Reference sampler: classify every draw on its own, redrawing in place.

The package's sampler draws its cuts in chunks and classifies each chunk
as one stack.  This reference is the draw-by-draw loop it replaced: each
draw is the family's adjacency stack with one cut zeroed, classified as a
stack of one; a disconnecting cut is rejected and redrawn at once, and the
draw's Graph comes from the family's bit rows with the cut pairs flipped,
its graph6 line from helpers.reference_graph6.  The two must return equal
SampleReports.
"""
import random

from fracext.graphs import Graph, extremal_graph
from fracext.spectral import adjacency_matrices
from fracext.theorems import (COUNTEREXAMPLE, EQUALITY_CASE, MAX_DELETIONS, SampleReport,
                              _classify, _result)
from helpers import reference_graph6


def sample_reference(p, spec, *, samples, seed):
    """SampleReport of seeded spanning subgraphs of family p, one draw at a time."""
    rng = random.Random(seed)
    src = extremal_graph(p)
    n, edges = src.n, src.edges()
    family = adjacency_matrices([src])
    max_d = min(MAX_DELETIONS, len(edges) - 1)
    tallies = {}
    cex = []
    eq = []
    rejected = 0
    for _ in range(samples):
        while True:
            cut = rng.sample(edges, rng.randint(1, max_d))
            A = family.copy()
            A.reshape(n * n)[[i for u, v in cut for i in (u * n + v, v * n + u)]] = 0
            [outcome] = _classify(A, spec)
            if outcome[3]:   # connected
                break
            rejected += 1
        rows = list(src.rows)
        for u, v in cut:
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        res = _result(reference_graph6(Graph._of(n, tuple(rows))), A, spec, outcome)
        tallies[res.status] = tallies.get(res.status, 0) + 1
        if res.status == COUNTEREXAMPLE:
            cex.append(res)
        elif res.status == EQUALITY_CASE:
            eq.append(res)
    return SampleReport(params=p, theorem=spec.id, samples=samples,
                        rejected=rejected,
                        statuses=tuple(sorted(tallies.items())),
                        counterexamples=tuple(cex), equality_cases=tuple(eq))
