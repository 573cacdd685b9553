"""Reference sweep: classify every graph on its own, then tally.

The package's sweep classifies chunks of graphs of one order in bulk and
builds a CheckResult only for equality cases and counterexamples.  This
reference runs check_theorem on every graph, in input order, and counts
the statuses of the full results, so the two must return equal
SweepReports.
"""
from fracext.graph6 import Graph6Error, parse_graph6
from fracext.graphs import Graph
from fracext.theorems import (CONFIRMED, COUNTEREXAMPLE, EQUALITY_CASE,
                              HYPOTHESES_NOT_MET, SweepReport, check_theorem)


def sweep_reference(corpus, spec):
    """SweepReport of check_theorem over every graph of the corpus."""
    graphs = []
    errors = []
    for lineno, item in enumerate(corpus, 1):
        if isinstance(item, Graph):
            graphs.append(item)
            continue
        line = item.decode("ascii", "replace") if isinstance(item, (bytes, bytearray)) else str(item)
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            graphs.append(parse_graph6(line))
        except Graph6Error as exc:
            errors.append((lineno, str(exc)))
    results = [check_theorem(g, spec) for g in graphs]
    return SweepReport(
        theorem=spec.id, k=spec.k, scanned=len(results),
        hypothesis_met=sum(r.status != HYPOTHESES_NOT_MET for r in results),
        bound_met=sum(r.status in (CONFIRMED, EQUALITY_CASE, COUNTEREXAMPLE) for r in results),
        confirmed=sum(r.status == CONFIRMED for r in results),
        equality_cases=tuple(r for r in results if r.status == EQUALITY_CASE),
        counterexamples=tuple(r for r in results if r.status == COUNTEREXAMPLE),
        parse_errors=tuple(errors))
