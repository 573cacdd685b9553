"""Executable forms of the extendability bounds and their supporting grids.

Five sufficient conditions are encoded: two edge-count bounds, two signless
Laplacian bounds, and one distance spectral bound.  Every bound is sharp
at the family K_s v (K_{n-2s+2k-1} u (s-2k+1)K_1), so each threshold is that
family member's own edge count, q or mu.  A TheoremSpec is a theorem id and
k, and reads its hypotheses, its threshold, and its exceptional graph off
the id's _THEOREMS row; check_theorem classifies a single graph, sweep
classifies a corpus in bulk, and the grid, sharpness, and sampling routines
certify the inequalities the proofs lean on in regions where exhaustive
search is impossible.

_classify is the one classification route: it takes a 0/1 adjacency stack of
one order, reads e, delta and connectivity off it through spectral.stack_stats,
settles the bound test of the graphs past the hypotheses in one _bound_sides
call, skipped when no graph is past them, and yields each graph's outcome in
stack order.  An edge count is compared as an integer.  For q and mu,
spectral.radius_bounds gives each graph's Rayleigh lower and Collatz-Wielandt
upper bound, and a graph whose bounds clear its threshold's certified bracket,
both on the grid of 2^-20, is proven below or above it with no eigenvalue.
An open graph with the family's degree sequence is the family, on its
threshold.  Each other open graph takes more power steps in Python ints
until its exact bounds clear the bracket or lie within its width, so no
float settles a bound test.  The value a CheckResult prints is the
eigensolver's, computed in _result alone, for a result some caller keeps.
sharpness classifies the family graph through check_theorem and
proves its equality exactly.  A Graph is built only for a graph that reaches
the oracle, and no outcome carries one.  sweep classifies chunks of one order
and keeps only tallies, so a CheckResult, with its graph6 line from
graph6.stack_graph6, is built only for an equality case or a counterexample.
A generated corpus is swept as the stack it is; Graph objects and graph6
lines are stacked chunk by chunk through spectral.adjacency_matrices.

The grids take each family member's q or mu from its closed-form cubic and
back every root with the width of its certified bracket, with no matrix or
eigensolver call; a strict row holds when the two brackets are disjoint on
its side.  A gap probe is the q1q3 or mu_compare grid of one (k, delta) from
order 6*delta up to the least order, reported but not asserted.
The edge theorems need no grid: edge_certificates proves their comparison,
and edge_1's k-matching premise, at every order from 27 values per margin.

Each theorem's region starts at a least order kept once, in _THEOREMS:
edge_1 2k+9, q_1 2k+6, edge_2 6*delta, q_2 6.5*delta, mu 12*delta-2k+1 (the
three delta theorems also need delta >= 2k+1).  The hypotheses, grids,
gap probes and edge certificates all read it through TheoremSpec.
"""
from __future__ import annotations

import functools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, product
from typing import Iterable, Iterator

import numpy as np

from .graphs import (ExtremalParams, Graph, extremal_degrees, extremal_edge_count, extremal_graph,
                     matches_extremal)
from .graph6 import Graph6Error, parse_graph6, stack_graph6
from .matching import BAD_SET, Verdict, is_fext_definitional, verify_witness
from .spectral import (DYADIC_BITS, adjacency_matrices, charpoly3, chunk_size, distance_matrices,
                       family_coefficients, family_cubic, largest_eigenvalues,
                       largest_real_roots, positional_blocks, quotient, radius_bounds,
                       signless_laplacians, stack_graphs, stack_stats)

# id: (quantity, bound side, uses delta, least-order label, least order(k, delta))
_THEOREMS = {
    "edge_1": ("e", ">=", False, "2k+9", lambda k, delta: 2 * k + 9),
    "edge_2": ("e", ">=", True, "6*delta", lambda k, delta: 6 * delta),
    "q_1": ("q", ">=", False, "2k+6", lambda k, delta: 2 * k + 6),
    "q_2": ("q", ">=", True, "6.5*delta", lambda k, delta: Fraction(13 * delta, 2)),
    "mu": ("mu", "<=", True, "12*delta-2k+1", lambda k, delta: 12 * delta - 2 * k + 1),
}
THEOREM_IDS = tuple(_THEOREMS)
# each comparison grid backs the theorem it serves and starts at its least order
_LEMMA_THEOREM = {"q1q2": "q_1", "q1q3": "q_2", "mu_compare": "mu"}
LEMMA_IDS = tuple(_LEMMA_THEOREM)

# per-graph classification
HYPOTHESES_NOT_MET = "hypotheses_not_met"
BOUND_NOT_MET = "bound_not_met"
CONFIRMED = "confirmed_extendable"
EQUALITY_CASE = "equality_case"
COUNTEREXAMPLE = "COUNTEREXAMPLE"

# largest cross-check error, a bound on |spectral radius - closed-form root|,
# that a grid point may show
CROSSCHECK_TOL = 1e-8


@functools.cache
def _family_threshold(quantity: str, p: ExtremalParams) -> tuple:
    """(threshold, lo, hi, width): the family member's own edge count, q or
    mu, and for q and mu integers with lo <= 2^DYADIC_BITS * threshold <= hi.

    q and mu are the largest root of the member's cubic, and width > 0 that
    of its certified bracket, root -/+ width, from the same
    largest_real_roots call; [lo, hi] is that bracket rounded outward onto
    the dyadic grid in exact arithmetic.  An edge count is compared as the
    integer it is, with no bracket.
    """
    if quantity == "e":
        return extremal_edge_count(p), None, None, None
    roots, widths = largest_real_roots(family_coefficients(quantity, [(p.n, p.k, p.s)]))
    root, width = float(roots[0]), float(widths[0])
    if not math.isfinite(width):   # never: a family's q or mu is a simple root
        raise ArithmeticError(f"the {quantity} bracket of {p} is not certified")
    scale = Fraction(1 << DYADIC_BITS)
    return (root, math.floor((Fraction(root) - Fraction(width)) * scale),
            math.ceil((Fraction(root) + Fraction(width)) * scale), width)


@dataclass(frozen=True)
class TheoremSpec:
    """One sufficient condition at one k: the _THEOREMS row of id, which
    every property reads, so a spec holds nothing a row could contradict.

    quantity is "e", "q", or "mu"; bound_side is ">=" for the edge and
    signless Laplacian conditions and "<=" for the distance condition.
    uses_delta picks the exceptional family's clique size (clique).
    """
    id: str
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.id not in _THEOREMS:
            raise ValueError(f"unknown theorem id {self.id!r}")

    @property
    def quantity(self) -> str:
        return _THEOREMS[self.id][0]

    @property
    def bound_side(self) -> str:
        return _THEOREMS[self.id][1]

    @property
    def uses_delta(self) -> bool:
        return _THEOREMS[self.id][2]

    def hypotheses(self, n: int, delta: int, connected: bool) -> str | None:
        """None when every hypothesis holds, else the first failure."""
        k = self.k
        if not connected:
            return "disconnected"
        if self.uses_delta and delta < 2 * k + 1:
            return f"minimum degree {delta} < 2k+1 = {2 * k + 1}"
        label, least = _THEOREMS[self.id][3:]
        if n < (bound := least(k, delta)):
            return f"order {n} < {label} = {bound}"
        return None

    def min_order(self, delta: int | None) -> int:
        """The least order at which the hypotheses hold (delta unused by edge_1, q_1)."""
        return math.ceil(_THEOREMS[self.id][4](self.k, delta))

    def clique(self, delta: int | None) -> int:
        """The exceptional family's clique size s: the graph's own minimum
        degree delta when uses_delta, 2k otherwise."""
        return delta if self.uses_delta else 2 * self.k

    def family(self, n: int, delta: int) -> ExtremalParams:
        return ExtremalParams(n=n, k=self.k, s=self.clique(delta))

    def matrices(self, A: np.ndarray) -> np.ndarray:
        """The Q (q) or D (mu) stack of an (m, n, n) 0/1 adjacency stack."""
        return signless_laplacians(A) if self.quantity == "q" else distance_matrices(A)

    def values(self, A: np.ndarray) -> list[float | int]:
        """Each graph's own bound quantity, its edge count or its q or mu,
        for an (m, n, n) 0/1 adjacency stack: its Q or D stack goes to the
        eigensolver in one call."""
        if self.quantity == "e":
            return (A.sum(axis=(1, 2), dtype=np.int64) // 2).tolist()
        return largest_eigenvalues(self.matrices(A)).tolist()


def theorem_spec(theorem_id: str, k: int) -> TheoremSpec:
    return TheoremSpec(theorem_id, k)


@dataclass(frozen=True)
class CheckResult:
    status: str
    theorem: str
    k: int
    n: int
    e: int
    min_degree: int
    connected: bool
    graph6: str
    value: float | int | None = None
    threshold: float | int | None = None
    detail: str = ""
    oracle: Verdict | None = None


def _power_bounds(M: np.ndarray, t: int) -> Iterator[tuple[Fraction, Fraction]]:
    """radius_bounds's Rayleigh lower and Collatz-Wielandt upper bound on
    rho(M), unrounded, from x = M^j * 1 for j = t + 1, t + 2, ... without end,
    for one matrix with positive row sums, in Python ints: exact at any size."""
    M, step = M.astype(object), 0
    x = y = M.sum(axis=1)   # M * 1
    while True:
        x, y, step = y, M.dot(y), step + 1   # x = M^step * 1, y = M x
        if step > t:
            yield Fraction(x.dot(y), x.dot(x)), max(map(Fraction, y.tolist(), x.tolist()))


def _bound_sides(A: np.ndarray, spec: TheoremSpec, e: list[int],
                 delta: list[int]) -> tuple[tuple, list[int]]:
    """(thresholds, sides) of the graphs of an (m, n, n) 0/1 adjacency stack
    past the hypotheses, given their edge counts and minimum degrees: side
    -1, 0 or 1 as the graph's value is below, at or above its threshold,
    with no eigenvalue.

    An edge count is compared as the integer it is.  For q and mu,
    radius_bounds of the Q (t = 2) or D (t = 1) stack decide every graph
    whose bounds clear the dyadic bracket.  An open graph with the family's
    degree sequence is the family (graphs.extremal_degrees): side 0.  Each
    other open graph takes _power_bounds until they clear the threshold's
    unrounded bracket, root -/+ width (side -1 or 1), or lie no further
    apart than its ends (side 0, which proves |rho - threshold| <= 4 width:
    the graph goes on to the oracle, as a tie does).  The loop ends: every
    graph here is connected of order n >= 2, so its Q (irreducible, with a
    positive diagonal) and its D (positive off it; at n = 2, 1 is its
    Perron vector) are primitive, both bounds tend to rho, and width > 0.
    """
    n = A.shape[1]
    brackets = {d: _family_threshold(spec.quantity, spec.family(n, d)) for d in set(delta)}
    thr, lo, hi, width = zip(*(brackets[d] for d in delta))
    if spec.quantity == "e":
        return thr, np.sign(np.subtract(e, thr)).tolist()
    M, t = spec.matrices(A), (2 if spec.quantity == "q" else 1)
    lower, upper = radius_bounds(M, t)
    side = (lower > np.array(hi)).astype(int) - (upper < np.array(lo))
    left_open = np.flatnonzero(side == 0)
    if left_open.size:   # drop the family members: isomorphic graphs have equal values
        family = {d: extremal_degrees(spec.family(n, d)) for d in set(delta)}
        own = np.sort(A[left_open].sum(axis=2), axis=1)[:, ::-1]
        left_open = left_open[(own != [family[delta[i]] for i in left_open.tolist()]).any(axis=1)]
    for i in left_open.tolist():
        start, end = Fraction(thr[i]) - Fraction(width[i]), Fraction(thr[i]) + Fraction(width[i])
        for low, high in _power_bounds(M[i], t):
            side[i] = (low > end) - (high < start)
            if side[i] or high - low <= end - start:
                break
    return thr, side.tolist()


def _classify(A: np.ndarray, spec: TheoremSpec) -> Iterator[tuple]:
    """(status, e, delta, connected, threshold, detail, verdict) of each
    graph of an (m, n, n) 0/1 adjacency stack of one order, in stack order.

    e, delta and connected come from stack_stats; when some graph is past
    the hypotheses, one _bound_sides call settles their bound tests
    exactly.  The oracle runs on a Graph built from the stack, for a graph
    past the bound only.  The tests run in the order check_theorem
    documents.
    """
    n = A.shape[1]
    e, delta, connected = stack_stats(A)
    reasons = {key: spec.hypotheses(n, *key) for key in set(zip(delta, connected))}
    failed = [reasons[key] for key in zip(delta, connected)]
    past = [i for i, f in enumerate(failed) if f is None]
    bounds = iter(())
    if past:
        bounds = zip(*_bound_sides(A[past], spec, [e[i] for i in past], [delta[i] for i in past]))
    below = -1 if spec.bound_side == ">=" else 1
    for i, f in enumerate(failed):
        stats = e[i], delta[i], connected[i]
        if f is not None:
            yield HYPOTHESES_NOT_MET, *stats, None, f, None
            continue
        thr, side = next(bounds)
        if side == below:
            yield BOUND_NOT_MET, *stats, thr, "", None
            continue
        [g] = stack_graphs(A[i:i + 1])
        verdict = is_fext_definitional(g, spec.k)
        status, detail = COUNTEREXAMPLE, ""
        if matches_extremal(g, spec.family(n, delta[i])):
            if verdict.answer:
                raise RuntimeError("exceptional graph reported extendable; recognizer and oracle disagree")
            status, detail = EQUALITY_CASE, "isomorphic to the exceptional graph"
        elif verdict.answer:
            status = CONFIRMED
        yield status, *stats, thr, detail, verdict


def _result(line: str, A: np.ndarray, spec: TheoremSpec, outcome: tuple) -> CheckResult:
    """The CheckResult of the _classify outcome of the graph of a stack of
    one, given its graph6 line; past the hypotheses its value is the
    eigensolver's, from TheoremSpec.values, the one place a value is made."""
    status, e, delta, connected, thr, *rest = outcome   # detail, verdict
    value = None if thr is None else spec.values(A)[0]
    return CheckResult(status, spec.id, spec.k, A.shape[1], e, delta, connected, line, value, thr,
                       *rest)


def check_theorem(g: Graph, spec: TheoremSpec) -> CheckResult:
    """Classify one graph against one sufficient condition: _classify on
    the stack of one, and _result.

    Order: hypotheses, then the bound, then the exceptional-graph test,
    then is_fext_definitional, which decides at every order.  A
    COUNTEREXAMPLE status means the graph satisfies hypotheses and bound,
    is not fractionally k-extendable, and is not the exceptional graph;
    none should ever appear.
    """
    A = adjacency_matrices([g])
    return _result(stack_graph6(A)[0], A, spec, next(_classify(A, spec)))


# ---------------------------------------------------------------------------
# corpus sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepReport:
    theorem: str
    k: int
    scanned: int
    hypothesis_met: int
    bound_met: int
    confirmed: int
    equality_cases: tuple[CheckResult, ...]
    counterexamples: tuple[CheckResult, ...]
    parse_errors: tuple[tuple[int, str], ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _corpus_graphs(corpus: Iterable, errors: list[tuple[int, str]]) -> Iterator[Graph]:
    """The corpus's graphs; malformed lines go to errors with their line number."""
    for lineno, item in enumerate(corpus, 1):
        if isinstance(item, Graph):
            yield item
            continue
        line = item.decode("ascii", "replace") if isinstance(item, (bytes, bytearray)) else str(item)
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            g = parse_graph6(line)
        except Graph6Error as exc:
            errors.append((lineno, str(exc)))
            continue
        yield g


def _order_chunks(graphs: Iterable[Graph]) -> Iterator[list[tuple[int, Graph]]]:
    """(input position, graph) pairs in chunks of one order, each yielded
    as soon as it is full."""
    pending: dict[int, list[tuple[int, Graph]]] = {}
    for pos, g in enumerate(graphs):
        chunk = pending.setdefault(g.n, [])
        chunk.append((pos, g))
        if len(chunk) == chunk_size(g.n):
            yield pending.pop(g.n)
    yield from pending.values()


def sweep(corpus: Iterable | np.ndarray, spec: TheoremSpec) -> SweepReport:
    """Classify every graph of a corpus and aggregate.

    The corpus is an (m, n, n) 0/1 adjacency stack, or it yields Graph
    objects or graph6 text/byte lines (blank lines and # comments
    skipped).  Malformed lines are recorded with their line number and the
    sweep continues.  Graphs are classified in chunks of one order, and
    only tallies and the results past the bound are kept: equality cases
    and counterexamples get a CheckResult, and come back in input order.
    """
    errors: list[tuple[int, str]] = []
    counts: Counter[str] = Counter()
    kept = []
    if isinstance(corpus, np.ndarray):
        size = chunk_size(corpus.shape[1])
        chunks = ((range(at, at + size), corpus[at:at + size])
                  for at in range(0, len(corpus), size))
    else:
        chunks = (([pos for pos, _ in chunk], adjacency_matrices([g for _, g in chunk]))
                  for chunk in _order_chunks(_corpus_graphs(corpus, errors)))
    for positions, A in chunks:
        outcomes = list(_classify(A, spec))
        counts.update(outcome[0] for outcome in outcomes)
        keep = [i for i, (status, *_) in enumerate(outcomes)
                if status in (EQUALITY_CASE, COUNTEREXAMPLE)]
        if keep:   # most chunks keep nothing, and then encode nothing
            kept += [(positions[i], _result(line, A[i:i + 1], spec, outcomes[i]))
                     for i, line in zip(keep, stack_graph6(A[keep]))]
    kept.sort(key=lambda item: item[0])
    scanned = counts.total()
    hyp = scanned - counts[HYPOTHESES_NOT_MET]
    return SweepReport(theorem=spec.id, k=spec.k, scanned=scanned,
                       hypothesis_met=hyp, bound_met=hyp - counts[BOUND_NOT_MET],
                       confirmed=counts[CONFIRMED],
                       equality_cases=tuple(r for _, r in kept if r.status == EQUALITY_CASE),
                       counterexamples=tuple(r for _, r in kept if r.status == COUNTEREXAMPLE),
                       parse_errors=tuple(errors))


# ---------------------------------------------------------------------------
# the edge comparison at every order
# ---------------------------------------------------------------------------

def _newton(f) -> np.ndarray:
    """The coefficients C[i, j, l] of f(a, d, c) in the basis
    C(a, i) C(d, j) C(c, l), i, j, l <= 2: f's forward differences at the
    origin, read off its 27 values on {0, 1, 2}^3, and exact for an integer
    polynomial of degree <= 2 in each variable.  Each C(x, i) is >= 0 at an
    integer x >= 0, so when every coefficient is >= 0 and C[0, 0, 0] > 0, f > 0
    at every point of N^3."""
    C = np.array([f(*x) for x in product(range(3), repeat=3)]).reshape(3, 3, 3)
    for axis in range(3):
        C = np.stack([np.diff(C, m, axis).take(0, axis) for m in range(3)], axis)
    return C


def _edge_margins(tid: str, r: int, a: int, d: int, c: int) -> dict[str, int]:
    """The edge threshold's margins at k = 1 + a, delta = 2k + 1 + d and
    n = min_order(delta) + 2c + r: over the family at both ends of the
    admissible s, and for edge_1 over both Erdos-Gallai terms."""
    spec = theorem_spec(tid, 1 + a)
    k, delta = spec.k, 2 * spec.k + 1 + d
    n, s_rhs = spec.min_order(delta) + 2 * c + r, spec.clique(delta)
    e = [extremal_edge_count(ExtremalParams(n, k, s))
         for s in (s_rhs, s_rhs + 1, (n + 2 * k - 1) // 2)]
    margins = {"s_rhs+1": e[0] - e[1], "s_max": e[0] - e[2]}
    if not spec.uses_delta:   # delta >= 2k+1 gives the delta theorems their k-matching
        margins["erdos_gallai:K_2k-1"] = e[0] - math.comb(2 * k - 1, 2)
        margins["erdos_gallai:K_k-1vI"] = e[0] - math.comb(k - 1, 2) - (k - 1) * (n - k + 1)
    return margins


def edge_certificates() -> tuple[tuple[str, int, str, np.ndarray, bool], ...]:
    """(theorem, r, margin, coefficients, proven) of the 12 margins that
    prove edge_1's and edge_2's edge algebra at every order, each margin's
    _newton coefficients in k = 1 + a, delta = 2k + 1 + d and
    n = min_order(delta) + 2c + r, r in {0, 1}, and whether they prove it > 0.

    Step (iii): e of the family at s_rhs = clique(delta) beats e at every
    s_rhs < s <= s_max = (n + 2k - 1) // 2, and e has second difference 3
    in s, so checking both ends suffices.  Least orders, cliques and ends
    are affine in (a, d, c) for each r and e is quadratic in (n, k, s), so
    each margin has degree <= 2 in each variable.  Premise (o) of edge_1:
    its threshold beats both terms of max{C(2k-1, 2), C(k-1, 2) +
    (k-1)(n-k+1)}, the most edges with no k-matching (Erdos and Gallai,
    "On maximal paths and circuits of graphs", 1959).
    """
    rows = []
    for tid, r in product(("edge_1", "edge_2"), (0, 1)):
        for name in _edge_margins(tid, r, 0, 0, 0):
            C = _newton(lambda *x: _edge_margins(tid, r, *x)[name])
            rows.append((tid, r, name, C, bool(C.min() >= 0 and C[0, 0, 0] > 0)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# spectral comparison grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridRow:
    lemma: str
    k: int
    delta: int | None
    n: int
    s: int
    lhs: float
    rhs: float
    lhs_err: float     # the width of lhs's certified bracket, which holds lhs and the left
                       # member's spectral radius rho: at least |rho - lhs|, inf if uncertified
    rhs_err: float
    equality_expected: bool


@dataclass(frozen=True)
class GridViolation:
    kind: str          # "inequality" or "crosscheck"
    row: GridRow


@dataclass(frozen=True)
class GridReport:
    lemma: str
    points: int
    violations: tuple[GridViolation, ...]
    equality_points: int
    max_crosscheck_error: float
    min_strict_margin: float
    columns: tuple = field(compare=False, repr=False)   # rows' groups and lanes: _grid_rows

    @property
    def rows(self) -> tuple[GridRow, ...]:   # every row, built when read
        return _grid_rows(self.lemma, self.columns, slice(None))

    @property
    def ok(self) -> bool:
        return not self.violations


def _grid_groups(spec: TheoremSpec, delta: int | None, orders: range):
    """Yield (k, delta, n, members, first) of one (k, delta) at each order n
    of orders; one group per right-hand-side value.

    members runs from s_rhs = spec.clique(delta), the served theorem's family
    clique size, to the largest valid s, and members[first:] are the left-hand
    values: they start at s_rhs for q1q2, whose equality row sits there
    (first = 0), and just above it for the two delta lemmas and the probes (first = 1).
    """
    first, s_rhs = (1 if spec.uses_delta else 0), spec.clique(delta)
    for n in orders:
        s_hi = (n + 2 * spec.k - 1) // 2
        if s_hi >= s_rhs + first:
            yield spec.k, delta, n, range(s_rhs, s_hi + 1), first


def _grid_rows(lemma: str, columns: tuple, index) -> tuple[GridRow, ...]:
    """The GridRows at index (array or slice) of (groups, group, left, right, roots, widths)."""
    groups, group, left, right, roots, widths = columns
    lt, rt = left[index], right[index]
    return tuple(GridRow(lemma, k, delta, n, members[0] + i - j, *sides, i == j)
                 for (k, delta, n, members, _), i, j, *sides in zip(
                     [groups[g] for g in group[index].tolist()], lt.tolist(), rt.tolist(),
                     *(v[x].tolist() for v in (roots, widths) for x in (lt, rt))))  # lhs, rhs, errs


def _grid_report(lemma: str, quantity: str, groups: list) -> GridReport:
    """The rows comparing the family at each left-hand s against it at
    s_rhs, group by group (_grid_groups), in order, and their verdicts.

    Each side's value is the largest root r of the member's closed-form
    cubic, and its error is the width of r's certified bracket: the
    (n, k, s) members of every group and the rows' group, left and right
    lanes are built with np.repeat and np.arange, one family_coefficients
    evaluation gives the members' integer cubics, and one largest_real_roots
    pass their roots and widths.
    The closed form is the characteristic polynomial of the member's 3x3
    quotient over an equitable partition (an identity tests/test_spectral.py
    proves for all parameters), whose largest root is the member's q or mu,
    so the width bounds |rho(M) - r| for the member's matrix M; inf for a
    bracket that neither certificate proves.  A point whose error exceeds
    CROSSCHECK_TOL, or is inf, is a "crosscheck" violation.  A strict row
    holds when the members' brackets, root -/+ width, are disjoint with the
    left-hand one on the strict side; any other, an uncertified one
    included, is an "inequality" violation.  An equality row (left lane =
    right lane) compares a root with itself and cannot be violated.  A
    GridRow is built only for a violation or when rows is read.
    """
    k, n, s0, size, first = np.array(
        [(k, n, members.start, len(members), first) for k, _, n, members, first in groups],
        dtype=np.intp).reshape(-1, 5).T
    lane = np.cumsum(size) - size   # each group's first lane, its right-hand member
    s = np.arange(size.sum()) + np.repeat(s0 - lane, size)
    roots, widths = largest_real_roots(family_coefficients(
        quantity, np.stack([np.repeat(n, size), np.repeat(k, size), s], axis=1)))
    count = size - first   # rows per group
    group, right = np.repeat(np.arange(len(groups)), count), np.repeat(lane, count)
    left = np.arange(count.sum()) + np.repeat(lane + first - (np.cumsum(count) - count), count)
    columns = groups, group, left, right, roots, widths
    lhs, rhs, err = roots[left], roots[right], np.maximum(widths[left], widths[right])
    strict = 1 if quantity == "mu" else -1   # mu of the family grows with s where its q shrinks
    # rounding is monotone, so ends strictly apart as floats are apart exactly
    proven = (lhs - widths[left] > rhs + widths[right] if strict == 1
              else lhs + widths[left] < rhs - widths[right])
    equality, cross = left == right, err > CROSSCHECK_TOL
    bad = ~equality & ~proven   # an equality row compares a lane with itself
    flagged = np.flatnonzero(cross | bad)
    rows = zip(flagged.tolist(), _grid_rows(lemma, columns, flagged))
    violations = tuple(GridViolation(kind, row) for i, row in rows for kind, hit in (
        ("crosscheck", cross[i]), ("inequality", bad[i])) if hit)
    margins = (lhs - rhs if strict == 1 else rhs - lhs)[~equality]
    return GridReport(lemma=lemma, points=len(left), violations=violations,
                      equality_points=int(equality.sum()),
                      max_crosscheck_error=float(err.max(initial=0.0)),
                      min_strict_margin=float(margins.min(initial=np.inf)), columns=columns)


def lemma_grid(lemma: str, *, k_max: int, n_max: int, delta_max: int | None = None) -> GridReport:
    """Verify one comparison inequality over a parameter grid (_grid_report).

    q1q2: q(family at s) below q(family at 2k) for n >= max(2s-2k+1, 2k+6),
    equality exactly at s = 2k.  q1q3: strict for s >= delta+1 once
    2n >= 13*delta.  mu_compare: the distance radius ordering flips, strict
    for s >= delta+1 once n >= 12*delta-2k+1.  Each (k, delta) runs from the
    served theorem's min_order to n_max.
    """
    if lemma not in LEMMA_IDS:
        raise ValueError(f"unknown lemma id {lemma!r}")
    if k_max < 1:
        raise ValueError("k must be at least 1")
    if (delta_max is None) != (lemma == "q1q2"):
        raise ValueError(f"{lemma} grid {'needs a' if delta_max is None else 'takes no'} delta bound")
    groups = []
    for k in range(1, k_max + 1):
        spec = theorem_spec(_LEMMA_THEOREM[lemma], k)
        for delta in range(2 * k + 1, delta_max + 1) if spec.uses_delta else (None,):
            groups += _grid_groups(spec, delta, range(spec.min_order(delta), n_max + 1))
    return _grid_report(lemma, spec.quantity, groups)


# ---------------------------------------------------------------------------
# sharpness of the bounds at the exceptional graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharpnessReport:
    params: ExtremalParams
    theorem: str
    not_extendable: bool | None   # None: check_theorem ran no oracle
    witness_is_clique: bool
    bound_equality: bool
    value: float | int | None
    threshold: float | int | None
    connected: bool
    min_degree_is_s: bool
    mu_floor: int | None = None
    mu_floor_ok: bool | None = None

    @property
    def ok(self) -> bool:
        return (bool(self.not_extendable) and self.witness_is_clique and self.bound_equality
                and self.connected and self.min_degree_is_s and self.mu_floor_ok is not False)


def sharpness(p: ExtremalParams, spec: TheoremSpec) -> SharpnessReport:
    """Certify that the family graph sits exactly on the bound, unextendable.

    check_theorem's CheckResult gives the verdict, value, threshold,
    connectivity and minimum degree; the join clique must pass verify_witness
    as a violating set.  bound_equality holds only for an equality case, and
    exactly: the edge count equals the threshold, or the Q (q) or D (mu)
    quotient over positional_blocks is equitable with the threshold member's
    family_cubic as its charpoly3.  Outside the hypotheses there is no
    threshold and no oracle verdict (not_extendable is None): not ok.  For
    mu, the floor n - s + 2k + 3 holds when the member's dyadic bracket
    starts at or above it, or else when its monic cubic is <= 0 there."""
    g = extremal_graph(p)
    r = check_theorem(g, spec)
    clique = Verdict(False, BAD_SET, witness_set=(1 << p.s) - 1)
    equal = r.status == EQUALITY_CASE
    if equal and spec.quantity == "e":
        equal = r.value == r.threshold
    elif equal:
        q = quotient(spec.matrices(adjacency_matrices([g]))[0], positional_blocks(p))
        m = spec.family(p.n, r.min_degree)   # the threshold's member
        equal = q.equitable and charpoly3(q) == family_cubic(spec.quantity, m.n, m.k, m.s)
    floor = floor_ok = None
    if spec.quantity == "mu":
        floor = p.n - p.s + 2 * spec.k + 3
        c = family_cubic("mu", p.n, p.k, p.s)
        floor_ok = (_family_threshold("mu", p)[1] >= floor << DYADIC_BITS
                    or ((floor + c.c2) * floor + c.c1) * floor + c.c0 <= 0)
    return SharpnessReport(params=p, theorem=spec.id,
                           not_extendable=None if r.oracle is None else not r.oracle.answer,
                           witness_is_clique=verify_witness(g, spec.k, clique),
                           bound_equality=equal, value=r.value, threshold=r.threshold,
                           connected=r.connected, min_degree_is_s=r.min_degree == p.s,
                           mu_floor=floor, mu_floor_ok=floor_ok)


# ---------------------------------------------------------------------------
# informational probes outside the proven regions
# ---------------------------------------------------------------------------

def probe_gap_region(kind: str, k: int, delta: int) -> GridReport:
    """The q1q3 (kind "q") or mu_compare (kind "mu") grid of one (k, delta)
    where the hypotheses do not reach: the orders from 6*delta up to the
    served theorem's least order, 2n < 13*delta for q (the two q-side
    statements differ here) and n < 12*delta-2k+1 for mu.

    Its lemma is gap_q or gap_mu.  Findings are reported, never asserted.
    """
    if kind not in ("q", "mu"):
        raise ValueError("kind must be 'q' or 'mu'")
    if delta < 2 * k + 1:
        raise ValueError("delta below 2k+1 is outside every variant")
    spec = theorem_spec("q_2" if kind == "q" else "mu", k)
    groups = list(_grid_groups(spec, delta, range(6 * delta, spec.min_order(delta))))
    return _grid_report(f"gap_{kind}", kind, groups)


# ---------------------------------------------------------------------------
# randomized spanning-subgraph sampling
# ---------------------------------------------------------------------------

MAX_DELETIONS = 8   # each sample deletes 1..MAX_DELETIONS edges of the family graph

@dataclass(frozen=True)
class SampleReport:
    params: ExtremalParams
    theorem: str
    samples: int
    rejected: int
    statuses: tuple[tuple[str, int], ...]
    counterexamples: tuple[CheckResult, ...]
    equality_cases: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def sample_spanning_subgraphs(p: ExtremalParams, spec: TheoremSpec, *,
                              samples: int = 10_000, seed: int = 0) -> SampleReport:
    """Delete random edge subsets from a family graph samples >= 0 times (a
    ValueError otherwise) and re-check the bound.

    The family graphs sit exactly on their thresholds, so every connected
    proper spanning subgraph should fall on the wrong side of the bound
    (monotonicity) and never class as a counterexample.  Draws come in
    chunks of chunk_size(n) (58 at order 35), at most the count still wanted,
    and _classify classifies a chunk as one uint8 stack, the family's with
    each draw's cut pairs zeroed, whose connectivity rejects the disconnecting
    deletions.  The cuts are one stream from random.Random(seed), and a
    rejected cut's redraw is the next cut of it, so the draws, rejections and
    statuses are those of redrawing each rejected cut at once, whatever the
    chunk size.  One stack_graph6 call gives a chunk's connected draws their
    graph6 lines; each status is tallied, and only the kept ones,
    counterexamples and equality cases, get a CheckResult.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, not {samples}")
    rng = random.Random(seed)
    src = extremal_graph(p)
    n, edges = src.n, src.edges()
    family = adjacency_matrices([src])
    max_d = min(MAX_DELETIONS, len(edges) - 1)
    tallies: Counter[str] = Counter()
    kept: list[CheckResult] = []   # the counterexamples and equality cases
    rejected = 0
    while tallies.total() < samples:
        cuts = [rng.sample(edges, rng.randint(1, max_d))
                for _ in range(min(chunk_size(n), samples - tallies.total()))]
        A = family.repeat(len(cuts), axis=0)
        draw, u, v = zip(*((b, u, v) for b, cut in enumerate(cuts) for u, v in cut))
        A[draw, u, v] = A[draw, v, u] = 0
        outcomes = list(_classify(A, spec))
        connected = [outcome[3] for outcome in outcomes]
        rejected += connected.count(False)
        for b, line in zip(compress(range(len(A)), connected), stack_graph6(A[connected])):
            tallies[outcomes[b][0]] += 1
            if outcomes[b][0] in (COUNTEREXAMPLE, EQUALITY_CASE):
                kept.append(_result(line, A[b:b + 1], spec, outcomes[b]))
    return SampleReport(params=p, theorem=spec.id, samples=samples, rejected=rejected,
                        statuses=tuple(sorted(tallies.items())),
                        counterexamples=tuple(r for r in kept if r.status == COUNTEREXAMPLE),
                        equality_cases=tuple(r for r in kept if r.status == EQUALITY_CASE))
