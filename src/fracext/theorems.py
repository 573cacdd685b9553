"""Executable forms of the extendability bounds and their supporting grids.

Five sufficient conditions are encoded: two edge-count bounds, two signless
Laplacian bounds, and one distance spectral bound.  Each TheoremSpec carries
its hypotheses, its threshold, and its exceptional graph; check_theorem
classifies a single graph, sweep aggregates over a corpus, and the grid,
sharpness, and sampling routines certify the inequalities the proofs lean
on in regions where exhaustive search is impossible.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graphs import (ExtremalParams, Graph, extremal_edge_count, extremal_graph,
                     graph_stats, is_connected, matches_extremal)
from .graph6 import Graph6Error, emit_graph6, parse_graph6
from .matching import (NO_K_MATCHING, BAD_SET, Verdict, is_fext_definitional,
                       verify_witness)
from .spectral import (DEFAULT_TOL, closed_form, distance_matrix_array,
                       family_distance_matrix, family_q_matrix,
                       largest_eigenvalue, largest_real_root, signless_laplacian)

THEOREM_IDS = ("edge_1", "edge_2", "q_1", "q_2", "mu")
LEMMA_IDS = ("q1q2", "q1q3", "mu_compare")

# per-graph classification
HYPOTHESES_NOT_MET = "hypotheses_not_met"
BOUND_NOT_MET = "bound_not_met"
CONFIRMED = "confirmed_extendable"
EQUALITY_CASE = "equality_case"
COUNTEREXAMPLE = "COUNTEREXAMPLE"


def _strict_margin(threshold) -> float:
    return 10.0 * DEFAULT_TOL * max(1.0, abs(float(threshold)))


@dataclass(frozen=True)
class TheoremSpec:
    """One sufficient condition: hypotheses, compared quantity, threshold.

    quantity is "e", "q", or "mu"; bound_side is ">=" for the edge and
    signless Laplacian conditions and "<=" for the distance condition.
    uses_delta picks the exceptional family's clique size: the graph's own
    minimum degree when set, 2k otherwise.
    """
    id: str
    k: int
    quantity: str
    bound_side: str
    uses_delta: bool

    def hypotheses(self, n: int, delta: int, connected: bool) -> str | None:
        """None when every hypothesis holds, else the first failure."""
        k = self.k
        if not connected:
            return "disconnected"
        if self.uses_delta and delta < 2 * k + 1:
            return f"minimum degree {delta} < 2k+1 = {2 * k + 1}"
        if self.id == "edge_1" and n < 2 * k + 9:
            return f"order {n} < 2k+9 = {2 * k + 9}"
        if self.id == "edge_2" and n < 6 * delta:
            return f"order {n} < 6*delta = {6 * delta}"
        if self.id == "q_1" and n < 2 * k + 6:
            return f"order {n} < 2k+6 = {2 * k + 6}"
        if self.id == "q_2" and 2 * n < 13 * delta:
            return f"order {n} < 6.5*delta = {Fraction(13 * delta, 2)}"
        if self.id == "mu" and n < 12 * delta - 2 * k + 1:
            return f"order {n} < 12*delta-2k+1 = {12 * delta - 2 * k + 1}"
        return None

    def family(self, n: int, delta: int) -> ExtremalParams:
        s = delta if self.uses_delta else 2 * self.k
        return ExtremalParams(n=n, k=self.k, s=s)

    def threshold(self, n: int, delta: int):
        """Exact edge count, or the closed-form root for q and mu."""
        k = self.k
        if self.quantity == "e":
            return extremal_edge_count(self.family(n, delta))
        if self.id == "q_1":
            return largest_real_root(closed_form("f2", n=n, k=k))
        if self.id == "q_2":
            return largest_real_root(closed_form("f3_q", n=n, k=k, delta=delta))
        return largest_real_root(closed_form("phi_B3_case1", n=n, k=k, delta=delta))


def theorem_spec(theorem_id: str, k: int) -> TheoremSpec:
    if k < 1:
        raise ValueError("k must be at least 1")
    table = {
        "edge_1": ("e", ">=", False),
        "edge_2": ("e", ">=", True),
        "q_1": ("q", ">=", False),
        "q_2": ("q", ">=", True),
        "mu": ("mu", "<=", True),
    }
    if theorem_id not in table:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    quantity, side, uses_delta = table[theorem_id]
    return TheoremSpec(id=theorem_id, k=k, quantity=quantity,
                       bound_side=side, uses_delta=uses_delta)


@dataclass(frozen=True)
class CheckResult:
    status: str
    theorem: str
    k: int
    n: int
    e: int
    min_degree: int
    connected: bool
    graph6: str | None = None
    value: float | int | None = None
    threshold: float | int | None = None
    detail: str = ""
    oracle: Verdict | None = None


def check_theorem(g: Graph, spec: TheoremSpec) -> CheckResult:
    """Classify one graph against one sufficient condition.

    Order: hypotheses, then the bound, then the exceptional-graph test,
    then is_fext_definitional, which decides at every order.  A
    COUNTEREXAMPLE status means the graph satisfies hypotheses and bound,
    is not fractionally k-extendable, and is not the exceptional graph;
    none should ever appear.
    """
    st = graph_stats(g)
    g6 = emit_graph6(g) if g.n <= 62 else None
    base = dict(theorem=spec.id, k=spec.k, n=st.n, e=st.e,
                min_degree=st.min_degree, connected=st.connected, graph6=g6)
    failed = spec.hypotheses(st.n, st.min_degree, st.connected)
    if failed is not None:
        return CheckResult(status=HYPOTHESES_NOT_MET, detail=failed, **base)

    thr = spec.threshold(st.n, st.min_degree)
    if spec.quantity == "e":
        value: float | int = st.e
        met = st.e >= thr
    else:
        matrix = signless_laplacian(g) if spec.quantity == "q" else distance_matrix_array(g)
        value = largest_eigenvalue(matrix)
        slack = _strict_margin(thr)
        met = value >= thr - slack if spec.bound_side == ">=" else value <= thr + slack
    if not met:
        return CheckResult(status=BOUND_NOT_MET, value=value, threshold=thr, **base)

    p = spec.family(st.n, st.min_degree)
    if matches_extremal(g, p):
        verdict = is_fext_definitional(g, spec.k)
        if verdict.answer:
            raise RuntimeError("exceptional graph reported extendable; recognizer and oracle disagree")
        return CheckResult(status=EQUALITY_CASE, value=value, threshold=thr,
                           detail="isomorphic to the exceptional graph",
                           oracle=verdict, **base)

    verdict = is_fext_definitional(g, spec.k)
    if verdict.answer:
        return CheckResult(status=CONFIRMED, value=value, threshold=thr,
                           oracle=verdict, **base)
    if verdict.reason == NO_K_MATCHING:
        # nothing to extend, so the conclusion holds vacuously
        return CheckResult(status=CONFIRMED, value=value, threshold=thr,
                           detail="no k-matching to extend", oracle=verdict, **base)
    return CheckResult(status=COUNTEREXAMPLE, value=value, threshold=thr,
                       oracle=verdict, **base)


# ---------------------------------------------------------------------------
# corpus sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepReport:
    theorem: str
    k: int
    corpus: str
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


def _sweep_item(args):
    g, spec = args
    return check_theorem(g, spec)


def sweep(corpus: Iterable, spec: TheoremSpec, *, corpus_name: str = "",
          jobs: int = 1) -> SweepReport:
    """Run check_theorem over a corpus and aggregate.

    The corpus may yield Graph objects directly or graph6 text/byte lines
    (blank lines and # comments skipped).  Malformed lines are recorded
    with their line number and the sweep continues.  Results are aggregated
    in input order regardless of the parallelism degree.
    """
    graphs: list[Graph] = []
    errors: list[tuple[int, str]] = []
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

    if jobs > 1 and len(graphs) > 1:
        import multiprocessing as mp
        with mp.Pool(jobs) as pool:
            chunk = max(1, len(graphs) // (jobs * 8))
            results = list(pool.imap(_sweep_item,
                                     ((g, spec) for g in graphs), chunk))
    else:
        results = [check_theorem(g, spec) for g in graphs]

    hyp = sum(1 for r in results if r.status != HYPOTHESES_NOT_MET)
    bound = sum(1 for r in results
                if r.status in (CONFIRMED, EQUALITY_CASE, COUNTEREXAMPLE))
    conf = sum(1 for r in results if r.status == CONFIRMED)
    eq = tuple(r for r in results if r.status == EQUALITY_CASE)
    cex = tuple(r for r in results if r.status == COUNTEREXAMPLE)
    return SweepReport(theorem=spec.id, k=spec.k, corpus=corpus_name,
                       scanned=len(graphs), hypothesis_met=hyp, bound_met=bound,
                       confirmed=conf, equality_cases=eq, counterexamples=cex,
                       parse_errors=tuple(errors))


# ---------------------------------------------------------------------------
# exact edge-count identities behind the first bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[tuple[str, Fraction, Fraction], ...]

    @property
    def ok(self) -> bool:
        return all(lhs == rhs for _, lhs, rhs in self.checks)

    def mismatches(self):
        return tuple(c for c in self.checks if c[1] != c[2])


def _edge_gap_vs_dense(n, k, s) -> Fraction:
    # e(dense family at s=2k) minus e(family at s), as a polynomial in n
    return (Fraction(s - 2 * k) * n + 4 * k * s - 2 * k * k + 5 * k
            - Fraction(3 * s * s, 2) - Fraction(5 * s, 2))


def edge_count_identities(k: int, s: int, n: int, delta: int) -> IdentityReport:
    """Exact checks that the edge-count comparisons reduce as claimed.

    Edge counts come from constructed graphs, never from the closed forms
    being tested; the case polynomials and their boundary values 2 and 1
    are checked for the given k, and the linear s = 2k+1 reduction for the
    given n.
    """
    F = Fraction
    p1 = ExtremalParams(n=n, k=k, s=s)
    p2 = ExtremalParams(n=n, k=k, s=2 * k)
    p3 = ExtremalParams(n=n, k=k, s=delta)
    e1 = extremal_graph(p1).edge_count()
    e2 = extremal_graph(p2).edge_count()
    e3 = extremal_graph(p3).edge_count()

    def h_boundary(x) -> Fraction:
        return F(x * x, 2) + (-2 * k - F(3, 2)) * x + 2 * k * k + 3 * k

    def h_interior(x) -> Fraction:
        return F(x * x, 2) + (-2 * k - F(1, 2)) * x + 2 * k * k + k

    checks = [
        ("closed_e_1", F(e1), F(extremal_edge_count(p1))),
        ("closed_e_2", F(e2), F(extremal_edge_count(p2))),
        ("closed_e_3", F(e3), F(extremal_edge_count(p3))),
        ("dense_gap", F(e2 - e1), _edge_gap_vs_dense(n, k, s)),
        ("delta_gap", F(e3 - e1),
         F(s - delta) * (2 * n + 8 * k - 3 * delta - 3 * s - 5) / 2),
        ("gap_at_min_order", _edge_gap_vs_dense(2 * s - 2 * k + 1, k, s), h_boundary(s)),
        ("gap_above_min_order", _edge_gap_vs_dense(2 * s - 2 * k + 2, k, s), h_interior(s)),
        ("boundary_case_value", h_boundary(2 * k + 4), F(2)),
        ("interior_case_value", h_interior(2 * k + 2), F(1)),
        ("linear_case_value", _edge_gap_vs_dense(n, k, 2 * k + 1), F(n - 2 * k - 4)),
    ]
    return IdentityReport(checks=tuple(checks))


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
    lhs_err: float     # |matrix eigenvalue - closed-form root| on the left side
    rhs_err: float
    equality_expected: bool


@dataclass(frozen=True)
class GridViolation:
    kind: str          # "inequality", "equality", or "crosscheck"
    row: GridRow


@dataclass(frozen=True)
class GridReport:
    lemma: str
    points: int
    violations: tuple[GridViolation, ...]
    equality_points: int
    max_crosscheck_error: float
    min_strict_margin: float
    rows: tuple[GridRow, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _family_q_value(n: int, k: int, s: int) -> tuple[float, float]:
    """(eigenvalue, crosscheck error) for q of the family at (n, k, s)."""
    eig = largest_eigenvalue(family_q_matrix(n, k, s))
    if n >= 2 * s - 2 * k + 2:
        root = largest_real_root(closed_form("f_pi_1", n=n, k=k, s=s))
    else:
        root = largest_real_root(closed_form("f_pi_prime_1", k=k, s=s))
    return eig, abs(eig - root)


def _family_mu_value(n: int, k: int, s: int) -> tuple[float, float]:
    eig = largest_eigenvalue(family_distance_matrix(n, k, s))
    root = largest_real_root(closed_form("phi_B1", n=n, k=k, s=s))
    return eig, abs(eig - root)


def _grid_groups(lemma: str, k_max: int, n_max: int, delta_max: int | None):
    """Yield (k, delta, n, s_range); one group per right-hand-side value."""
    if lemma == "q1q2":
        for k in range(1, k_max + 1):
            for n in range(2 * k + 6, n_max + 1):
                s_hi = (n + 2 * k - 1) // 2
                if s_hi >= 2 * k:
                    yield k, None, n, range(2 * k, s_hi + 1)
        return
    if delta_max is None:
        raise ValueError(f"{lemma} grid needs a delta bound")
    for k in range(1, k_max + 1):
        for delta in range(2 * k + 1, delta_max + 1):
            if lemma == "q1q3":
                n_lo = -(-13 * delta // 2)      # smallest n with 2n >= 13*delta
            else:
                n_lo = 12 * delta - 2 * k + 1
            for n in range(n_lo, n_max + 1):
                s_hi = (n + 2 * k - 1) // 2
                if s_hi >= delta + 1:
                    yield k, delta, n, range(delta + 1, s_hi + 1)


def _grid_group_rows(args) -> list[GridRow]:
    lemma, k, delta, n, s_range = args
    rows = []
    # the right-hand cubics f2, f3_q and phi_B3_case1 equal f_pi_1 at
    # s = 2k, f_pi_1 at s = delta and phi_B1 at s = delta, which value()
    # already cross-checks against the matrix eigenvalue
    value = _family_mu_value if lemma == "mu_compare" else _family_q_value
    rhs, rhs_err = value(n, k, 2 * k if lemma == "q1q2" else delta)
    for s in s_range:
        lhs, lhs_err = value(n, k, s)
        equality = lemma == "q1q2" and s == 2 * k
        rows.append(GridRow(lemma=lemma, k=k, delta=delta, n=n, s=s,
                            lhs=lhs, rhs=rhs, lhs_err=lhs_err, rhs_err=rhs_err,
                            equality_expected=equality))
    return rows


def lemma_grid(lemma: str, *, k_max: int, n_max: int, delta_max: int | None = None,
               jobs: int = 1, crosscheck_tol: float = 1e-8) -> GridReport:
    """Verify one comparison inequality over a parameter grid.

    q1q2: q(family at s) below q(family at 2k) for n >= max(2s-2k+1, 2k+6),
    equality exactly at s = 2k.  q1q3: strict for s >= delta+1 once
    2n >= 13*delta.  mu_compare: the distance radius ordering flips, strict
    for s >= delta+1 once n >= 12*delta-2k+1.  Every point cross-checks the
    dense eigenvalue against the closed-form root.
    """
    if lemma not in LEMMA_IDS:
        raise ValueError(f"unknown lemma id {lemma!r}")
    groups = [(lemma, k, d, n, s_range)
              for k, d, n, s_range in _grid_groups(lemma, k_max, n_max, delta_max)]
    if jobs > 1 and len(groups) > 1:
        import multiprocessing as mp
        with mp.Pool(jobs) as pool:
            chunk = max(1, len(groups) // (jobs * 8))
            row_lists = list(pool.imap(_grid_group_rows, groups, chunk))
    else:
        row_lists = [_grid_group_rows(grp) for grp in groups]

    rows = tuple(row for rl in row_lists for row in rl)
    violations = []
    min_margin = float("inf")
    max_err = 0.0
    equality_points = 0
    mu_side = lemma == "mu_compare"
    for row in rows:
        max_err = max(max_err, row.lhs_err, row.rhs_err)
        if row.lhs_err > crosscheck_tol or row.rhs_err > crosscheck_tol:
            violations.append(GridViolation(kind="crosscheck", row=row))
        slack = _strict_margin(row.rhs)
        gap = row.lhs - row.rhs if mu_side else row.rhs - row.lhs
        if row.equality_expected:
            equality_points += 1
            if abs(row.lhs - row.rhs) > slack:
                violations.append(GridViolation(kind="equality", row=row))
        else:
            min_margin = min(min_margin, gap)
            if gap <= slack:
                violations.append(GridViolation(kind="inequality", row=row))
    return GridReport(lemma=lemma, points=len(rows), violations=tuple(violations),
                      equality_points=equality_points, max_crosscheck_error=max_err,
                      min_strict_margin=min_margin, rows=rows)


# ---------------------------------------------------------------------------
# sharpness of the bounds at the exceptional graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharpnessReport:
    params: ExtremalParams
    theorem: str
    not_extendable: bool
    witness_is_clique: bool
    bound_equality: bool
    value: float | int
    threshold: float | int
    connected: bool
    min_degree_is_s: bool
    mu_floor: float | None = None
    mu_floor_ok: bool | None = None

    @property
    def ok(self) -> bool:
        base = (self.not_extendable and self.witness_is_clique
                and self.bound_equality and self.connected and self.min_degree_is_s)
        return base and (self.mu_floor_ok is not False)


def clique_witness_holds(g: Graph, k: int, s: int) -> tuple[bool, bool]:
    """(not extendable, the join clique is a violating set).

    The definitional oracle decides extendability; the clique certificate
    is checked directly against the set condition.
    """
    clique = Verdict(False, BAD_SET, witness_set=(1 << s) - 1)
    return not is_fext_definitional(g, k).answer, verify_witness(g, k, clique)


def sharpness(p: ExtremalParams, spec: TheoremSpec) -> SharpnessReport:
    """Certify that the family graph sits exactly on the bound, unextendable.

    Checks: is_fext_definitional rejects it and the join clique is a
    violating set; its own bound quantity equals the threshold; it is
    connected with minimum degree s.  For the distance bound, also checks the
    mean-distance floor n - delta + 2k + 3 on its radius.
    """
    g = extremal_graph(p)
    st = graph_stats(g)
    not_ext, clique_wit = clique_witness_holds(g, spec.k, p.s)

    thr = spec.threshold(st.n, st.min_degree)
    if spec.quantity == "e":
        value: float | int = st.e
        equal = st.e == thr
    else:
        matrix = signless_laplacian(g) if spec.quantity == "q" else distance_matrix_array(g)
        value = largest_eigenvalue(matrix)
        equal = abs(value - thr) <= _strict_margin(thr)

    floor = floor_ok = None
    if spec.id == "mu":
        floor = float(st.n - p.s + 2 * spec.k + 3)
        floor_ok = value >= floor - _strict_margin(floor)
    return SharpnessReport(params=p, theorem=spec.id, not_extendable=not_ext,
                           witness_is_clique=clique_wit,
                           bound_equality=equal, value=value, threshold=thr,
                           connected=st.connected,
                           min_degree_is_s=st.min_degree == p.s,
                           mu_floor=floor, mu_floor_ok=floor_ok)


# ---------------------------------------------------------------------------
# informational probes outside the proven regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapProbeReport:
    """Unasserted findings in an order range the statements leave open."""
    kind: str                       # "q" or "mu"
    k: int
    delta: int
    rows: tuple[GridRow, ...]
    min_margin: float
    all_hold: bool


def probe_gap_region(kind: str, k: int, delta: int) -> GapProbeReport:
    """Probe the comparison inequality where the hypotheses do not reach.

    kind "q": orders with 6*delta <= n and 2n < 13*delta (the two q-side
    statements differ here).  kind "mu": 6*delta <= n < 12*delta-2k+1.
    Findings are reported, never asserted.
    """
    if kind not in ("q", "mu"):
        raise ValueError("kind must be 'q' or 'mu'")
    if delta < 2 * k + 1:
        raise ValueError("delta below 2k+1 is outside every variant")
    if kind == "q":
        orders = [n for n in range(6 * delta, 13 * delta // 2 + 1) if 2 * n < 13 * delta]
        value = _family_q_value
    else:
        orders = list(range(6 * delta, 12 * delta - 2 * k + 1))
        value = _family_mu_value
    rows = []
    for n in orders:
        rhs, rhs_err = value(n, k, delta)
        for s in range(delta + 1, (n + 2 * k - 1) // 2 + 1):
            lhs, lhs_err = value(n, k, s)
            rows.append(GridRow(lemma=f"gap_{kind}", k=k, delta=delta, n=n, s=s,
                                lhs=lhs, rhs=rhs, lhs_err=lhs_err, rhs_err=rhs_err,
                                equality_expected=False))
    margins = [(r.lhs - r.rhs if kind == "mu" else r.rhs - r.lhs) for r in rows]
    min_margin = min(margins) if margins else float("inf")
    return GapProbeReport(kind=kind, k=k, delta=delta, rows=tuple(rows),
                          min_margin=min_margin, all_hold=min_margin > 0.0)


# ---------------------------------------------------------------------------
# randomized spanning-subgraph sampling
# ---------------------------------------------------------------------------

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
                              samples: int = 10_000, seed: int = 0,
                              max_deletions: int = 8) -> SampleReport:
    """Delete random edge subsets from a family graph and re-check the bound.

    The family graphs sit exactly on their thresholds, so every connected
    proper spanning subgraph should fall on the wrong side of the bound
    (monotonicity) and never class as a counterexample.  Disconnecting
    deletions are rejected and resampled.  Fixed seed, reproducible.
    """
    rng = random.Random(seed)
    src = extremal_graph(p)
    edges = src.edges()
    max_d = min(max_deletions, len(edges) - 1)
    tallies: dict[str, int] = {}
    cex: list[CheckResult] = []
    eq: list[CheckResult] = []
    rejected = 0
    for _ in range(samples):
        while True:
            d = rng.randint(1, max_d)
            removed = set(rng.sample(edges, d))
            g = Graph.from_edges(src.n, [e for e in edges if e not in removed])
            if is_connected(g):
                break
            rejected += 1
        res = check_theorem(g, spec)
        tallies[res.status] = tallies.get(res.status, 0) + 1
        if res.status == COUNTEREXAMPLE:
            cex.append(res)
        elif res.status == EQUALITY_CASE:
            eq.append(res)
    return SampleReport(params=p, theorem=spec.id, samples=samples,
                        rejected=rejected,
                        statuses=tuple(sorted(tallies.items())),
                        counterexamples=tuple(cex), equality_cases=tuple(eq))
