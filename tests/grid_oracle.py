"""Reference grid verdicts: every row built and decided one at a time.

The package's _grid_report decides a grid's rows with array operations
over its lanes and builds a GridRow only for a flagged row, or when the
report's rows are read.  This reference is the row-by-row loop it
replaced: each row a GridRow, and running maximum and minimum.  A strict
row is decided from its two certified brackets, root -/+ width, in exact
Fraction arithmetic.  The package compares the rounded ends; rounding is
monotone, so it proves a row only where this does, and the two differ
only where two ends round to one float, which no grid row does.  The two
must give equal fields and rows.  The cubics and the tolerance are read
off the theorems module at call time, so a test that patches them there
patches both.
"""
import math
from fractions import Fraction

from fracext import theorems
from fracext.theorems import GridRow, GridViolation


def brackets_prove(lhs, lhs_err, rhs, rhs_err, strict) -> bool:
    """Whether the brackets lhs -/+ lhs_err and rhs -/+ rhs_err are disjoint,
    exactly, with lhs's above rhs's (strict 1) or below it (strict -1); an
    infinite width proves nothing."""
    if not (math.isfinite(lhs_err) and math.isfinite(rhs_err)):
        return False
    if strict == 1:
        return Fraction(lhs) - Fraction(lhs_err) > Fraction(rhs) + Fraction(rhs_err)
    return Fraction(lhs) + Fraction(lhs_err) < Fraction(rhs) - Fraction(rhs_err)


def grid_report_reference(lemma, quantity, groups):
    """{field: value} of the GridReport of the groups, rows included."""
    C = theorems.family_coefficients(quantity, [(n, k, s) for k, _, n, members, _ in groups
                                                for s in members])
    roots, widths = (a.tolist() for a in theorems.largest_real_roots(C))
    strict = 1 if quantity == "mu" else -1   # mu of the family grows with s where its q shrinks
    rows, violations, lane = [], [], 0
    min_margin, max_err, equality_points = float("inf"), 0.0, 0
    for k, delta, n, members, first in groups:
        rhs, rhs_err = roots[lane], widths[lane]
        for s, lhs, lhs_err in zip(members[first:], roots[lane + first:lane + len(members)],
                                   widths[lane + first:lane + len(members)]):
            row = GridRow(lemma=lemma, k=k, delta=delta, n=n, s=s, lhs=lhs, rhs=rhs,
                          lhs_err=lhs_err, rhs_err=rhs_err, equality_expected=s == members[0])
            rows.append(row)
            max_err = max(max_err, lhs_err, rhs_err)
            if lhs_err > theorems.CROSSCHECK_TOL or rhs_err > theorems.CROSSCHECK_TOL:
                violations.append(GridViolation(kind="crosscheck", row=row))
            if row.equality_expected:   # the right-hand member compared with itself
                equality_points += 1
                if lhs != rhs:
                    violations.append(GridViolation(kind="equality", row=row))
            else:
                min_margin = min(min_margin, lhs - rhs if strict == 1 else rhs - lhs)
                if not brackets_prove(lhs, lhs_err, rhs, rhs_err, strict):
                    violations.append(GridViolation(kind="inequality", row=row))
        lane += len(members)
    return dict(lemma=lemma, points=len(rows), violations=tuple(violations),
                equality_points=equality_points, max_crosscheck_error=max_err,
                min_strict_margin=min_margin, rows=tuple(rows))
