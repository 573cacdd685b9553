"""Reference grid verdicts: every row built and decided one at a time.

The package's _grid_report decides a grid's rows with array operations
over its lanes and builds a GridRow only for a flagged row, or when the
report's rows are read.  This reference is the row-by-row loop it
replaced: each row a GridRow, one scalar comparison per row (the scalar
body _compare had), and running maximum and minimum.  The two must give equal fields and rows.  The
cubics and the tolerance are read off the theorems module at call time,
so a test that patches them there patches both.
"""
from fracext import theorems
from fracext.theorems import DEFAULT_TOL, GridRow, GridViolation


def compare_reference(x, ref) -> int:
    """-1, 0 or 1 as x is below, at or above ref, within 10*DEFAULT_TOL*max(1, |ref|)."""
    margin = 10.0 * DEFAULT_TOL * max(1.0, abs(float(ref)))
    if x < ref - margin:
        return -1
    return 1 if x > ref + margin else 0


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
            side = compare_reference(lhs, rhs)
            if row.equality_expected:
                equality_points += 1
                if side != 0:
                    violations.append(GridViolation(kind="equality", row=row))
            else:
                min_margin = min(min_margin, lhs - rhs if strict == 1 else rhs - lhs)
                if side != strict:
                    violations.append(GridViolation(kind="inequality", row=row))
        lane += len(members)
    return dict(lemma=lemma, points=len(rows), violations=tuple(violations),
                equality_points=equality_points, max_crosscheck_error=max_err,
                min_strict_margin=min_margin, rows=tuple(rows))
