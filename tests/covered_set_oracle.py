"""Reference extendability oracle: a fresh FPM search for every covered set.

The package's oracle walks the same covered sets but carries one
double-cover matching down the walk and repairs it.  This module keeps the
walk and the FPM test apart: covered_sets yields each distinct V(M) with
the k-matching M that reached it first, and is_fext_by_covered_sets runs
fractional_pm_exists on G - V(M) from scratch for each, composing the
same witnesses.  It visits the sets in the package's order, so the two
must agree on every field of the Verdict.
"""
from fracext.matching import (BAD_MATCHING, EXTENDABLE, NO_K_MATCHING, TOO_SMALL,
                              Verdict, fractional_pm_exists)


def covered_sets(g, k):
    """Yield (V(M), M) once for each distinct vertex set V(M) of a k-matching M.

    Edges are added in increasing order of their larger endpoint, so the
    edges that can extend a partial set U (larger endpoint above max U,
    both endpoints outside U) depend on U alone, and U is extended only
    the first time it is reached; M is the matching that reached V(M)
    first, its edges in the order added.
    """
    below = [row & ((1 << v) - 1) for v, row in enumerate(g.rows)]
    seen = set()

    def extend(used, top, chosen):
        for b in range(top + 1, g.n):
            cand = below[b] & ~used
            while cand:
                low = cand & -cand
                a = low.bit_length() - 1
                cand ^= low
                covered = used | low | (1 << b)
                if covered in seen:
                    continue
                seen.add(covered)
                m = chosen + ((a, b),)
                if len(m) == k:
                    yield covered, m
                else:
                    yield from extend(covered, b, m)

    yield from extend(0, -1, ())


def is_fext_by_covered_sets(g, k):
    """Fractional k-extendability with one fresh FPM search per covered set.

    The first covered set U whose complement has no FPM fails; its
    deficiency set S' gives the set witness S' | U, as in the package.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n < 2 * k + 2:
        return Verdict(False, TOO_SMALL)
    full = (1 << g.n) - 1
    found_any = False
    for used, m in covered_sets(g, k):
        found_any = True
        ok, s = fractional_pm_exists(g, full ^ used)
        if not ok:
            return Verdict(False, BAD_MATCHING, witness_set=s | used, witness_matching=m)
    return Verdict(True, EXTENDABLE) if found_any else Verdict(False, NO_K_MATCHING)
