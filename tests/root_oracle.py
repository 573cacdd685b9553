"""Reference root finder: the scalar bisection loop, one cubic at a time.

spectral.largest_real_roots bisects every cubic of a call in one numpy
pass and promises each root bitwise equal to what this loop gives for
that cubic alone.
"""
import math


def largest_real_root_reference(c) -> float:
    """Largest real root of a monic cubic by bracketing bisection.

    The Cauchy bound 1 + max|coeff| brackets all roots; the derivative's
    critical points isolate the rightmost one.  Bisection stops once the
    bracket is within 1e-13 relative (absolute below 1).
    """
    c2, c1, c0 = float(c.c2), float(c.c1), float(c.c0)
    bound = 1.0 + max(abs(c2), abs(c1), abs(c0))

    def p(x: float) -> float:
        return ((x + c2) * x + c1) * x + c0

    disc = c2 * c2 - 3.0 * c1
    lo, hi = -bound, bound
    if disc > 0.0:
        r = math.sqrt(disc)
        x_hi = (-c2 + r) / 3.0   # rightmost critical point (local min)
        x_lo = (-c2 - r) / 3.0
        if p(x_hi) <= 0.0:
            lo = x_hi
        else:
            hi = x_lo   # single real root left of the local max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if p(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-13 * max(1.0, abs(hi)):
            break
    # bisection keeps p(hi) >= 0; an exact zero there is the root itself
    return hi if p(hi) == 0.0 else 0.5 * (lo + hi)
