"""Independent extendability oracle: the set condition over all 2^n vertex sets.

A graph of order >= 2k+2 with a k-matching is fractional k-extendable
exactly when every S whose induced subgraph carries a k-matching has
i(G-S) <= |S| - 2k.  One int8 table of i(G-S) - |S| over every vertex
mask names the candidate sets, so nothing here walks k-matchings or
searches the double cover, as the package's oracle does.  The cost is
2^n bytes whatever k is: keep it to small orders.
"""
import numpy as np

from fracext.matching import (BAD_SET, EXTENDABLE, NO_K_MATCHING, TOO_SMALL,
                              Verdict, _has_k_matching_in_mask, has_k_matching)


def excess_table(g):
    """excess[S] = i(G-S) - |S| for every vertex mask S, in mask order.

    v adds 1 where (S & (N(v) | v)) == N(v), that is where it lies outside
    S with N(v) inside S, and takes 1 where (S & v) == v.  A test
    (S & x) == y holds when it holds on the high bits and on the low h
    bits of S, so each is an outer AND of two 2^(n/2)-entry tests and no
    array of 2^n masks is made.  Values stay in [-n, n], so int8 holds
    them.
    """
    h = g.n // 2
    low = (1 << h) - 1
    lo = np.arange(1 << h, dtype=np.uint32)
    hi = np.arange(1 << (g.n - h), dtype=np.uint32)[:, None]

    def masked_equal(x, y):
        return ((hi & (x >> h)) == (y >> h)) & ((lo & (x & low)) == (y & low))

    excess = np.zeros((hi.size, lo.size), dtype=np.int8)
    for v, row in enumerate(g.rows):
        bit = 1 << v
        excess += masked_equal(row | bit, row)
        excess -= masked_equal(bit, bit)
    return excess.reshape(-1)


def is_fext_lemma(g, k):
    """Fractional k-extendability via the set condition.

    The candidates are the S with excess[S] > -2k, in ascending mask
    order; the first whose induced subgraph has a k-matching is a violator
    and the witness, and no violator certifies extendability.  Graphs
    without a k-matching, or of order < 2k+2, get the package's distinct
    negative verdicts.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n < 2 * k + 2:
        return Verdict(False, TOO_SMALL)
    if not has_k_matching(g, k):
        return Verdict(False, NO_K_MATCHING)
    for s in map(int, np.nonzero(excess_table(g) > -2 * k)[0]):
        if _has_k_matching_in_mask(g, s, k):
            return Verdict(False, BAD_SET, witness_set=s)
    return Verdict(True, EXTENDABLE)
