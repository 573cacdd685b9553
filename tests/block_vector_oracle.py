"""Reference test vectors for the grids' Collatz-Wielandt enclosures.

spectral.family_radius_bounds takes its test vectors' block values from
the quotients that spectral.family_quotients builds from the block sizes,
solved in one eigensolver call per grid.  This reads each quotient off the
member's own matrix instead, one stack at a time, and the two must agree
bitwise.
"""
import numpy as np

from fracext.spectral import block_perron_vectors, family_quotients


def block_test_vectors(M, k, s_values):
    """(m, n) positive test vectors for a stack of family matrices, read off M.

    Each vector is constant on the three blocks of its member (n, k, s), with
    block values the Perron vector of M's 3x3 block quotient: entry (i, j) is
    the sum of the first row of block i over block j.  An empty inner block
    (n = 2s-2k+1) has no row of its own, so its quotient row is zeroed and its
    value, which no vertex takes, is 0.
    """
    m, n = M.shape[:2]
    s = np.asarray(s_values, dtype=np.intp)
    firsts = np.zeros((m, 3), dtype=np.intp)   # the first vertex of each block
    firsts[:, 1] = s
    firsts[:, 2] = n - (s - 2 * k + 1)
    label = (np.arange(n) >= s[:, None]).astype(np.intp)   # each vertex's block
    label += np.arange(n) >= firsts[:, 2:]
    member = np.arange(m)[:, None]
    B = np.matmul(M[member, firsts], (label[:, :, None] == np.arange(3)).astype(float))
    B[firsts[:, 1] == firsts[:, 2], 1] = 0.0
    w, V = np.linalg.eig(B)
    p = V[member[:, 0], :, w.real.argmax(axis=1)].real
    p /= p.sum(axis=1, keepdims=True)
    return p[member, label]


def family_block_values(quantity, n, k, s_values):
    """(m, 3) block values of the members (n, k, s) of one stack, taken as
    the grids take them: the Perron vectors of family_quotients."""
    m = len(s_values)
    return block_perron_vectors(family_quotients(quantity, [k] * m, [n] * m, s_values))
