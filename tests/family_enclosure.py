"""Dense cross-check of the family roots: the members' own matrices and a
Collatz-Wielandt enclosure of their spectral radii.

The grids take each member's q or mu from its closed-form cubic, backed by
a certified bracket and by the identity between that cubic and the
member's 3x3 quotient.  This module keeps the independent route in the
tests: it builds each member's Q or D as a dense float64 stack, encloses
its spectral radius with one matvec, and reads test vectors off the
matrices, so the tests can compare all of it with the row values and with
eigvalsh.
"""
import numpy as np

from fracext.graphs import ExtremalParams
from fracext.spectral import SWEEP_CHUNK_ENTRIES, largest_eigenvalues


def _family_stack(n, k, s_values, far):
    """Float64 stack (m, n, n) of the family members (n, k, s), one per s.

    Vertices follow extremal_graph: 0 on the diagonal, far on the pairs of
    an inner or independent vertex with an independent one (the pairs that
    are not adjacent, at distance 2) and 1 elsewhere.  ExtremalParams
    rejects an invalid member.
    """
    M = np.ones((len(s_values), n, n))
    for j, s in enumerate(s_values):
        c = s + ExtremalParams(n, k, s).inner_size   # dominating plus inner block
        M[j, s:, c:] = far
        M[j, c:, s:] = far
    M.reshape(len(M), n * n)[:, ::n + 1] = 0.0   # each member's diagonal, as a view
    return M


def family_q_matrix(n, k, s_values):
    """Signless Laplacians (m, n, n) of the family members (n, k, s), one per
    s; integers held as float64."""
    Q = _family_stack(n, k, s_values, 0.0)
    Q.reshape(len(Q), n * n)[:, ::n + 1] = Q.sum(axis=2)
    return Q


def family_distance_matrix(n, k, s_values):
    """Distance matrices (m, n, n) of the family members (n, k, s), one per s,
    float64 as in family_q_matrix; every member has diameter 2, so no BFS."""
    return _family_stack(n, k, s_values, 2.0)


def family_matrices(quantity, n, k, s_values):
    """family_q_matrix ("q") or family_distance_matrix ("mu")."""
    build = family_q_matrix if quantity == "q" else family_distance_matrix
    return build(n, k, s_values)


def family_quotients(quantity, k, n, s):
    """(m, 3, 3) quotients of Q ("q") or D ("mu") of the family members
    (n, k, s), one per entry of the equal-length arrays k, n and s, taken
    from the block sizes s, n1 = n-2s+2k-1 and t = s-2k+1 as integer-valued
    float64.  Each is quotient(M, positional_blocks(p)) of the member's M,
    except that an empty inner block (n1 = 0) has no row, so row 1 is zero.
    """
    k, n, s = (np.asarray(v, dtype=float) for v in (k, n, s))
    n1, t, zero = n - 2 * s + 2 * k - 1, s - 2 * k + 1, np.zeros_like(n)
    rows = ([[s + n - 2, n1, t], [s, 2 * n1 + s - 2, zero], [s, zero, s]] if quantity == "q"
            else [[s - 1, n1, t], [s, n1 - 1, 2 * t], [s, 2 * n1, 2 * t - 2]])
    B = np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)
    B[n1 == 0, 1] = 0.0
    return B


def block_perron_vectors(B):
    """(m, 3) Perron vectors, summing to 1, of a stack of 3x3 quotients, from
    one np.linalg.eig call."""
    w, V = np.linalg.eig(B)
    p = V[np.arange(len(B)), :, w.real.argmax(axis=1)].real
    return p / p.sum(axis=1, keepdims=True)


def family_block_values(quantity, n, k, s_values):
    """(m, 3) block values of the members (n, k, s) of one stack: the Perron
    vectors of family_quotients."""
    m = len(s_values)
    return block_perron_vectors(family_quotients(quantity, [k] * m, [n] * m, s_values))


def _block_vectors(values, n, k, s_values):
    """(m, n) vectors constant on the three blocks of each member (n, k, s):
    block i of member j takes values[j, i]."""
    s = np.asarray(s_values, dtype=np.intp)[:, None]
    label = (np.arange(n) >= s).astype(np.intp) + (np.arange(n) >= n - (s - 2 * k + 1))
    return values[np.arange(len(s))[:, None], label]


def family_radius_bounds(M, k, s_values, values):
    """(2, m) rows lo, hi enclosing the spectral radius of each matrix of a
    family stack at (n, k, s) for the s of s_values.

    Collatz-Wielandt: for a nonnegative M and any x > 0, min_i (Mx)_i/x_i
    <= rho(M) <= max_i (Mx)_i/x_i, whatever x is.  x is constant on each
    member's three blocks, with the member's row of the (m, 3) block values;
    for the quotient's Perron vector the partition is equitable, so the
    enclosure is tight up to the rounding of one matvec.  A member whose x
    is not strictly positive gets (-inf, inf).
    """
    x = _block_vectors(values, M.shape[1], k, s_values)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.matmul(M, x[:, :, None])[:, :, 0] / x
    positive = (x > 0.0).all(axis=1)
    return np.stack([np.where(positive, ratio.min(axis=1), -np.inf),
                     np.where(positive, ratio.max(axis=1), np.inf)])


def member_values(quantity, members):
    """{(k, n, s): (largest eigenvalue, lo, hi)} of a grid's members, given as
    {(k, n): sorted s values}: eigvalsh and the enclosure of each member's own
    matrix.  The block values of every member come from one eigensolver call
    over all the grid's quotients, so a chunk, a stack of at most
    SWEEP_CHUNK_ENTRIES entries at one (k, n), only builds its matrices,
    encloses and factors them."""
    points = np.array([(k, n, s) for (k, n), ss in members.items() for s in ss]).reshape(-1, 3)
    cuts = np.cumsum([len(ss) for ss in members.values()])[:-1]
    block_values = np.split(block_perron_vectors(family_quotients(quantity, *points.T)), cuts)
    out = {}
    for ((k, n), ss), values in zip(members.items(), block_values):
        size = max(1, SWEEP_CHUNK_ENTRIES // (n * n))
        for i in range(0, len(ss), size):
            part = ss[i:i + size]
            M = family_matrices(quantity, n, k, part)
            lo, hi = family_radius_bounds(M, k, part, values[i:i + size])
            eig = largest_eigenvalues(M)
            out.update(((k, n, s), v) for s, v in zip(part, zip(eig.tolist(), lo.tolist(),
                                                                hi.tolist())))
    return out


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
