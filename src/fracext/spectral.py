"""Spectral machinery: matrices, largest eigenvalues, exact quotients,
and the closed-form characteristic cubics of the extremal families.

Numeric spectral radii come from LAPACK's symmetric eigensolver; quotient
matrices and their characteristic polynomials are exact over the
rationals.  The family's q and mu cubics are integer polynomials in (n, k, s),
written once and evaluated by family_coefficients over many members at once;
each of closed_form's seven named forms is one member's, to assert against
charpoly3(quotient(...)).
Graph matrices are uint8 numpy stacks of graphs of one order, as corpus
stacks are: adjacency_matrices is the one reader of Graph's bit rows and
stack_graphs the one writer, and graph6 alone turns a stack into packed
rows or text.  Q and D (degrees and distances are at most 127) are built
from an adjacency stack, D as a sum of the masks of pairs not yet reached,
one float32 product over the stack per level; stack_stats is the one
source of edge counts, minimum degrees and connectivity, and
largest_eigenvalues is one eigensolver call.  radius_bounds encloses the
spectral radius of each matrix of a stack exactly, in int64 on the grid of
2^-20, from a Rayleigh quotient and a Collatz-Wielandt ratio.  The largest
roots of many integer cubics come from one numpy bisection pass, each with
the width of a certified bracket: Horner rounding-error bounds, or exact
arithmetic where those do not settle it, prove the root inside.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, ExtremalParams


# ---------------------------------------------------------------------------
# matrix builders
# ---------------------------------------------------------------------------

# the corpus generators size their blocks of parents by this many table
# entries, and chunk_size the stacks that sweeps and the sampler classify
SWEEP_CHUNK_ENTRIES = 1 << 14


def chunk_size(n: int) -> int:
    """Graphs of order n per chunk, linear in n: (SWEEP_CHUNK_ENTRIES >> 3) // n, at least
    one; 256 at order 8 (2048 measured slower there), 58 at order 35, 16 at order 128."""
    return max(1, (SWEEP_CHUNK_ENTRIES >> 3) // max(1, n))


def adjacency_matrices(graphs) -> np.ndarray:
    """0/1 adjacency matrices of graphs of one order, stacked (m, n, n), uint8.

    The one reader of the bit-row format here: each row is written as
    (n + 7) // 8 little-endian bytes, and the rows of every graph are
    unpacked in one call, n columns each, into uint8, as corpus stacks are.
    """
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("a stack holds graphs of one order")
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join([r.to_bytes(width, "little") for g in graphs for r in g.rows]),
                           dtype=np.uint8).reshape(len(graphs), n, width)
    return np.unpackbits(packed, axis=2, count=n, bitorder="little")


def stack_graphs(A: np.ndarray) -> tuple[Graph, ...]:
    """The graphs of an (m, n, n) 0/1 adjacency stack: adjacency_matrices's
    inverse, each row packed in one call into n // 64 + 1 little-endian 64-bit
    words (a spare one at n = 0, 64 and 128), read in one tolist and joined."""
    m, n = A.shape[:2]
    packed = np.zeros((m, n, 8 * (n // 64 + 1)), dtype=np.uint8)
    packed[..., :(n + 7) // 8] = np.packbits(A, axis=2, bitorder="little")
    *low, rows = packed.view("<u8").reshape(-1, n // 64 + 1).T.tolist()
    for word in reversed(low):   # the words below the top one, highest first
        rows = [(r << 64) | w for r, w in zip(rows, word)]
    return tuple(Graph._of(n, tuple(rows[b * n:(b + 1) * n])) for b in range(m))


def connected_flags(A: np.ndarray) -> list[bool]:
    """Whether each graph of an (m, n, n) 0/1 integer adjacency stack is
    connected, as a list; the order-0 graph is.

    The set reached from vertex 0, a 0/1 row per graph, grows by one stacked
    vector-matrix product per step, chunk by chunk, until every vertex of
    the chunk is reached or no graph's set grows, so a path of any length
    is followed to its end, in the stack's own integer type: no entry passes n + 1 <= 129.
    """
    m, n = A.shape[:2]
    size = chunk_size(n)
    out: list[bool] = []
    for at in range(0, m, size):
        chunk = A[at:at + size]
        reach = chunk[:, :1, :].copy()   # vertex 0's neighbours
        reach[:, :, :1] = 1              # and vertex 0
        count = np.count_nonzero(reach)
        while count < reach.size:
            reach = np.matmul(reach, chunk) + reach
            np.minimum(reach, 1, out=reach)
            count, before = np.count_nonzero(reach), count
            if count == before:
                break
        # every vertex of the chunk reached: each of its graphs is connected
        out += [True] * len(chunk) if count == reach.size else reach.all(axis=(1, 2)).tolist()
    return out


def stack_stats(A: np.ndarray) -> tuple[list[int], list[int], list[bool]]:
    """(e, delta, connected) of each graph of an (m, n, n) 0/1 integer
    adjacency stack, as three lists: the edge count and minimum degree from
    the row sums, connectivity from connected_flags."""
    n = A.shape[1]
    deg = A.sum(axis=2)
    # every degree is below n, so the initial value n - 1 changes no minimum
    # and gives the order-0 graph delta 0
    delta = deg.min(axis=1, initial=max(n - 1, 0)).tolist()
    return [twice // 2 for twice in deg.sum(axis=1).tolist()], delta, connected_flags(A)


def signless_laplacians(A: np.ndarray) -> np.ndarray:
    """Degree-diagonal plus adjacency of an (m, n, n) stack, in A's dtype (a degree is
    at most 127, so uint8 holds it); A is not modified."""
    Q = A.copy()
    diag = np.arange(Q.shape[1])
    Q[:, diag, diag] = A.sum(axis=2)
    return Q


def distance_matrices(A: np.ndarray) -> np.ndarray:
    """All-pairs distances, uint8 (at most n - 1 <= 127), for an (m, n, n) adjacency stack.

    A sum of "not yet reached" masks: dist(u, v) counts the levels d >= 0
    with dist(u, v) > d, so D = (J - I) + sum over d >= 1 of not R_d, where
    R_d marks the pairs within d steps.  R_1 = I + A needs no product, and
    each later level is one float32 product over the stack,
    R_(d+1) = (R_d @ (I + A)) > 0, exact because no sum exceeds n <= 128 <
    2^24.  The stack runs until every pair of every graph is reached, so a
    stack of diameter-2 graphs takes one product.  Raises ValueError when
    any graph is disconnected: a level then reaches nothing new.
    """
    n = A.shape[1]
    diag = np.arange(n)
    step = A.astype(np.float32)
    step[:, diag, diag] = 1   # I + A
    reach = step > 0          # R_1
    D = np.ones(A.shape, dtype=np.uint8)
    D[:, diag, diag] = 0      # J - I
    count = np.count_nonzero(reach)
    while count < reach.size:
        D += ~reach
        reach = np.matmul(reach.astype(np.float32), step) > 0
        count, before = np.count_nonzero(reach), count
        if count == before:
            raise ValueError("distance matrix requires a connected graph")
    return D


# ---------------------------------------------------------------------------
# largest eigenvalue
# ---------------------------------------------------------------------------

def largest_eigenvalues(stack) -> np.ndarray:
    """Largest eigenvalue of each real symmetric matrix of an (m, n, n) stack.

    One LAPACK eigvalsh call over the stack, which factors each matrix on its
    own: every value is bitwise the one a call on that matrix alone gives.
    """
    A = np.asarray(stack, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError("matrix must be square")
    if A.shape[1] == 0:
        raise ValueError("empty matrix")
    if not np.array_equal(A, A.swapaxes(1, 2)):
        raise ValueError("matrix must be symmetric")
    return np.linalg.eigvalsh(A)[:, -1]


# radius_bounds's bounds, and the thresholds' brackets they are compared with,
# are integers in units of 2^-DYADIC_BITS, so each comparison is exact
DYADIC_BITS = 20


def radius_bounds(M: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper), int64 arrays with lower <= 2^DYADIC_BITS * rho(M) <= upper
    for each matrix M of an (m, n, n) stack of nonnegative symmetric integer
    matrices, each row with a positive entry (the Q or D of a connected graph of
    order >= 2), and steps >= 1.

    With x = M^steps * 1 > 0 in integers, the Rayleigh quotient x'Mx / x'x is at
    most rho(M), as M is symmetric, and the Collatz-Wielandt ratio
    max_v (Mx)_v / x_v at least rho(M), as M is nonnegative and x positive.
    Both are rounded outward onto the dyadic grid by integer floor and ceiling
    division, so no float takes part.
    """
    M = M.astype(np.int64, copy=False)
    x = M.sum(axis=2)   # M * 1
    if not (x > 0).all():
        raise ValueError("every row of every matrix needs a positive entry")
    # with R the largest row sum and t = steps, 0 < x_v <= R^t and (Mx)_v <= R^(t+1),
    # so x'x <= n R^2t and x'Mx <= n R^(2t+1).  The largest int64 values formed are
    # (Mx)_v 2^20 + x_v < R^(t+1) 2^21, x'Mx, and the remainder of x'Mx / x'x times
    # 2^20, below n R^2t 2^20.  At order 128 Q has R <= 2 * 127 < 2^8 and t = 2, so
    # n R^4 2^20 < 2^59; D has R <= 127^2 < 2^14 and t = 1, so n R^2 2^20 < 2^55.
    # x'Mx 2^20 itself (about 1.4e20 for K_128's Q) is never formed: the quotient
    # and the remainder of x'Mx / x'x are scaled apart.
    R, t, n = int(x.max(initial=1)), steps, M.shape[1]
    if max(R ** (t + 1) << (DYADIC_BITS + 1), n * R ** (2 * t + 1),
           n * R ** (2 * t) << DYADIC_BITS) >= 1 << 63:
        raise ValueError(f"row sums up to {R} at order {n} overflow int64 at {t} steps")
    for _ in range(steps - 1):
        x = np.matmul(M, x[:, :, None])[:, :, 0]
    y = np.matmul(M, x[:, :, None])[:, :, 0]
    upper = (((y << DYADIC_BITS) + x - 1) // x).max(axis=1)
    xx = np.einsum("ij,ij->i", x, x)
    whole, rest = np.divmod(np.einsum("ij,ij->i", x, y), xx)
    return (whole << DYADIC_BITS) + (rest << DYADIC_BITS) // xx, upper


def largest_eigenvalue(M) -> float:
    """Largest eigenvalue of one real symmetric matrix: the stack of one."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError("matrix must be square")
    return float(largest_eigenvalues(A[None])[0])


# ---------------------------------------------------------------------------
# equitable partitions, quotient matrices, characteristic cubics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientMatrix:
    """Exact block-row-sum matrix with an equitability certificate."""
    entries: tuple[tuple[Fraction, ...], ...]
    equitable: bool

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    @property
    def size(self) -> int:
        return len(self.entries)


def quotient(M, blocks) -> QuotientMatrix:
    """Row-sum quotient of an integer matrix over an ordered vertex partition.

    equitable is True iff inside every block pair the row sums agree, in
    which case the quotient's spectrum interlaces and its largest
    eigenvalue equals the full matrix's.
    """
    A = np.asarray(M, dtype=np.int64)
    n = A.shape[0]
    cover = sorted(v for b in blocks for v in b)
    if cover != list(range(n)):
        raise ValueError("blocks must partition 0..n-1")
    if any(len(b) == 0 for b in blocks):
        raise ValueError("empty block")
    sums = [[A[np.ix_(list(bi), list(bj))].sum(axis=1) for bj in blocks] for bi in blocks]
    return QuotientMatrix(tuple(tuple(Fraction(int(r.sum()), len(r)) for r in row) for row in sums),
                          all((r == r[0]).all() for row in sums for r in row))


@dataclass(frozen=True)
class Cubic:
    """Monic cubic x^3 + c2 x^2 + c1 x + c0 with exact (int or Fraction) coefficients."""
    c2: Fraction | int
    c1: Fraction | int
    c0: Fraction | int

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(map(Fraction, (1, self.c2, self.c1, self.c0)))


def charpoly3(q: QuotientMatrix) -> Cubic:
    """Characteristic polynomial of a 3x3 quotient, exact."""
    if q.size != 3:
        raise ValueError("charpoly3 needs a 3x3 quotient")
    b = q.entries
    tr = b[0][0] + b[1][1] + b[2][2]
    m01 = b[0][0] * b[1][1] - b[0][1] * b[1][0]
    m02 = b[0][0] * b[2][2] - b[0][2] * b[2][0]
    m12 = b[1][1] * b[2][2] - b[1][2] * b[2][1]
    det = (b[0][0] * m12
           - b[0][1] * (b[1][0] * b[2][2] - b[1][2] * b[2][0])
           + b[0][2] * (b[1][0] * b[2][1] - b[1][1] * b[2][0]))
    return Cubic(-tr, m01 + m02 + m12, -det)


def positional_blocks(p: ExtremalParams) -> tuple[range, range, range]:
    """The three vertex blocks of extremal_graph(p) in construction order."""
    s, n1 = p.s, p.inner_size
    return (range(0, s), range(s, s + n1), range(s + n1, p.n))


# closed forms --------------------------------------------------------------

def _f_pi_1(n, k, s):   # each builder takes ints or int64 arrays, and gives (c2, c1, c0)
    return (s - 3 * n - 4 * k + 6,
            -4 * s * s + (8 * k + n - 4) * s + 4 * k * n - 8 * n - 8 * k + 2 * n * n + 8,
            -2 * s ** 3 + (8 * k + 4 * n - 10) * s * s
            + (-8 * k * k - 8 * k * n + 20 * k - 2 * n * n + 10 * n - 12) * s)


def _f_pi_prime_1(k, s):
    """q's cubic at the boundary order 2s-2k+1; at s = 2k, where the family
    is K_{2k+1}, it factors as (x - 4k)(x - 2k)(x - 2k + 1)."""
    return 2 * k - 5 * s + 1, 6 * s * s - 2 * k * s - 3 * s, -2 * s ** 3 + 2 * s * s


def _phi_b1(n, k, s):
    return (2 * k - n - s + 3,
            5 * s * s - 14 * k * s - 2 * n * s + 8 * k * k + 4 * k * n + 6 * s - 6 * k - 5 * n + 6,
            -2 * s ** 3 + 6 * k * s * s + n * s * s + 2 * s * s - 4 * k * k * s - 2 * k * n * s
            - 10 * k * s - n * s + 6 * s + 8 * k * k + 4 * k * n - 8 * k - 4 * n + 4)


# form: (parameters besides k, quantity, region, member): each form is the q or
# mu cubic of the family member (n, k, s) that member names as a function of
# (n, k, s, delta), or False outside the region.  The region is the member's own
# validity (2k <= s and 2s-2k+1 <= n: family_coefficients) and what member tests
# beyond it; f_pi_prime_1 and phi_B3_case2 live at the boundary order 2s-2k+1.
_FAMILIES = {
    "f2": (("n",), "q", "n >= 2k+2", lambda n, k, s, d: n >= 2 * k + 2 and (n, k, 2 * k)),
    "f_pi_1": (("n", "s"), "q", "s >= 2k and n >= 2s-2k+2",
               lambda n, k, s, d: n >= 2 * s - 2 * k + 2 and (n, k, s)),
    "f_pi_prime_1": (("s",), "q", "s >= 2k+1 (order is 2s-2k+1)",
                     lambda n, k, s, d: s >= 2 * k + 1 and (2 * s - 2 * k + 1, k, s)),
    "f3_q": (("n", "delta"), "q", "delta >= 2k+1 and n >= 2*delta-2k+2",
             lambda n, k, s, d: d >= 2 * k + 1 and n >= 2 * d - 2 * k + 2 and (n, k, d)),
    "phi_B1": (("n", "s"), "mu", "s >= 2k and n >= 2s-2k+1", lambda n, k, s, d: (n, k, s)),
    "phi_B3_case1": (("n", "delta"), "mu", "delta >= 2k+1 and n >= 2*delta-2k+2",
                     lambda n, k, s, d: d >= 2 * k + 1 and n >= 2 * d - 2 * k + 2 and (n, k, d)),
    "phi_B3_case2": (("s", "delta"), "mu", "delta >= 2k+1 and s >= delta+1",
                     lambda n, k, s, d: d >= 2 * k + 1 and s >= d + 1
                     and (2 * s - 2 * k + 1, k, d)),
}
FAMILIES = tuple(_FAMILIES)


def closed_form(family: str, *, n: int | None = None, k: int,
                s: int | None = None, delta: int | None = None) -> Cubic:
    """Characteristic cubic of the named family's quotient matrix: the
    family_cubic of the member its _FAMILIES row names.

    A parameter the family does not take, or parameters outside its region,
    raise ValueError.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    takes, quantity, region, member = _FAMILIES[family]
    given = {"n": n, "s": s, "delta": delta}
    for name, value in given.items():
        if value is not None and name not in takes:
            raise ValueError(f"{family} takes no {name}")
    params = None not in [given[name] for name in takes] and member(n, k, s, delta)
    if not params:
        raise ValueError(f"{family} needs {region}")
    return family_cubic(quantity, *params)


def family_coefficients(quantity: str, members) -> np.ndarray:
    """(m, 3) int64 rows (c2, c1, c0) of the cubics whose largest roots are the
    family's q ("q") or mu ("mu"), for m members (n, k, s) at once.

    phi_B1 covers mu at every order; q takes f_pi_1 above the boundary
    order n = 2s-2k+1 and f_pi_prime_1 at it, for every s >= 2k (at s = 2k
    that member is K_{2k+1}, below closed_form's f_pi_prime_1 region).
    """
    members = np.asarray(members).reshape(-1, 3)   # Python ints past int64 stay objects
    n, k, s = members.T
    # every valid member has 1 <= k < s < n < 2^18 (the first four tests), so no
    # int64 partial result wraps: each closed form, expanded as written, has
    # monomials of magnitude at most n^3 whose integer factors add up to at
    # most 84 (f_pi_1's c0), and 84 * 2^54 < 2^63
    if not ((1 <= k) & (k < s) & (s < n) & (n < 1 << 18)
            & (2 * k <= s) & (2 * s - 2 * k < n)).all():
        raise ValueError("family members need k >= 1, s >= 2k and 2s-2k+1 <= n < 2^18")
    n, k, s = members.astype(np.int64, copy=False).T
    if quantity == "mu":
        return np.stack(_phi_b1(n, k, s), axis=1)
    return np.where((n == 2 * s - 2 * k + 1)[:, None], np.stack(_f_pi_prime_1(k, s), axis=1),
                    np.stack(_f_pi_1(n, k, s), axis=1))


def family_cubic(quantity: str, n: int, k: int, s: int) -> Cubic:
    """One member's cubic (family_coefficients), with int coefficients."""
    return Cubic(*family_coefficients(quantity, [(n, k, s)])[0].tolist())


def _cubic_values(C: np.ndarray, x: np.ndarray) -> np.ndarray:
    """((x + c2) x + c1) x + c0 for each column (c2, c1, c0) of the (3, m) C and its x."""
    return ((x + C[0]) * x + C[1]) * x + C[2]


# a bisection bracket [lo, hi] is widened by this times max(1, |hi|) at each
# end before it is certified
BRACKET_WIDENING = 1e-13
# Horner's rounding error on a polynomial of degree d <= 3 is at most
# gamma_2d * sum |c_i| |x|^i, gamma_6 = 6u / (1 - 6u) with u = 2^-53 (Higham,
# Accuracy and Stability of Numerical Algorithms, 5.1); 7u also covers the
# rounding of that sum's own float evaluation
_HORNER_GAMMA = 7 * 2.0 ** -53


def _certified(C: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Lanes whose float evaluations prove f(lo) < 0 and f, f', f'' > 0 at hi.

    Each value must clear its Horner error bound, taken as the same Horner
    scheme on |c_i| and |x|.  f'' is increasing, so the three signs at hi
    keep f positive from hi on, and the largest root lies in (lo, hi).
    """
    A, c2, c1 = np.abs(C), C[0], C[1]
    a2, a1, ah = A[0], A[1], np.abs(hi)
    return ((_cubic_values(C, lo) < -_HORNER_GAMMA * _cubic_values(A, np.abs(lo)))
            & (_cubic_values(C, hi) > _HORNER_GAMMA * _cubic_values(A, ah))
            & ((3.0 * hi + 2.0 * c2) * hi + c1 > _HORNER_GAMMA * ((3.0 * ah + 2.0 * a2) * ah + a1))
            & (6.0 * hi + 2.0 * c2 > _HORNER_GAMMA * (6.0 * ah + 2.0 * a2)))


def _certified_exactly(c2: float, c1: float, c0: float, lo: float, hi: float) -> bool:
    """_certified's four signs in exact arithmetic at the same two floats,
    for integer coefficients held exactly as floats."""
    c2, c1, c0, lo, hi = map(Fraction, (c2, c1, c0, lo, hi))
    return (((lo + c2) * lo + c1) * lo + c0 < 0 < ((hi + c2) * hi + c1) * hi + c0
            and (3 * hi + 2 * c2) * hi + c1 > 0 and 3 * hi + c2 > 0)


def _enclosure_widths(C: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """hi - lo, rounded up, of each lane whose bracket _certified proves,
    or else _certified_exactly does; inf for a lane that both reject."""
    ok = _certified(C, lo, hi)
    for i in np.flatnonzero(~ok).tolist():
        ok[i] = _certified_exactly(*C[:, i].tolist(), lo[i], hi[i])
    return np.where(ok, np.nextafter(hi - lo, np.inf), np.inf)


def _unmasked_steps(lo: np.ndarray, hi: np.ndarray) -> int:
    """Bisection steps in which no lane of the brackets [lo, hi] can stop:
    e - 3, where 2^(e-1) <= min (hi - lo) / T < 2^e and T = 1e-13 max(1, |lo|, |hi|)
    lane by lane (largest_real_roots proves the count); 0 when that minimum is below 8."""
    if not len(lo):
        return 0
    ratio = ((hi - lo) / (1e-13 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi))))).min()
    return math.frexp(ratio)[1] - 3 if ratio >= 8.0 else 0


def largest_real_roots(C) -> tuple[np.ndarray, np.ndarray]:
    """(roots, widths): the largest real root of each monic cubic, given as
    the rows (c2, c1, c0) of an (m, 3) integer array, by bracketing
    bisection, and the width of a proven enclosure of that root which holds
    the returned value.

    The Cauchy bound 1 + max|coeff| brackets all roots; the derivative's
    critical points isolate the rightmost one.  Bisection stops once the
    midpoint equals an end or the bracket is within 1e-13 relative
    (absolute below 1), and a zero at the upper end is the root itself.
    Every root is bitwise the one a scalar loop over that cubic alone gives
    (tests/root_oracle.py), and every coefficient must be below 2^53 in
    magnitude, so it is exact in float64.

    The bisection runs on all lanes at once in two stretches.  The first
    runs blocks of _unmasked_steps steps, in place on contiguous
    coefficient columns with no stop test; the second is the masked loop,
    in which each lane stops on its own, for the last few steps.  No lane
    can stop inside a block: with M = max(1, |lo|, |hi|) of a lane's
    bracket at the block's start, T = 1e-13 M and w = hi - lo, the block
    has s steps where w >= 2^(s+2) T (1 - 3u), u = 2^-53, because the
    computed ratio w / T carries at most 3u relative error.  The brackets
    nest, so every later |hi| is at most M, every later stop width
    1e-13 max(1, |hi|) at most T (a rounded product is monotone), and
    every midpoint 0.5 (lo + hi) lies within 2uM of the exact one.  So
    after j <= s steps the bracket is still wider than w / 2^j - 4uM > 2T,
    and at each step the midpoint falls strictly inside, and the rounded
    width stays above T: neither stop test fires, and each lane takes
    exactly the scalar loop's IEEE steps, with the same Horner order
    ((mid + c2) mid + c1) mid + c0 and the same choice of end.

    The final bracket, widened by BRACKET_WIDENING, holds the returned
    value, and it holds the largest root when _certified proves it, or else
    when the same four signs hold exactly (_certified_exactly); its width
    then bounds |largest root - returned value|.  A lane that fails both,
    such as a multiple largest root or a lone real root left of a local
    maximum, gets width inf.
    """
    C = np.asarray(C)
    if C.ndim != 2 or C.shape[1] != 3:
        raise ValueError(f"cubic coefficients come as an (m, 3) array, not shape {C.shape}")
    integer = C.dtype.kind == "i"
    C = C.T.astype(float, order="C")   # (3, m): each coefficient's column contiguous
    if not integer or (np.abs(C) >= 2.0 ** 53).any():
        raise ValueError("cubic coefficients must be integers below 2^53 in magnitude")
    c2, c1, c0 = C
    bound = 1.0 + np.abs(C).max(axis=0, initial=0.0)
    disc = c2 * c2 - 3.0 * c1
    r = np.sqrt(np.where(disc > 0.0, disc, 0.0))
    x_hi = (-c2 + r) / 3.0   # rightmost critical point (local min)
    right = _cubic_values(C, x_hi) <= 0.0   # else the root lies left of the local max
    lo = np.where((disc > 0.0) & right, x_hi, -bound)
    hi = np.where((disc > 0.0) & ~right, (-c2 - r) / 3.0, bound)
    mid, value, steps = np.empty_like(lo), np.empty_like(lo), 0
    while (block := _unmasked_steps(lo, hi)) > 0:
        for _ in range(block):
            np.add(lo, hi, out=mid)
            mid *= 0.5
            np.add(mid, c2, out=value)
            value *= mid
            value += c1
            value *= mid
            value += c0
            up = value >= 0.0
            hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
        steps += block
    live = np.ones(len(lo), dtype=bool)
    for _ in range(200 - steps):
        mid = 0.5 * (lo + hi)
        live &= (mid != lo) & (mid != hi)
        if not live.any():
            break
        up = _cubic_values(C, mid) >= 0.0
        hi = np.where(live & up, mid, hi)
        lo = np.where(live & ~up, mid, lo)
        live &= hi - lo > 1e-13 * np.maximum(1.0, np.abs(hi))
    pad = BRACKET_WIDENING * np.maximum(1.0, np.abs(hi))
    return (np.where(_cubic_values(C, hi) == 0.0, hi, 0.5 * (lo + hi)),
            _enclosure_widths(C, lo - pad, hi + pad))


def largest_real_root(c: Cubic) -> float:
    """Largest real root of one monic cubic: the first lane of the bulk pass.  An integral
    Fraction goes in as its int; any other, or an int past int64, is refused."""
    row = [x.numerator if x.denominator == 1 else x for x in (c.c2, c.c1, c.c0)]
    return float(largest_real_roots([row])[0][0])


# ---------------------------------------------------------------------------
# per-graph spectral summary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralReport:
    n: int
    e: int
    min_degree: int
    connected: bool
    adjacency_radius: float
    q_radius: float
    distance_radius: float | None
    wiener: int | None


def spectral_report(g: Graph) -> SpectralReport:
    """Numeric spectral summary; distance data is None when disconnected.  One
    unpack of the bit rows gives A, whose stack_stats give e, delta and
    connectivity, and A, Q and D go to one eigensolver call."""
    A = adjacency_matrices([g])
    [e], [delta], [connected] = stack_stats(A)
    if not g.n:
        return SpectralReport(0, e, delta, connected, 0.0, 0.0, None, None)
    D = distance_matrices(A) if connected else A[:0]   # no D: an empty stack
    radii = largest_eigenvalues(np.concatenate([A, signless_laplacians(A), D])).tolist()
    mu, wien = (radii[2], int(D.sum()) // 2) if connected else (None, None)
    return SpectralReport(g.n, e, delta, connected, radii[0], radii[1], mu, wien)
