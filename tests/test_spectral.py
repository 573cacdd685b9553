import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fracext import (Cubic, ExtremalParams, Graph, QuotientMatrix, charpoly3, closed_form,
                     complete, cycle, disjoint_union, empty_graph, extremal_graph,
                     largest_eigenvalue, largest_real_root, path, quotient, spectral_report)
from fracext import spectral, theorems
from fracext.corpus import connected_stack
from fracext.spectral import (DYADIC_BITS, _f_pi_1, _f_pi_prime_1, _phi_b1,
                              adjacency_matrices, distance_matrices, family_coefficients,
                              family_cubic, largest_eigenvalues, largest_real_roots,
                              positional_blocks, radius_bounds, signless_laplacians, stack_stats)
import family_enclosure
from family_enclosure import (_block_vectors, block_test_vectors, family_block_values,
                              family_distance_matrix, family_q_matrix, family_quotients,
                              family_radius_bounds)
from helpers import (adjacency_matrix, connected_graphs, distance_matrices_by_frontier,
                     distance_matrix_array, floyd_warshall, graph_stats, grid_groups,
                     is_connected, positional_blocks_prime, random_connected_graph,
                     random_graph, signless_laplacian)
from root_oracle import largest_real_root_reference


def test_matrix_builders():
    g = path(4)
    A = adjacency_matrix(g)
    Q = signless_laplacian(g)
    assert (A == A.T).all() and A.trace() == 0
    assert (Q == A + np.diag(A.sum(axis=1))).all()
    D = distance_matrix_array(g)
    assert D[0, 3] == 3 and D[2, 1] == 1


def test_distance_matrix_array_vs_floyd_warshall():
    # hand-computed Wiener indices, then seeded random graphs up to order
    # 128, where bitmask rows pass 64 bits
    hand = ((path(4), 10), (cycle(5), 15), (complete(6), 15))
    rng = random.Random(17)
    randoms = [random_connected_graph(rng, 4, 40) for _ in range(20)]
    randoms += [random_connected_graph(rng, 63, 128, 0.01, 0.08) for _ in range(12)]
    randoms += [path(128), cycle(127)]
    assert sum(g.n > 64 for g in randoms) >= 8
    for g, wiener in hand:
        D = distance_matrix_array(g)
        assert D.dtype == np.uint8 and int(D.sum()) // 2 == wiener
    for g in [g for g, _ in hand] + randoms:
        assert distance_matrix_array(g).tolist() == floyd_warshall(g), g
    broken = disjoint_union(complete(2), complete(2))
    assert math.inf in floyd_warshall(broken)[0]
    with pytest.raises(ValueError):
        distance_matrix_array(broken)


def test_adjacency_matrix_at_byte_widths():
    # orders on both sides of each byte and 64-bit boundary of the bit rows
    rng = random.Random(23)
    for n in (0, 1, 7, 8, 9, 63, 64, 65, 127, 128):
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        A = adjacency_matrix(g)
        assert A.dtype == np.uint8 and A.shape == (n, n)
        assert A.tolist() == [[int(g.has_edge(u, v)) for v in range(n)] for u in range(n)], n


def test_distance_matrix_array_small_and_disconnected_edges():
    D0 = distance_matrix_array(empty_graph(0))
    assert D0.shape == (0, 0) and D0.dtype == np.uint8
    assert distance_matrix_array(empty_graph(1)).tolist() == [[0]]
    # order 128 with vertex 127 isolated: the last bit of the widest row
    lone = Graph.from_edges(128, [(v, v + 1) for v in range(126)])
    with pytest.raises(ValueError):
        distance_matrix_array(lone)


def test_stacked_builders_match_the_stack_of_one():
    rng = random.Random(29)
    for n in (1, 7, 8, 9, 64, 65, 128):
        graphs = [random_graph(rng, n, p) for p in (0.1, 0.5, 0.9)]
        A = adjacency_matrices(graphs)
        before = A.copy()
        Q = signless_laplacians(A)
        assert (A == before).all(), "signless_laplacians wrote into A"
        assert A.dtype == Q.dtype == np.uint8 and A.shape == (3, n, n)
        for g, a, q in zip(graphs, A, Q):
            assert (a == adjacency_matrix(g)).all() and (q == signless_laplacian(g)).all()
            assert (q == a + np.diag(a.sum(axis=1))).all()
    with pytest.raises(ValueError, match="one order"):
        adjacency_matrices([path(4), path(5)])


def test_distance_matrices_vs_floyd_warshall_on_mixed_diameters():
    # one stack runs to its largest diameter; the graphs that finish early
    # must keep their distances
    rng = random.Random(31)
    small = [path(9), cycle(9), complete(9), Graph.from_edges(9, [(0, i) for i in range(1, 9)]),
             *(random_connected_graph(rng, 9, 9) for _ in range(4))]
    large = [path(128), complete(128), random_connected_graph(rng, 128, 128, 0.02, 0.05)]
    for stack in (small, large):
        A = adjacency_matrices(stack)
        before = A.copy()
        D = distance_matrices(A)
        assert D.dtype == np.uint8 and (A == before).all()
        for g, d in zip(stack, D):
            assert d.tolist() == floyd_warshall(g), g
    assert distance_matrices(adjacency_matrices(large))[0, 0, 127] == 127
    with pytest.raises(ValueError, match="connected"):
        distance_matrices(adjacency_matrices([path(8),
                                              disjoint_union(complete(4), complete(4))]))


def test_distance_matrices_on_sampler_draws_beside_a_long_path():
    # 13 connected draws of the sampler's kind (the order-35 mu family with
    # 1..8 edges cut), all of diameter 2, stacked with P_35: the loop runs
    # to level 34 while the draws are all reached after one product
    rng = random.Random(37)
    src = extremal_graph(ExtremalParams(35, 1, 3))
    family, edges = adjacency_matrices([src]), src.edges()
    draws = []
    while len(draws) < 13:
        A = family.copy()
        for u, v in rng.sample(edges, rng.randint(1, theorems.MAX_DELETIONS)):
            A[0, u, v] = A[0, v, u] = 0
        if stack_stats(A)[2][0]:
            draws.append(A)
    A = np.concatenate([*draws, adjacency_matrices([path(35)])])
    D = distance_matrices(A)
    assert D.dtype == np.uint8 and D[:13].max() == 2 and D[13].max() == 34
    for a, d in zip(A, D):
        [g] = spectral.stack_graphs(a[None])
        assert d.tolist() == floyd_warshall(g)
    # one disconnected graph among them: an isolated vertex in the last draw
    broken = A.copy()
    broken[12, 0, :] = broken[12, :, 0] = 0
    with pytest.raises(ValueError, match="connected"):
        distance_matrices(broken)


def test_distance_matrices_equal_the_frontier_bfs_on_every_connected_graph():
    # every connected graph of orders 1-8, each order as one stack
    for n in range(1, 9):
        A = connected_stack(n)
        assert (distance_matrices(A) == distance_matrices_by_frontier(A)).all(), n


@pytest.mark.parametrize("n", [1, 8, 35, 64, 65, 128])
def test_largest_eigenvalues_bitwise_equal_to_each_matrix_alone(n):
    rng = random.Random(n)
    graphs = [random_connected_graph(rng, n, n, 0.05, 0.9) for _ in range(6 if n < 100 else 3)]
    A = adjacency_matrices(graphs)
    for stack in (A, signless_laplacians(A), distance_matrices(A)):
        alone = [np.linalg.eigvalsh(M.astype(float))[-1] for M in stack]
        assert largest_eigenvalues(stack).tolist() == alone
        assert [largest_eigenvalue(M) for M in stack] == alone


def test_largest_eigenvalue_known_values():
    assert largest_eigenvalue(signless_laplacian(complete(5))) == pytest.approx(8, abs=1e-9)
    assert largest_eigenvalue(distance_matrix_array(complete(50))) == pytest.approx(49, abs=1e-8)
    # P3 distance spectrum peaks at 1 + sqrt(3)
    assert largest_eigenvalue(distance_matrix_array(path(3))) == pytest.approx(
        1 + math.sqrt(3), abs=1e-9)
    assert largest_eigenvalue(adjacency_matrix(cycle(4))) == pytest.approx(2, abs=1e-9)
    star = adjacency_matrix(complete(2)) * 0  # 2x2 zero matrix edge case
    assert largest_eigenvalue(star) == pytest.approx(0, abs=1e-12)


def test_largest_eigenvalue_vs_general_solver():
    # LAPACK's general (non-symmetric) driver is a different algorithm
    rng = np.random.default_rng(5)
    matrices = []
    for _ in range(25):
        n = int(rng.integers(2, 40))
        M = rng.integers(0, 3, size=(n, n))
        M = np.triu(M, 1)
        matrices.append(M + M.T + np.diag(rng.integers(0, 5, size=n)))
    # bipartite spectra are symmetric about 0: +lambda and -lambda both occur
    for n in (2, 3, 4, 7, 8, 9, 16, 17):
        matrices.append(adjacency_matrix(path(n)))
    for n in (4, 6, 8, 12, 20):
        matrices.append(adjacency_matrix(cycle(n)))
    for M in matrices:
        want = float(max(np.linalg.eigvals(M.astype(float)).real))
        got = largest_eigenvalue(M)
        assert got == pytest.approx(want, abs=1e-8 * max(1, abs(want)))


def test_largest_eigenvalue_rejects_bad_shapes():
    with pytest.raises(ValueError, match="symmetric"):
        largest_eigenvalue(np.array([[0, 1], [2, 0]]))
    with pytest.raises(ValueError, match="square"):
        largest_eigenvalue(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        largest_eigenvalue(np.ones((1, 2, 2)))
    with pytest.raises(ValueError, match="symmetric"):
        largest_eigenvalues(np.array([np.eye(2), [[0, 1], [2, 0]]]))
    with pytest.raises(ValueError, match="square"):
        largest_eigenvalues(np.eye(3))


def _radius_bounds_in_fractions(M, steps):
    """radius_bounds of one integer matrix, in Python ints and Fractions."""
    rows = M.tolist()

    def times(v):
        return [sum(a * b for a, b in zip(row, v)) for row in rows]

    x = [1] * len(rows)
    for _ in range(steps):
        x = times(x)
    y = times(x)
    scale = 1 << DYADIC_BITS
    lower = math.floor(Fraction(sum(a * b for a, b in zip(x, y)), sum(a * a for a in x)) * scale)
    return lower, max(math.ceil(Fraction(b, a) * scale) for a, b in zip(x, y))


def test_radius_bounds_hold_the_largest_eigenvalue_of_every_small_graph():
    scale, exact = 2.0 ** -DYADIC_BITS, 0
    for n in range(2, 9):
        A = adjacency_matrices(connected_graphs(n))
        for M in (signless_laplacians(A), distance_matrices(A)):
            eig = largest_eigenvalues(M)
            slack = 1e-12 * eig
            for steps in (1, 2):
                lower, upper = radius_bounds(M, steps)
                assert (lower <= upper).all()
                assert (lower * scale <= eig + slack).all() and (eig - slack <= upper * scale).all()
                if n <= 6:   # and equal to exact arithmetic, graph by graph
                    assert list(zip(lower.tolist(), upper.tolist())) == \
                        [_radius_bounds_in_fractions(m, steps) for m in M]
                    exact += len(M)
    assert exact == 2 * 2 * (1 + 2 + 6 + 21 + 112)


@pytest.mark.parametrize("build, g, steps", [
    (distance_matrices, path(128), 1),
    (signless_laplacians, complete(128), 2),
    (distance_matrices, extremal_graph(ExtremalParams(128, 3, 7)), 1),
], ids=["D_P128", "Q_K128", "D_family_128_3_7"])
def test_radius_bounds_at_order_128_equal_exact_arithmetic(build, g, steps):
    # the largest row sums the int64 lanes must carry: no product or sum may wrap
    M = build(adjacency_matrices([g]))
    lower, upper = radius_bounds(M, steps)
    assert (lower.tolist()[0], upper.tolist()[0]) == _radius_bounds_in_fractions(M[0], steps)
    eig = largest_eigenvalues(M)[0] * 2 ** DYADIC_BITS
    assert lower[0] <= eig * (1 + 1e-12) and eig * (1 - 1e-12) <= upper[0]


def test_narrow_stacks_stay_exact():
    # uint8 holds every degree and distance up to order 128; radius_bounds
    # casts to int64 before any sum or product, so a uint8 stack and its
    # int64 copy give the same bounds, K_128's Q at t = 2 (the overflow
    # guard's edge) and P_128's D among them, and the Wiener index of P_128
    # is summed wide
    rng = random.Random(41)
    K, P = adjacency_matrices([complete(128)]), adjacency_matrices([path(128)])
    Q, D = signless_laplacians(K), distance_matrices(P)
    assert Q.dtype == D.dtype == np.uint8
    assert (Q[0].diagonal() == 127).all() and D.max() == D[0, 0, 127] == 127
    assert spectral_report(path(128)).wiener == 349504
    A = adjacency_matrices([random_connected_graph(rng, 35, 35) for _ in range(6)])
    for M, steps in ((Q, 2), (D, 1), (signless_laplacians(A), 2), (distance_matrices(A), 1)):
        lower, upper = radius_bounds(M, steps)
        wide = radius_bounds(M.astype(np.int64), steps)
        assert lower.dtype == upper.dtype == np.int64
        assert lower.tolist() == wide[0].tolist() and upper.tolist() == wide[1].tolist()


def test_radius_bounds_refuse_a_zero_row_and_a_stack_that_would_wrap():
    with pytest.raises(ValueError, match="positive entry"):
        radius_bounds(signless_laplacians(adjacency_matrices([empty_graph(3)])), 1)
    with pytest.raises(ValueError, match="overflow"):   # K_128's Q at t = 3
        radius_bounds(signless_laplacians(adjacency_matrices([complete(128)])), 3)


def test_quotient_exact_and_equitable():
    p = ExtremalParams(n=11, k=1, s=2)
    q = quotient(signless_laplacian(extremal_graph(p)), positional_blocks(p))
    assert q.equitable and q.size == 3
    assert q.entries[0][0] == Fraction(11)  # degree 10 clique pair plus one internal edge
    # an arbitrary unbalanced partition is flagged, not rejected
    bad = quotient(signless_laplacian(path(4)), (range(0, 2), range(2, 3), range(3, 4)))
    assert not bad.equitable
    with pytest.raises(ValueError):
        quotient(signless_laplacian(path(4)), (range(0, 2), range(2, 4), range(0, 1)))


def test_quotient_largest_root_matches_matrix():
    p = ExtremalParams(n=13, k=2, s=4)
    g = extremal_graph(p)
    c = charpoly3(quotient(signless_laplacian(g), positional_blocks(p)))
    root = largest_real_root(c)
    eig = largest_eigenvalue(signless_laplacian(g))
    assert root == pytest.approx(eig, abs=1e-8)


def test_cubic_evaluation():
    c = Cubic(Fraction(-6), Fraction(11), Fraction(-6))  # (x-1)(x-2)(x-3)
    assert c.coefficients() == (1, -6, 11, -6)
    assert largest_real_root(c) == pytest.approx(3.0, abs=1e-12)


EDGE_CUBICS = (
    (Cubic(Fraction(2), Fraction(-13), Fraction(10)), 2.0, 1e-12),   # (x-2)(x-1)(x+5)
    (Cubic(Fraction(0), Fraction(0), Fraction(0)), 0.0, 0.0),
    # (x+1)^3: a triple root caps sign-based solvers at cbrt(eps) ~ 5e-6
    (Cubic(Fraction(3), Fraction(3), Fraction(1)), -1.0, 1e-4),
    # single real root among a complex pair: x^3 - x^2 + x - 1 = (x-1)(x^2+1)
    (Cubic(Fraction(-1), Fraction(1), Fraction(-1)), 1.0, 1e-12),
)


def test_largest_real_root_edge_cases():
    for cubic, root, tol in EDGE_CUBICS:
        assert largest_real_root(cubic) == pytest.approx(root, abs=tol)
    assert largest_real_root(EDGE_CUBICS[1][0]) == 0.0


def _rows(cubics):
    """The (m, 3) int64 coefficient rows of cubics with integer coefficients."""
    return np.array([[c.c2, c.c1, c.c0] for c in cubics], dtype=np.int64).reshape(-1, 3)


def _grid_coefficients():
    """The coefficient rows of every member of the criteria 6 and 7 grids,
    right-hand sides included, one family_coefficients call per grid."""
    grids = []
    for lemma, bounds in (("q1q2", dict(k_max=3, n_max=40, delta_max=None)),
                          ("q1q3", dict(k_max=2, n_max=90, delta_max=7)),
                          ("mu_compare", dict(k_max=2, n_max=90, delta_max=7))):
        quantity = "mu" if lemma == "mu_compare" else "q"
        grids.append(family_coefficients(quantity, [
            (n, k, s) for k, _, n, members, _ in grid_groups(lemma, **bounds) for s in members]))
    return np.concatenate(grids)


def test_largest_real_roots_bitwise_equal_the_scalar_reference():
    C = np.concatenate([_rows(c for c, _, _ in EDGE_CUBICS), _grid_coefficients()])
    # 1001 + 11777 + 7222 grid points and the right-hand member of each of
    # the 672 delta-lemma groups; q1q2's right-hand member is one of its points
    assert C.shape == (4 + 20_000 + 672, 3)
    got, widths = largest_real_roots(C)
    assert got.dtype == widths.dtype == np.float64
    assert got.shape == widths.shape == (len(C),)
    want = [largest_real_root_reference(Cubic(*row)) for row in C.tolist()]
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
    head = largest_real_roots(C[:2])   # each lane is computed on its own
    assert head[0].tolist() == want[:2] and head[1].tolist() == widths[:2].tolist()
    assert all(a.shape == (0,) for a in largest_real_roots(np.zeros((0, 3), dtype=np.int64)))


def test_largest_real_roots_unmasked_stretch_keeps_the_scalar_steps():
    """A seeded sample of the whole-range grids, with extreme lanes in the
    same call: every root bitwise the scalar reference's, every lane equal
    to its single-lane call."""
    grids = [family_coefficients("mu" if lemma == "mu_compare" else "q", [
        (n, k, s) for k, _, n, members, _ in grid_groups(lemma, **bounds) for s in members])
        for lemma, bounds in (("q1q2", dict(k_max=61, n_max=128)),
                              ("q1q3", dict(k_max=9, n_max=128, delta_max=19)),
                              ("mu_compare", dict(k_max=5, n_max=128, delta_max=11)))]
    whole = np.concatenate(grids)
    assert [len(C) for C in grids] == [86_803, 138_310, 39_360]
    big = 1 - 2 ** 53
    # the largest c0; the zero cubic; a triple root; and the tightest first
    # bracket an integer cubic can have, a third of its Cauchy bound wide, at
    # the largest magnitude: it sets the first block's length
    extreme = np.array([[0, 0, big], [0, 0, 0], [3, 3, 1], [big, big, 0]], dtype=np.int64)
    C = np.concatenate([extreme, whole[sorted(random.Random(3803).sample(range(len(whole)), 3000))]])
    roots, widths = largest_real_roots(C)
    want = [largest_real_root_reference(Cubic(*row)) for row in C.tolist()]
    assert [x.hex() for x in roots.tolist()] == [x.hex() for x in want]
    single = [largest_real_roots(C[i:i + 1]) for i in range(len(C))]
    assert [x.hex() for x in roots.tolist()] == [r[0].item().hex() for r, _ in single]
    assert [x.hex() for x in widths.tolist()] == [w[0].item().hex() for _, w in single]
    assert roots[1] == 0.0 and abs(roots[2] + 1.0) < 1e-4 and (widths[4:] < 1e-10).all()


def test_unmasked_steps_leave_every_stop_to_the_masked_loop():
    # no integer cubic's first bracket is narrower than about a third of its Cauchy
    # bound, so a bracket at or below the block threshold is built here:
    # T = 1e-13 max(1, |lo|, |hi|), and a block needs hi - lo >= 8T
    lo = np.array([0.5, -3.0, 1e6])
    T = 1e-13 * np.maximum(1.0, np.abs(lo))
    for ratio, steps in ((0.0, 0), (4.0, 0), (7.99, 0), (8.01, 1), (15.99, 1), (16.01, 2),
                          (1.5 * 2.0 ** 40, 38)):
        assert spectral._unmasked_steps(lo, lo + ratio * T) == steps
    assert spectral._unmasked_steps(np.array([1.0, 0.0]), np.array([1.0, 2.0])) == 0
    assert spectral._unmasked_steps(np.zeros(0), np.zeros(0)) == 0


def test_largest_real_roots_take_an_m_by_3_array():
    for C in (np.zeros((2, 4), dtype=np.int64), np.zeros((2, 2), dtype=np.int64),
              np.zeros(3, dtype=np.int64), np.zeros((1, 1, 3), dtype=np.int64), []):
        with pytest.raises(ValueError, match="\\(m, 3\\) array"):
            largest_real_roots(C)
    # a fourth column used to widen the Cauchy bound of the three real ones
    with pytest.raises(ValueError, match="\\(m, 3\\) array"):
        largest_real_roots(np.array([[-6, 11, -6, 10 ** 6]]))
    roots, widths = largest_real_roots(np.zeros((0, 3), dtype=np.int64))
    assert roots.shape == widths.shape == (0,)


def test_every_grid_bracket_is_certified_in_floats(monkeypatch):
    """Every member of the criteria 6 and 7 grids gets a certified bracket
    from the Horner error bounds alone, far inside the 1e-8 gate."""
    exact = []
    monkeypatch.setattr(spectral, "_certified_exactly", lambda *a: exact.append(a))
    roots, widths = largest_real_roots(_grid_coefficients())
    assert exact == [] and len(widths) == 20_672
    assert (widths > 0).all() and widths.max() < 1e-10


def _exact_value(c, x):
    x = Fraction(x)
    return ((x + c.c2) * x + c.c1) * x + c.c0


def _with_roots(a, b, c):
    return Cubic(Fraction(-(a + b + c)), Fraction(a * b + a * c + b * c), Fraction(-a * b * c))


def test_certified_brackets_hold_the_largest_root():
    """Distinct integer roots a > b > c up to 10^5 in magnitude: a finite
    width bounds |root - a|, and nearly every bracket is certified."""
    rng = random.Random(41)
    refused = 0
    for _ in range(600):
        a, b, c = sorted(rng.sample(range(-10**5, 10**5), 3), reverse=True)
        [root], [width] = largest_real_roots(_rows([_with_roots(a, b, c)]))
        if math.isfinite(width):
            assert abs(root - a) <= width
        refused += width == math.inf
    assert refused <= 3
    # close roots far from 0 make float signs unreliable: the bisection ends
    # 1.8e-9 from the root, well outside its bracket, and no width is claimed
    [root], [width] = largest_real_roots(_rows([_with_roots(-833, -834, -851)]))
    assert abs(root + 833) > 1e-9 and width == math.inf
    # random cubics, with one or three real roots: a finite width is a true bound
    for _ in range(300):
        c2, c1, c0 = (rng.randint(-10**4, 10**4) for _ in range(3))
        cubic = Cubic(Fraction(c2), Fraction(c1), Fraction(c0))
        [root], [width] = largest_real_roots(_rows([cubic]))
        if math.isfinite(width):
            assert _exact_value(cubic, root - width) < 0 < _exact_value(cubic, root + width)


def test_a_bracket_the_floats_reject_is_certified_exactly(monkeypatch):
    # without widening, the bisection's own bracket around q_1's threshold
    # at k = 1, order 8 is too tight for the Horner bounds, and holds exactly
    C = family_coefficients("q", [(8, 1, 2)])
    widened, [width] = largest_real_roots(C)
    calls = []
    real = spectral._certified_exactly
    monkeypatch.setattr(spectral, "_certified_exactly",
                        lambda *a: calls.append(real(*a)) or calls[-1])
    monkeypatch.setattr(spectral, "BRACKET_WIDENING", 0.0)
    roots, [tight] = largest_real_roots(C)
    assert calls == [True]
    assert roots.tolist() == widened.tolist() and 0 < tight < width < 1e-11


def test_a_bracket_neither_certificate_proves_gets_inf():
    # a double largest root: f keeps its sign across it, so no bracket is proved
    double = Cubic(Fraction(-41), Fraction(440), Fraction(-400))   # (x-20)^2 (x-1)
    [root], [width] = largest_real_roots(_rows([double]))
    assert root == pytest.approx(20.0, abs=1e-6) and width == math.inf
    # a lone real root left of the local maximum, where f'' < 0
    lone = Cubic(Fraction(3), Fraction(-8), Fraction(10))   # (x+5)(x^2-2x+2)
    [root], [width] = largest_real_roots(_rows([lone]))
    assert root == pytest.approx(-5.0, abs=1e-12) and width == math.inf


def test_a_zero_at_the_upper_end_is_the_root_and_is_certified():
    # (x-6)(x+2)(x+4): the bisection lands on 6, and p(hi) == 0 returns it
    cubic = Cubic(Fraction(0), Fraction(-28), Fraction(-48))
    assert largest_real_root_reference(cubic) == 6.0
    [root], [width] = largest_real_roots(_rows([cubic]))
    assert root == 6.0 and 0 < width < 1e-11
    # K_{2k+1}, the family at s = 2k and order 2k+1, has roots 4k, 2k and
    # 2k-1; its bracket holds 4k, though the bisection stops short of it
    for k in range(1, 8):
        [root], [width] = largest_real_roots(family_coefficients("q", [(2 * k + 1, k, 2 * k)]))
        assert abs(root - 4 * k) <= width < 1e-10


def test_largest_real_roots_take_integer_coefficients_below_2_53():
    for cubic in (Cubic(Fraction(1, 2), Fraction(0), Fraction(0)),
                  Cubic(Fraction(0), Fraction(2 ** 53), Fraction(0)),
                  Cubic(Fraction(0), Fraction(0), Fraction(-2 ** 64))):
        with pytest.raises(ValueError, match="integers below 2\\^53"):
            largest_real_root(cubic)
    assert largest_real_root(Cubic(Fraction(0), Fraction(0), Fraction(1 - 2 ** 53))) > 0
    assert largest_real_root(Cubic(0, 0, 1 - 2 ** 53)) > 0
    # the array entry takes integer arrays only, each entry below 2^53
    for C in (np.array([[0.5, 0.0, 0.0]]), np.array([[0, 1 << 53, 0]]),
              np.array([[0, 0, -(1 << 63)]])):
        with pytest.raises(ValueError, match="integers below 2\\^53"):
            largest_real_roots(C)


def test_family_coefficients_raise_rather_than_wrap():
    # this q member's c0 is about -2^64: past int64, refused before any int64 work
    n, k, s = 1 << 22, 1, 1 << 21
    assert abs(_f_pi_1(n, k, s)[2]) > 1 << 63
    with pytest.raises(ValueError, match="n < 2\\^18"):
        family_coefficients("q", [(n, k, s)])
    # this one's c0 lies between 2^53 and 2^63: the int64 rows hold it exactly,
    # and the root pass refuses it
    member = (262_143, 64_808, 130_607)
    [row] = family_coefficients("q", [member]).tolist()
    assert row == list(_f_pi_1(*member)) and 1 << 53 < abs(row[2]) < 1 << 63
    with pytest.raises(ValueError, match="integers below 2\\^53"):
        largest_real_roots(family_coefficients("q", [member]))
    # invalid members, and entries that would wrap int64's doubling, are refused
    for bad in ((10, 0, 2), (10, 1, 1), (8, 1, 5), (1 << 18, 1, 2), (10, 1 << 62, 3),
                (10, 1, 1 << 62)):
        with pytest.raises(ValueError, match="family members need"):
            family_coefficients("mu", [bad])


def test_largest_real_root_vs_numpy():
    rng = random.Random(31)
    for _ in range(60):
        c2, c1, c0 = (rng.randint(-30, 30) for _ in range(3))
        cubic = Cubic(Fraction(c2), Fraction(c1), Fraction(c0))
        roots = np.roots([1, c2, c1, c0])
        want = max(r.real for r in roots if abs(r.imag) < 1e-9)
        assert largest_real_root(cubic) == pytest.approx(want, abs=1e-7)


def test_frozen_dense_family_cubic():
    c = closed_form("f2", n=11, k=1)
    assert c.coefficients() == (1, -29, 212, -288)
    root = largest_real_root(c)
    assert root == pytest.approx(10 + 2 * math.sqrt(17), abs=1e-10)
    g2 = extremal_graph(ExtremalParams(n=11, k=1, s=2))
    assert root == pytest.approx(largest_eigenvalue(signless_laplacian(g2)), abs=1e-8)


def test_closed_form_guards():
    with pytest.raises(ValueError):
        closed_form("f2", n=3, k=1)
    with pytest.raises(ValueError):
        closed_form("f_pi_1", n=5, k=1, s=3)       # below the interior order
    with pytest.raises(ValueError):
        closed_form("f_pi_prime_1", k=1, s=2)      # needs s >= 2k+1
    with pytest.raises(ValueError):
        closed_form("f3_q", n=12, k=1, delta=2)    # delta >= 2k+1
    with pytest.raises(ValueError):
        closed_form("phi_B3_case2", k=1, s=3, delta=3)  # needs s > delta
    with pytest.raises(ValueError):
        closed_form("no_such_family", k=1)
    # parameters the family does not take are named, not ignored
    with pytest.raises(ValueError, match="f2 takes no s"):
        closed_form("f2", n=11, k=1, s=5)
    with pytest.raises(ValueError, match="f_pi_prime_1 takes no n"):
        closed_form("f_pi_prime_1", n=7, k=1, s=3)
    with pytest.raises(ValueError, match="phi_B3_case2 takes no n"):
        closed_form("phi_B3_case2", n=9, k=1, s=4, delta=3)


# Each closed form's region and cubic as the paper states them: family:
# (parameters besides k, quantity, member (n, k, s), builder call, region), each
# a function of (n, k, s, delta), and every region also needs k >= 1
_PAPER_FORMS = {
    "f2": (("n",), "q", lambda n, k, s, d: (n, k, 2 * k),
           lambda n, k, s, d: _f_pi_1(n, k, 2 * k), lambda n, k, s, d: n >= 2 * k + 2),
    "f_pi_1": (("n", "s"), "q", lambda n, k, s, d: (n, k, s), lambda n, k, s, d: _f_pi_1(n, k, s),
               lambda n, k, s, d: s >= 2 * k and n >= 2 * s - 2 * k + 2),
    "f_pi_prime_1": (("s",), "q", lambda n, k, s, d: (2 * s - 2 * k + 1, k, s),
                     lambda n, k, s, d: _f_pi_prime_1(k, s), lambda n, k, s, d: s >= 2 * k + 1),
    "f3_q": (("n", "delta"), "q", lambda n, k, s, d: (n, k, d), lambda n, k, s, d: _f_pi_1(n, k, d),
             lambda n, k, s, d: d >= 2 * k + 1 and n >= 2 * d - 2 * k + 2),
    "phi_B1": (("n", "s"), "mu", lambda n, k, s, d: (n, k, s), lambda n, k, s, d: _phi_b1(n, k, s),
               lambda n, k, s, d: s >= 2 * k and n >= 2 * s - 2 * k + 1),
    "phi_B3_case1": (("n", "delta"), "mu", lambda n, k, s, d: (n, k, d),
                     lambda n, k, s, d: _phi_b1(n, k, d),
                     lambda n, k, s, d: d >= 2 * k + 1 and n >= 2 * d - 2 * k + 2),
    "phi_B3_case2": (("s", "delta"), "mu", lambda n, k, s, d: (2 * s - 2 * k + 1, k, d),
                     lambda n, k, s, d: _phi_b1(2 * s - 2 * k + 1, k, d),
                     lambda n, k, s, d: d >= 2 * k + 1 and s >= d + 1),
}


def test_closed_form_is_defined_exactly_on_the_paper_regions():
    """Over n, s, delta in {None, 0..7, 9, 12, 20, 41} and k in 0..3,
    closed_form succeeds exactly where its family takes the parameters given
    and they lie in its region, and there it is the builder's cubic and the
    family_cubic of the member; a parameter the family does not take is named."""
    assert tuple(_PAPER_FORMS) == spectral.FAMILIES
    values = [None, *range(8), 9, 12, 20, 41]
    inside = 0
    for family, (takes, quantity, member, builder, region) in _PAPER_FORMS.items():
        for k in range(4):
            for n in values:
                for s in values:
                    for delta in values:
                        given = {"n": n, "s": s, "delta": delta}
                        ok = (all((given[name] is None) != (name in takes) for name in given)
                              and k >= 1 and region(n, k, s, delta))
                        if not ok:
                            with pytest.raises(ValueError):
                                closed_form(family, n=n, k=k, s=s, delta=delta)
                            continue
                        inside += 1
                        cubic = closed_form(family, n=n, k=k, s=s, delta=delta)
                        assert cubic == Cubic(*builder(n, k, s, delta))
                        assert cubic == family_cubic(quantity, *member(n, k, s, delta))
                        assert all(type(c) is int for c in (cubic.c2, cubic.c1, cubic.c0))
        # every parameter the family does not take is named, at a point inside
        point = {"n": 41, "s": 5, "delta": 5}
        for extra in set(point) - set(takes):
            with pytest.raises(ValueError, match=f"^{family} takes no {extra}$"):
                closed_form(family, k=1, **{name: point[name] for name in (*takes, extra)})
    assert inside == 327


def test_each_family_matches_one_constructed_quotient():
    """Spot instances of every closed form against an explicit matrix."""
    def q_cubic(p):
        return charpoly3(quotient(signless_laplacian(extremal_graph(p)),
                                  positional_blocks(p)))

    def d_cubic(p):
        return charpoly3(quotient(distance_matrix_array(extremal_graph(p)),
                                  positional_blocks(p)))

    assert closed_form("f2", n=12, k=2) == q_cubic(ExtremalParams(12, 2, 4))
    assert closed_form("f_pi_1", n=11, k=1, s=3) == q_cubic(ExtremalParams(11, 1, 3))
    assert closed_form("f3_q", n=12, k=1, delta=3) == q_cubic(ExtremalParams(12, 1, 3))
    assert closed_form("phi_B1", n=11, k=1, s=3) == d_cubic(ExtremalParams(11, 1, 3))
    assert closed_form("phi_B3_case1", n=12, k=1, delta=3) == d_cubic(ExtremalParams(12, 1, 3))

    p = ExtremalParams(5, 1, 3)  # boundary order, no inner clique
    prime = charpoly3(quotient(signless_laplacian(extremal_graph(p)),
                               positional_blocks_prime(p)))
    assert closed_form("f_pi_prime_1", k=1, s=3) == prime

    # case 2 sits at the boundary order with the clique size above delta
    pb = ExtremalParams(7, 1, 3)
    case2 = charpoly3(quotient(distance_matrix_array(extremal_graph(pb)),
                               positional_blocks(pb)))
    assert closed_form("phi_B3_case2", k=1, s=4, delta=3) == case2


def test_grid_right_hand_cubics_are_family_cubics():
    """f2, f3_q and phi_B3_case1 are f_pi_1 at s = 2k, f_pi_1 at s = delta
    and phi_B1 at s = delta, so the grids check each once."""
    points = 0
    for k in range(1, 6):
        for n in range(2 * k + 2, 140):
            assert closed_form("f2", n=n, k=k) == closed_form("f_pi_1", n=n, k=k, s=2 * k)
            points += 1
        for delta in range(2 * k + 1, 12):
            for n in range(2 * delta - 2 * k + 2, 140):
                assert (closed_form("f3_q", n=n, k=k, delta=delta)
                        == closed_form("f_pi_1", n=n, k=k, s=delta))
                assert (closed_form("phi_B3_case1", n=n, k=k, delta=delta)
                        == closed_form("phi_B1", n=n, k=k, s=delta))
                points += 2
    assert points == 6960


def _family_stacks():
    """(n, k, s values) of every valid member with k <= 3, s <= 2k+5 and
    n <= 2s-2k+5, grouped by (n, k), then three members each at orders 90 and 128."""
    by_order = {}
    for k in range(1, 4):
        for s in range(2 * k, 2 * k + 6):
            for n in range(2 * s - 2 * k + 1, 2 * s - 2 * k + 6):
                by_order.setdefault((n, k), []).append(s)
    for n in (90, 128):
        for k in range(1, 4):
            by_order[n, k] = [2 * k, 2 * k + 5, (n + 2 * k - 1) // 2]
    return [(n, k, ss) for (n, k), ss in by_order.items()]


def test_family_matrices_match_graph_construction():
    members = 0
    for n, k, ss in _family_stacks():
        A = adjacency_matrices([extremal_graph(ExtremalParams(n, k, s)) for s in ss])
        Q, D = family_q_matrix(n, k, ss), family_distance_matrix(n, k, ss)
        assert Q.dtype == D.dtype == np.float64 and Q.shape == D.shape == (len(ss), n, n)
        assert (Q == signless_laplacians(A)).all() and (D == distance_matrices(A)).all()
        members += len(ss)
    assert members == 90 + 18
    # one member is the stack of one, no member an empty stack; an invalid member is rejected
    assert family_q_matrix(11, 1, []).shape == family_distance_matrix(11, 1, []).shape == (0, 11, 11)
    assert (family_q_matrix(11, 1, [2])[0] == signless_laplacian(
        extremal_graph(ExtremalParams(11, 1, 2)))).all()
    for build in (family_q_matrix, family_distance_matrix):
        with pytest.raises(ValueError):
            build(8, 1, [2, 5])


def test_family_quotients_equal_the_quotients_read_off_the_matrices():
    # k <= 4: boundary orders (an empty inner block, whose row and column are
    # zero), K_{2k+1} at s = 2k, and orders 90 and 128
    stacks = _family_stacks() + [(9, 4, [8]), (11, 4, [9]), (20, 4, [8, 9, 10, 11]),
                                 (90, 4, [8, 13, 48]), (128, 4, [8, 13, 67])]
    members = 0
    for n, k, ss in stacks:
        for quantity, build in (("q", family_q_matrix), ("mu", family_distance_matrix)):
            B = family_quotients(quantity, [k] * len(ss), [n] * len(ss), ss)
            assert B.dtype == np.float64 and B.shape == (len(ss), 3, 3)
            for M, b, s in zip(build(n, k, ss), B, ss):
                blocks = positional_blocks(ExtremalParams(n, k, s))
                live = [i for i, block in enumerate(blocks) if len(block)]
                q = quotient(M, [blocks[i] for i in live])
                assert q.equitable
                assert [[b[i, j] for j in live] for i in live] == [list(row) for row in q.entries]
                assert all(b[i, j] == 0.0 for i in range(3) for j in range(3)
                           if i not in live or j not in live)
                members += 1
    assert members == 2 * (90 + 18 + 12)
    assert family_quotients("q", [], [], []).shape == (0, 3, 3)


def test_family_radius_bounds_enclose_the_largest_eigenvalue():
    # boundary orders (an empty inner block), K_{2k+1} at s = 2k, and orders 90 and 128
    eps = np.finfo(float).eps
    for n, k, ss in _family_stacks():
        for quantity, build in (("q", family_q_matrix), ("mu", family_distance_matrix)):
            M = build(n, k, ss)
            values = family_block_values(quantity, n, k, ss)
            x = _block_vectors(values, n, k, ss)
            assert (x > 0).all()
            assert x.tobytes() == block_test_vectors(M, k, ss).tobytes()
            for j, s in enumerate(ss):   # constant on each block of the member
                blocks = positional_blocks(ExtremalParams(n, k, s))
                assert all(len(set(x[j, list(b)].tolist())) <= 1 for b in blocks)
            lo, hi = family_radius_bounds(M, k, ss, values)
            eig = largest_eigenvalues(M)
            slack = n * eps * hi
            assert (lo - slack <= eig).all() and (eig <= hi + slack).all()
            assert (hi - lo <= 1e-13 * hi * n).all()
    assert family_radius_bounds(family_q_matrix(11, 1, []), 1, [],
                                family_block_values("q", 11, 1, [])).shape == (2, 0)


def test_family_radius_bounds_hold_for_any_positive_vector(monkeypatch):
    # Collatz-Wielandt holds whatever x > 0 is; a poor x only widens the enclosure
    rng = np.random.default_rng(5)
    M = family_distance_matrix(30, 2, [4, 6, 9])
    eig = largest_eigenvalues(M)
    monkeypatch.setattr(family_enclosure, "_block_vectors",
                        lambda values, n, k, s_values: rng.uniform(0.5, 2.0, (len(s_values), n)))
    lo, hi = family_radius_bounds(M, 2, [4, 6, 9], family_block_values("mu", 30, 2, [4, 6, 9]))
    assert (lo <= eig).all() and (eig <= hi).all() and (hi - lo > 1).all()


def _exact_quotient(quantity, k, n, s, live=(0, 1, 2)):
    """The quotient family_quotients builds for member (n, k, s), over the
    blocks of live, as an exact QuotientMatrix; its entries are polynomials
    of degree 1 in (k, n, s)."""
    [B] = family_quotients(quantity, [k], [n], [s])
    return QuotientMatrix(tuple(tuple(Fraction(int(B[i, j])) for j in live) for i in live), True)


def test_closed_forms_are_the_quotient_charpolys_as_identities():
    """charpoly3 of the exact quotient against _f_pi_1 (q) and _phi_b1 (mu).

    The quotient's entries are linear in (k, n, s), so its characteristic
    coefficients have degree <= 3 in each variable, as do the closed forms.
    Agreement on a 4x4x4 product grid therefore proves each identity for all
    parameters; the grid's inner block is never empty, as in every member
    above the boundary order.  With the quotient taken over an equitable
    partition (test_family_quotients_equal_the_quotients_read_off_the_matrices),
    the closed form's largest root is the member's q or mu at every order
    the grids reach.
    """
    points = 0
    for k in range(1, 5):
        for n in range(40, 44):
            for s in range(9, 13):
                assert n - 2 * s + 2 * k - 1 > 0
                assert _coefficients(charpoly3(_exact_quotient("q", k, n, s))) == _f_pi_1(n, k, s)
                assert _coefficients(charpoly3(_exact_quotient("mu", k, n, s))) == _phi_b1(n, k, s)
                points += 1
    assert points == 64


def _coefficients(cubic):
    """(c2, c1, c0) of a Cubic, to compare with a closed form's tuple."""
    return cubic.c2, cubic.c1, cubic.c0


def _charpoly2(q):
    """(trace, determinant) of a 2x2 quotient: its charpoly is x^2 - tr x + det."""
    (a, b), (c, d) = q.entries
    return a + d, a * d - b * c


def test_boundary_closed_forms_factor_over_the_2x2_quotient():
    """At the boundary order n = 2s-2k+1 the inner block is empty, and the
    quotient over the clique and the independent blocks is 2x2, with charpoly
    p2.  As identities in (k, s), proved on a 4x4 grid (every coefficient
    has degree <= 3 in each variable): _f_pi_prime_1 = (x - s) p2 and
    _phi_b1 at that order = (x + 1) p2.  The extra root lies below p2's
    largest: p2(s) = -ts < 0 for q, and for mu p2(-1) = s(t - 1) >= 0 with
    p2's vertex at (s + 2t - 3)/2 > -1, where t = s-2k+1 >= 1.
    """
    def times(r, tr, det):   # (c2, c1, c0) of (x - r)(x^2 - tr x + det)
        return -tr - r, det + r * tr, -r * det

    points = 0
    for k in range(1, 5):
        for s in range(9, 13):
            n, t = 2 * s - 2 * k + 1, s - 2 * k + 1
            tr, det = _charpoly2(_exact_quotient("q", k, n, s, live=(0, 2)))
            assert _f_pi_prime_1(k, s) == times(Fraction(s), tr, det)
            assert s * s - tr * s + det == -t * s < 0
            tr, det = _charpoly2(_exact_quotient("mu", k, n, s, live=(0, 2)))
            assert _phi_b1(n, k, s) == times(Fraction(-1), tr, det)
            assert 1 + tr + det == s * (t - 1) and tr == s + 2 * t - 3 > -2
            points += 1
    assert points == 16


def test_spectral_report_fields():
    rep = spectral_report(cycle(5))
    assert rep.n == 5 and rep.e == 5 and rep.connected
    assert rep.q_radius == pytest.approx(4.0, abs=1e-9)
    assert rep.distance_radius == pytest.approx(6.0, abs=1e-9)
    assert rep.wiener == 15
    broken = spectral_report(Graph_from_parts())
    assert not broken.connected
    assert broken.distance_radius is None and broken.wiener is None
    empty = spectral_report(empty_graph(0))
    assert (empty.n, empty.e, empty.min_degree, empty.connected) == (0, 0, 0, True)


def Graph_from_parts():
    return disjoint_union(complete(3), complete(2))


def test_spectral_report_makes_one_eigensolver_call(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    family = extremal_graph(ExtremalParams(128, 3, 7))
    # A, Q and D go in one stack; a disconnected graph has no D
    for g, depth in ((cycle(5), 3), (empty_graph(1), 3), (family, 3), (Graph_from_parts(), 2)):
        shapes.clear()
        spectral_report(g)
        assert shapes == [(depth, g.n, g.n)], g
    shapes.clear()
    spectral_report(empty_graph(0))
    assert shapes == []


def _report_one_matrix_at_a_time(g):
    """spectral_report's radii and Wiener index from the stacked builders,
    each run on its own stack of one."""
    if g.n == 0:
        return 0.0, 0.0, None, None
    A = adjacency_matrices([g])
    rho, q = (float(largest_eigenvalues(M)[0]) for M in (A, signless_laplacians(A)))
    if not is_connected(g):
        return rho, q, None, None
    D = distance_matrices(A)
    return rho, q, float(largest_eigenvalues(D)[0]), int(D.sum()) // 2


def test_spectral_report_bitwise_equal_to_the_builders_one_matrix_at_a_time():
    rng = random.Random(37)
    graphs = [empty_graph(1), empty_graph(5), Graph_from_parts(),
              Graph.from_edges(128, [(v, v + 1) for v in range(126)])]
    for n in range(41):
        graphs += [random_graph(rng, n, rng.uniform(0.05, 0.9)) for _ in range(2)]
        if n:
            graphs.append(random_connected_graph(rng, n, n))
    graphs += [extremal_graph(ExtremalParams(n, k, s))
               for n, k, s in ((3, 1, 2), (11, 1, 2), (35, 1, 3), (57, 2, 5),
                               (90, 2, 7), (128, 3, 7), (128, 1, 2))]
    assert sum(not is_connected(g) for g in graphs if g.n) >= 10
    assert {0, 1, 128} <= {g.n for g in graphs}
    for g in graphs:
        rep = spectral_report(g)
        got = (rep.adjacency_radius, rep.q_radius, rep.distance_radius, rep.wiener)
        assert got == _report_one_matrix_at_a_time(g), g
        # the statistics, from stack_stats, against the bit-row reference
        st = graph_stats(g)
        assert (rep.n, rep.e, rep.min_degree, rep.connected) == (st.n, st.e, st.min_degree,
                                                                 st.connected), g
        # order 0 counts as connected but has no distance matrix
        assert rep.connected == (rep.distance_radius is not None) or g.n == 0


def test_f_pi_prime_1_at_s_2k_is_the_cubic_of_k_2k_plus_1():
    # the family at s = 2k and order 2k+1 is K_{2k+1}, whose q is 4k
    for k in range(1, 5):
        a, b, c = 4 * k, 2 * k, 2 * k - 1
        assert _f_pi_prime_1(k, 2 * k) == (-(a + b + c), a * b + a * c + b * c, -a * b * c)


def test_family_cubic_roots_match_every_small_family_member():
    members = 0
    for k in range(1, 4):
        for s in range(2 * k, 2 * k + 6):
            for n in range(2 * s - 2 * k + 1, 2 * s - 2 * k + 6):
                rep = spectral_report(extremal_graph(ExtremalParams(n, k, s)))
                for quantity, eig in (("q", rep.q_radius), ("mu", rep.distance_radius)):
                    root = largest_real_root(family_cubic(quantity, n, k, s))
                    assert root == pytest.approx(eig, abs=1e-8), (quantity, n, k, s)
                members += 1
    assert members == 90
    for n, k, s in ((4, 1, 3), (3, 1, 1), (2, 0, 0)):   # below the boundary order, s < 2k
        with pytest.raises(ValueError):
            family_cubic("q", n, k, s)


def wiener_g3(n: int, k: int, delta: int) -> int:
    """Closed-form Wiener index of the minimum-degree family member."""
    t = delta - 2 * k + 1
    c = n - delta + 2 * k - 1
    return c * (c - 1) // 2 + 2 * (t * (t - 1) // 2) + delta * t + 2 * (n - 2 * delta + 2 * k - 1) * t


def test_wiener_g3_closed_form():
    for n, k, d in ((20, 1, 4), (36, 1, 3), (30, 2, 6)):
        g3 = extremal_graph(ExtremalParams(n, k, d))
        assert wiener_g3(n, k, d) == int(distance_matrix_array(g3).sum()) // 2
