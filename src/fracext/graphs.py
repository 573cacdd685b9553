"""Bitmask graphs, their builders, and the three-block join families.

Vertices are 0..n-1; each adjacency row is an integer bitmask, so the
matching oracles' subset work (neighbourhoods, isolated counts) is plain
integer arithmetic.  Edge counts, minimum degrees and connectivity are read
off adjacency stacks instead (spectral.stack_stats).  Orders are capped at
128: enumeration corpora stay tiny, and sharpness builds join-family graphs
up to that order (the comparison grids build no graph).  Only the public
`Graph(n, rows)` checks rows; the builders here, `graph6.from_triangle_bits`
(behind parse_graph6) and `spectral.stack_graphs` (the Graphs of corpus and
classified adjacency stacks) make valid rows by construction and check only
the order, through `Graph._of`.  The join family K_s v (K_{n1} u t*K1) that
witnesses sharpness of the extendability bounds is built and recognized here.
"""
from __future__ import annotations

from dataclasses import dataclass

MAX_VERTICES = 128


class CapacityError(ValueError):
    """Order exceeds the supported bitmask representation."""


class Graph:
    """Immutable undirected graph; rows[v] is the neighbor bitmask of v.
    Graph(n, rows) checks every row; builders of valid rows use Graph._of."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        if not 0 <= n <= MAX_VERTICES:
            raise CapacityError(f"order {n} outside 0..{MAX_VERTICES}")
        if len(rows) != n:
            raise ValueError("row count does not match order")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full or (row >> v) & 1:
                raise ValueError(f"bad adjacency row for vertex {v}")
            for u in range(v):
                if ((rows[u] >> v) & 1) != ((row >> u) & 1):
                    raise ValueError(f"asymmetric pair ({u},{v})")
        self.n, self.rows = n, tuple(rows)

    @classmethod
    def _of(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """A graph from a tuple of rows valid by construction: only n is checked."""
        if not 0 <= n <= MAX_VERTICES:
            raise CapacityError(f"order {n} outside 0..{MAX_VERTICES}")
        g = object.__new__(cls)
        g.n, g.rows = n, rows
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u},{v}) for order {n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._of(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            m = self.rows[u] >> (u + 1)
            v = u + 1
            while m:
                if m & 1:
                    out.append((u, v))
                m >>= 1
                v += 1
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((r.bit_count() for r in self.rows), reverse=True))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={self.edge_count()})"


def empty_graph(m: int) -> Graph:
    return Graph._of(m, (0,) * m)


def complete(m: int) -> Graph:
    full = (1 << m) - 1
    return Graph._of(m, tuple(full ^ (1 << v) for v in range(m)))


def cycle(m: int) -> Graph:
    if m < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(m, [(v, (v + 1) % m) for v in range(m)])


def path(m: int) -> Graph:
    return Graph.from_edges(m, [(v, v + 1) for v in range(m - 1)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph._of(g.n + h.n, tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every cross edge."""
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [r | hmask for r in g.rows] + [(r << g.n) | gmask for r in h.rows]
    return Graph._of(g.n + h.n, tuple(rows))


def isolated_count(g: Graph, removed_mask: int = 0) -> int:
    """Number of isolated vertices of g - removed_mask (degree 0 after removal)."""
    return sum(1 for v, r in enumerate(g.rows) if not (removed_mask >> v & 1 or r & ~removed_mask))


def neighbourhood(g: Graph, mask: int) -> int:
    """Union of the neighbour rows of the vertices in mask."""
    rows = g.rows
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# the extremal three-block family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalParams:
    """Parameters of K_s v (K_{n-2s+2k-1} u (s-2k+1)*K1).

    The first block is the dominating s-clique, the second the inner clique
    (possibly empty), the third an independent set of t = s-2k+1 vertices.
    s = 2k gives the edge/q equality graph, s = delta the min-degree one.
    """
    n: int
    k: int
    s: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.s < 2 * self.k:
            raise ValueError("s must be at least 2k")
        if self.inner_size < 0:
            raise ValueError("order too small: need n >= 2s-2k+1")

    @property
    def inner_size(self) -> int:
        return self.n - 2 * self.s + 2 * self.k - 1

    @property
    def independent_size(self) -> int:
        return self.s - 2 * self.k + 1


def extremal_graph(p: ExtremalParams) -> Graph:
    """Vertex order: dominating clique, inner clique, independent set."""
    if p.n > MAX_VERTICES:
        raise CapacityError(f"order {p.n} outside 0..{MAX_VERTICES}")
    inner = disjoint_union(complete(p.inner_size), empty_graph(p.independent_size))
    return join(complete(p.s), inner)


def extremal_edge_count(p: ExtremalParams) -> int:
    # dominating u inner is one clique of size n-s+2k-1, plus s*t cross edges
    c = p.n - p.s + 2 * p.k - 1
    return c * (c - 1) // 2 + p.s * p.independent_size


def extremal_degrees(p: ExtremalParams) -> tuple[int, ...]:
    """The degree sequence of extremal_graph(p), non-increasing: s vertices
    of degree n-1, n1 = inner_size of degree s+n1-1 and t = independent_size
    of degree s.  The family is a threshold graph, so at order n this
    sequence decides isomorphism with it (matches_extremal, and
    theorems._bound_sides on a stack).  Proof: the s vertices of degree n-1
    are universal.  Removing them leaves t isolated vertices and n1 vertices
    of degree n1-1, and those n1 can only be adjacent to each other, so they
    form a clique.  The degenerate cases need no branch: when n1 = 1 the
    inner vertex has the independent degree s, and when n1 = 0 and t = 1 the
    family is K_n.
    """
    s, n1, t = p.s, p.inner_size, p.independent_size
    # already non-increasing: n-1 > s+n1-1 because t >= 1
    return (p.n - 1,) * s + (s + n1 - 1,) * n1 + (s,) * t


def matches_extremal(g: Graph, p: ExtremalParams) -> bool:
    """Is g isomorphic to extremal_graph(p)?  Degrees decide (extremal_degrees),
    and the order too: g's sequence has g.n entries and the family's p.n."""
    return g.degree_sequence() == extremal_degrees(p)
