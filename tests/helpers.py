"""Shared test utilities: reference implementations kept deliberately naive."""
from fracext import Graph


def brute_matching_number(g, active=None):
    """Maximum matching by exhaustive recursion.  Exponential, n <= ~10 only."""
    act = set(range(g.n)) if active is None else set(active)
    edges = [e for e in g.edges() if e[0] in act and e[1] in act]
    best = 0

    def rec(i, used, size):
        nonlocal best
        if size > best:
            best = size
        for j in range(i, len(edges)):
            u, v = edges[j]
            if u not in used and v not in used:
                rec(j + 1, used | {u, v}, size + 1)

    rec(0, set(), 0)
    return best


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng, n_lo=4, n_hi=30, p_lo=0.12, p_hi=0.9):
    """Random spanning tree plus density-p extras; connected by construction."""
    n = rng.randint(n_lo, n_hi)
    p = rng.uniform(p_lo, p_hi)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    for i in range(1, n):
        a, b = perm[i], perm[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def relabel(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def petersen():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return Graph.from_edges(10, edges)
