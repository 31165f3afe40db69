"""Shared generators and independent oracles for the test suite.

The oracles here deliberately take different routes from the library code:
domination by raw subset enumeration, bondage by re-solving domination on
every edge subset, girth via per-edge shortest paths, isomorphism by
permutation search, graph6 via networkx.  Agreement between two independent
implementations is the point.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from typing import Iterator

from bondlab.domination import domination_number
from bondlab.embedding import RotationSystem
from bondlab.graphs import Graph


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, extra: float = 0.3) -> Graph:
    """Random spanning tree plus a sprinkle of extra edges."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u, v in combinations(range(n), 2):
        if rng.random() < extra:
            edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def random_rotation_system(rng: random.Random, g: Graph, signed: bool = False) -> RotationSystem:
    rotations = []
    for v in range(g.n):
        nbrs = list(g.neighbors(v))
        rng.shuffle(nbrs)
        rotations.append(tuple(nbrs))
    negative = frozenset()
    if signed:
        negative = frozenset(e for e in g.edges() if rng.random() < 0.4)
    return RotationSystem(tuple(rotations), negative)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def brute_domination_number(g: Graph) -> int:
    """Smallest dominating set by raw subset enumeration."""
    full = (1 << g.n) - 1
    for k in range(0, g.n + 1):
        for subset in combinations(range(g.n), k):
            covered = 0
            for v in subset:
                covered |= g.closed_mask(v)
            if covered == full:
                return k
    raise AssertionError("unreachable: the whole vertex set dominates")


def brute_minimum_dominating_sets(g: Graph) -> list[tuple[int, ...]]:
    """Every smallest dominating set, by raw subset enumeration, in lex order."""
    full = (1 << g.n) - 1
    gamma = brute_domination_number(g)
    out = []
    for subset in combinations(range(g.n), gamma):
        covered = 0
        for v in subset:
            covered |= g.closed_mask(v)
        if covered == full:
            out.append(subset)
    return out


def brute_bondage_number(g: Graph) -> int:
    """Smallest edge set whose removal raises gamma, by raw enumeration."""
    gamma0 = brute_domination_number(g)
    edges = g.edges()
    for k in range(1, g.m + 1):
        for subset in combinations(edges, k):
            if brute_domination_number(g.remove_edges(subset)) > gamma0:
                return k
    raise AssertionError("bondage is defined for nonempty graphs")


def colex_subsets(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """k-subsets of range(m) in colexicographic order."""
    if k == 0:
        yield ()
        return
    for last in range(k - 1, m):
        for rest in colex_subsets(last, k - 1):
            yield rest + (last,)


def colex_bondage_number(g: Graph) -> int:
    """Bondage by definition: re-solve domination on every edge subset.

    Subsets come in growing size and colex order, and nothing about minimum
    dominating sets is used.
    """
    gamma0 = domination_number(g).gamma
    edges = g.edges()
    for k in range(1, g.m + 1):
        for subset in colex_subsets(g.m, k):
            if domination_number(g.remove_edges([edges[i] for i in subset])).gamma > gamma0:
                return k
    raise AssertionError("bondage is defined for nonempty graphs")


def corona_path(k: int) -> Graph:
    """P_k with a pendant vertex at each path vertex: 2^k minimum dominating sets."""
    edges = [(i, i + 1) for i in range(k - 1)] + [(i, k + i) for i in range(k)]
    return Graph.from_edges(2 * k, edges)


def oracle_girth(g: Graph) -> float:
    """Shortest cycle via per-edge shortest path in the edge-deleted graph."""
    import math

    best = math.inf
    for u, v in g.edges():
        h = g.remove_edges([(u, v)])
        dist = {u: 0}
        frontier = [u]
        while frontier and v not in dist:
            nxt = []
            for x in frontier:
                for y in h.neighbors(x):
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    if sorted(a.degree(v) for v in range(a.n)) != sorted(b.degree(v) for v in range(b.n)):
        return False
    b_edges = set(b.edges())
    for perm in permutations(range(a.n)):
        if all(
            ((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])) in b_edges
            for u, v in a.edges()
        ):
            return True
    return False
