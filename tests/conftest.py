"""Shared generators and independent oracles for the test suite.

The oracles here deliberately take different routes from the library code:
domination by raw subset enumeration, bondage by re-solving domination on
every edge subset, girth via per-edge shortest paths, isomorphism by
permutation search, graph6 via networkx, cubic and radical floors by a scan
of their defining predicate.  Agreement between two independent
implementations is the point.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations
from typing import Callable, Iterator

from bondlab.bounds import _require_chi_nonpositive
from bondlab.domination import domination_number
from bondlab.embedding import _VECTOR_BLOCK, BudgetExceededError, RotationSystem
from bondlab.graphs import Graph


def pytest_configure(config):
    # A file left open fails its test: the unclosed-file ResourceWarning is
    # raised in a finalizer, which pytest reports as an unraisable exception.
    # Set here rather than in pyproject.toml so that it covers only tests/.
    config.addinivalue_line("filterwarnings", "error::ResourceWarning")
    config.addinivalue_line("filterwarnings", "error::pytest.PytestUnraisableExceptionWarning")


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


class _Budget:
    __slots__ = ("remaining", "strict")

    def __init__(self, limit: int, strict: bool):
        self.remaining = limit
        self.strict = strict

    def charge(self, amount: int) -> bool:
        """Consume ``amount`` steps if they fit in what remains.

        A charge that does not fit is refused whole, so the budget is a hard
        cap; refusal returns False, or raises in strict mode.
        """
        if amount > self.remaining:
            if self.strict:
                raise BudgetExceededError("face-tracing budget exhausted in strict mode")
            return False
        self.remaining -= amount
        return True


def reference_sweep(space, target: int, limit: int) -> tuple[int, int | None, int]:
    """:func:`reference_sweep_vector` over schemes ``0..limit-1``.

    A budget of exactly ``limit`` schemes' states makes its last block
    shrink to end at ``limit``, and the next charge is refused there.
    """
    return reference_sweep_vector(space, target, _Budget(limit * space.states, strict=False))


def reference_sweep_vector(space, target: int, budget) -> tuple[int, int | None, int]:
    """The numpy sweep as it traced every scheme in full, block by block.

    Kept verbatim apart from its name: each block builds the whole
    next-state table per scheme and min-label doubles over all its states.
    """
    import numpy as np

    g = space.g
    nd = 2 * g.m
    n_states = space.states
    best = -(10**9)
    best_index = None

    # Per-vertex tables: rows are candidate rotations, columns the incoming
    # darts at the vertex (fixed order), entries the successor dart ids.
    in_cols = []
    fwd_tables = []
    bwd_tables = []
    for v in range(g.n):
        cols = [space.dart_of[(x, v)] for x in sorted(g.neighbors(v))]
        in_cols.append(np.array(cols, dtype=np.int64))
        fw = np.zeros((space.rot_counts[v], len(cols)), dtype=np.int16)
        bw = np.zeros_like(fw)
        for ci, rot in enumerate(space.candidates[v]):
            k = len(rot)
            for i, x in enumerate(rot):
                slot = cols.index(space.dart_of[(x, v)])
                fw[ci, slot] = space.dart_of[(v, rot[(i + 1) % k])]
                bw[ci, slot] = space.dart_of[(v, rot[(i - 1) % k])]
        fwd_tables.append(fw)
        bwd_tables.append(bw)

    free_bits = np.zeros(nd, dtype=np.int64)
    free_mask_cols = np.zeros(nd, dtype=bool)
    for b, e in enumerate(space.free_edges):
        for d in (2 * e, 2 * e + 1):
            free_bits[d] = b
            free_mask_cols[d] = True

    doubling = max(1, math.ceil(math.log2(n_states)))
    arange_states = np.arange(n_states, dtype=np.int16)

    index = 0
    while index < space.total:
        # The last block shrinks to what the budget still covers, so the
        # sweep reaches the same scheme as the scalar one when it runs out.
        block = max(1, min(_VECTOR_BLOCK, space.total - index, budget.remaining // n_states))
        if not budget.charge(block * n_states):
            return best, best_index, index
        flat = np.arange(index, index + block, dtype=np.int64)
        rem = flat.copy()
        if space.signed:
            sign_mask = rem % space.sign_count + 1
            rem //= space.sign_count
        digit_arrays = [None] * g.n
        for v in range(g.n - 1, -1, -1):
            digit_arrays[v] = rem % space.rot_counts[v]
            rem //= space.rot_counts[v]

        fwd = np.zeros((block, nd), dtype=np.int16)
        bwd = np.zeros((block, nd), dtype=np.int16) if space.signed else None
        for v in range(g.n):
            rows = digit_arrays[v]
            fwd[:, in_cols[v]] = fwd_tables[v][rows]
            if space.signed:
                bwd[:, in_cols[v]] = bwd_tables[v][rows]

        if not space.signed:
            nxt = fwd
        else:
            neg = ((sign_mask[:, None] >> free_bits[None, :]) & 1).astype(np.int16)
            neg &= free_mask_cols[None, :]
            out0 = np.where(neg == 0, fwd, bwd)  # arriving with direction 0
            nxt = np.empty((block, 2 * nd), dtype=np.int16)
            nxt[:, 0::2] = 2 * out0 + neg  # states (d, 0)
            out1 = np.where(neg == 1, fwd, bwd)  # direction flips to 0 iff neg
            nxt[:, 1::2] = 2 * out1 + (1 - neg)  # states (d, 1)

        lbl = np.broadcast_to(arange_states, (block, n_states)).copy()
        reach = nxt.copy()
        for _ in range(doubling):
            np.minimum(lbl, np.take_along_axis(lbl, reach, axis=1), out=lbl)
            reach = np.take_along_axis(reach, reach, axis=1)
        roots = lbl == arange_states
        if not space.signed:
            faces = roots.sum(axis=1)
        else:
            darts = (arange_states >> 1).astype(np.int64)
            sbits = arange_states & 1
            neg_at = neg[:, darts]
            mir = (((darts ^ 1) << 1) + (1 ^ sbits ^ neg_at)).astype(np.int16)
            mir_lbl = np.take_along_axis(lbl, mir, axis=1)
            faces = (roots & (mir_lbl >= arange_states)).sum(axis=1)
        chi = g.n - g.m + faces.astype(np.int64)

        pos = 0
        while True:
            better = np.flatnonzero(chi[pos:] > best)
            if better.size == 0:
                break
            pos += int(better[0])
            best = int(chi[pos])
            best_index = index + pos
            if best >= target:
                return best, best_index, index + pos + 1
            pos += 1
        index += block
    return best, best_index, space.total


def reference_cover_bound(reaches: list[int]) -> int:
    """The cover bound by counting each edge's masks in a dict, bit by bit."""
    hits: dict[int, int] = {}
    for reach in reaches:
        while reach:
            low = reach & -reach
            hits[low] = hits.get(low, 0) + 1
            reach ^= low
    left = len(reaches)
    for k, h in enumerate(sorted(hits.values(), reverse=True), 1):
        left -= h
        if left <= 0:
            return k
    raise AssertionError("every mask holds an edge")


def reference_floor_largest_root(cubic) -> int:
    """Floor of the unique nonnegative real root, by exact integer scan."""
    z = 0
    while cubic(z + 1) <= 0:
        z += 1
    return z


# Radical floors by an integer scan of their defining predicate, seeded by a
# float estimate that never decides the result.  The library computes each
# as one isqrt expression instead.


def reference_floor_by_predicate(pred: Callable[[int], bool], estimate: int) -> int:
    """Largest nonnegative integer satisfying a monotone predicate.

    ``pred`` must be true on 0..floor and false beyond; ``estimate`` only
    seeds the scan and never affects the result.
    """
    z = max(0, estimate)
    while z > 0 and not pred(z):
        z -= 1
    while pred(z + 1):
        z += 1
    return z


def reference_ceil_sqrt_minus_half(v: int) -> int:
    """Smallest integer q with q >= sqrt(v) - 1/2, i.e. (2q+1)^2 >= 4v."""
    q = max(0, math.isqrt(v) - 1)
    while (2 * q + 1) ** 2 < 4 * v:
        q += 1
    return q


def reference_bound_girth(delta: int, chi: int, g: int) -> int:
    """delta + floor(s) with s = (2 + sqrt(g^2 - g*(g-2)*chi)) / (g - 2)."""
    _require_chi_nonpositive(chi)
    if not isinstance(g, int) or g < 3:
        raise ValueError(f"girth must be a finite integer >= 3, got {g}")
    rad = g * g - g * (g - 2) * chi

    def pred(z: int) -> bool:
        w = (g - 2) * z - 2
        return w <= 0 or w * w <= rad

    est = int((2 + math.sqrt(rad)) / (g - 2))
    return delta + reference_floor_by_predicate(pred, est)


def reference_bound_girth_baseline(delta: int, chi: int, g: int) -> int:
    """delta + floor((sqrt(8g(2-g)chi + (3g-2)^2) - (g-6)) / (2(g-2)))."""
    _require_chi_nonpositive(chi)
    if not isinstance(g, int) or g < 3:
        raise ValueError(f"girth must be a finite integer >= 3, got {g}")
    rad = 8 * g * (2 - g) * chi + (3 * g - 2) ** 2

    def pred(z: int) -> bool:
        w = 2 * (g - 2) * z + (g - 6)
        return w <= 0 or w * w <= rad

    est = int((math.sqrt(rad) - (g - 6)) / (2 * (g - 2)))
    return delta + reference_floor_by_predicate(pred, est)


def reference_order_term(chi: int, n: int) -> int:
    """floor(c) for c = 1/2 - 3*chi/n + sqrt(25/4 - 21*chi/n + 9*chi^2/n^2).

    The comparison is done with cleared denominators: z <= c iff
    w = 2*n*z - n + 6*chi is nonpositive or w^2 <= 25n^2 - 84n*chi + 36chi^2.
    """
    _require_chi_nonpositive(chi)
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    rad = 25 * n * n - 84 * n * chi + 36 * chi * chi

    def pred(z: int) -> bool:
        w = 2 * n * z - n + 6 * chi
        return w <= 0 or w * w <= rad

    est = int(0.5 - 3 * chi / n + math.sqrt(25 / 4 - 21 * chi / n + 9 * chi * chi / (n * n)))
    return reference_floor_by_predicate(pred, est)
