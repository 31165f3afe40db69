"""Shared generators and independent oracles for the test suite.

The oracles here deliberately take different routes from the library code:
domination by raw subset enumeration and its search order by a search that
rescans every vertex at each node, bondage by re-solving domination on
every edge subset and its branch and bound by a scan of every set's breaker
list, girth via per-edge shortest paths, isomorphism and the canonical code
by permutation search, graph6 and planarity via networkx, chi sweeps that
trace every scheme of a quotiented scheme space in full, cubic and radical
floors by a scan of their defining predicate.  Agreement between
two independent implementations is the point.

The float and ``Fraction`` cross-checks of the bound formulas (the radical
root, the sign families, the size threshold, the curvature ledger) and the
graph helpers that no command needs live here too, so the library itself
computes in exact integers and carries only what its commands run.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator, Sequence

from bondlab.bounds import _require_chi_nonpositive
from bondlab.domination import domination_number
from bondlab.embedding import EmbeddingSummary, RotationSystem
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


def relabelled(g: Graph, rng: random.Random) -> Graph:
    """``g`` under a random vertex permutation drawn from ``rng``."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


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
# Graph and rotation-system helpers that only the tests need
# ---------------------------------------------------------------------------


def common_neighbors(g: Graph, u: int, v: int) -> int:
    """Number of shared neighbours of the endpoints of edge ``uv``."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"vertex out of range: {u}, {v}")
    if not g.adjacency[u] >> v & 1:
        raise ValueError(f"{u}-{v} is not an edge")
    return (g.adjacency[u] & g.adjacency[v]).bit_count()


def identity_rotation(g: Graph) -> RotationSystem:
    """Sorted-neighbour rotations with all edges positive."""
    return RotationSystem(tuple(tuple(g.neighbors(v)) for v in range(g.n)))


def rotation_system_from_json(data: dict) -> RotationSystem:
    """The inverse of ``RotationSystem.to_json_dict``."""
    return RotationSystem(
        rotations=tuple(tuple(rot) for rot in data["rotations"]),
        negative_edges=frozenset(
            (min(u, v), max(u, v)) for u, v in data.get("negative_edges", [])
        ),
    )


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def is_dominating(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the closed neighbourhoods of ``vertices`` cover the graph."""
    covered = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range 0..{g.n - 1}")
        covered |= g.closed_mask(v)
    return covered == (1 << g.n) - 1


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


def reference_dominating_sets(
    closed: Sequence[int], full: int, k: int
) -> Iterator[tuple[int, ...]]:
    """Dominating sets of at most ``k`` vertices in search order, none twice.

    This is the recursive search that ``domination._dominating_sets``
    replaced, kept as an oracle of its order: it rescans every closed
    neighbourhood for the branch vertex and the gain bound at each node.
    Branches on the closed neighbourhood of a most-constrained uncovered
    vertex; each branch excludes the candidates its earlier siblings took,
    so no set is reached twice.  With ``k`` the domination number this
    yields every minimum dominating set.
    """
    n = len(closed)
    chosen: list[int] = []

    def dfs(covered: int, remaining: int, excluded: int) -> Iterator[tuple[int, ...]]:
        if covered == full:
            yield tuple(chosen)
            return
        if remaining == 0:
            return
        uncovered = full & ~covered
        # Admissible bound: no pick covers more than max_gain new vertices.
        max_gain = 0
        for mask in closed:
            gain = (mask & uncovered).bit_count()
            if gain > max_gain:
                max_gain = gain
        if max_gain * remaining < uncovered.bit_count():
            return
        # Branch on the uncovered vertex with the fewest dominators.
        pick = -1
        pick_size = n + 2
        rest = uncovered
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            size = closed[u].bit_count()
            if size < pick_size:
                pick_size = size
                pick = u
        cand = closed[pick] & ~excluded
        while cand:
            c = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            chosen.append(c)
            yield from dfs(covered | closed[c], remaining - 1, excluded)
            chosen.pop()
            excluded |= 1 << c

    return dfs(0, k, 0)


def brute_bondage_number(g: Graph) -> int:
    """Smallest edge set whose removal raises gamma, by raw enumeration."""
    gamma0 = brute_domination_number(g)
    edges = g.edges()
    for k in range(1, g.m + 1):
        for subset in combinations(edges, k):
            if brute_domination_number(g.remove_edges(subset)) > gamma0:
                return k
    raise AssertionError("bondage is defined for nonempty graphs")


def brute_one_edge_breakers(g: Graph) -> list[tuple[int, int]]:
    """Every edge whose removal alone raises gamma, by raw enumeration."""
    gamma0 = brute_domination_number(g)
    return [e for e in g.edges() if brute_domination_number(g.remove_edges([e])) > gamma0]


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


def torus_triangulation(p: int, q: int) -> Graph:
    """T(p, q): the p x q torus grid with the diagonal (i, j)-(i+1, j+1) in each square."""
    edges = set()
    for i in range(p):
        for j in range(q):
            v = i * q + j
            for w in (((i + 1) % p) * q + j, i * q + (j + 1) % q, ((i + 1) % p) * q + (j + 1) % q):
                edges.add((min(v, w), max(v, w)))
    return Graph.from_edges(p * q, sorted(edges))


def complete_tripartite(a: int) -> Graph:
    """K_{a,a,a}, parts {0..a-1}, {a..2a-1} and {2a..3a-1}."""
    edges = [(u, v) for u, v in combinations(range(3 * a), 2) if u // a != v // a]
    return Graph.from_edges(3 * a, edges)


def subdivided_with_pendants(g: Graph) -> Graph:
    """``g`` with every edge subdivided once, then one pendant at every vertex.

    Edge ``i`` of ``g.edges()`` gets subdivision vertex ``n + i``; the
    pendant of vertex ``v`` is ``n + m + v``.  Both moves keep chi on each
    side, so the result has the chi of ``g`` and reduces to a copy of it.
    """
    n, m = g.n, g.m
    edges = [e for i, (u, v) in enumerate(g.edges()) for e in ((u, n + i), (v, n + i))]
    edges += [(v, n + m + v) for v in range(n + m)]
    return Graph.from_edges(2 * (n + m), edges)


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


def reference_canonical_code(g: Graph) -> int:
    """Least column-major edge code of ``g`` over all ``n!`` relabellings.

    Bit ``j(j-1)/2 + i`` of a code is the pair ``(i, j)``, ``i < j``, as in
    graph6.  This is the permutation min-code that the enumerator's
    canonical form must equal.
    """
    edges = g.edges()
    best = None
    for perm in permutations(range(g.n)):
        code = 0
        for u, v in edges:
            i, j = sorted((perm[u], perm[v]))
            code |= 1 << (j * (j - 1) // 2 + i)
        if best is None or code < best:
            best = code
    return best


_VECTOR_BLOCK = 4096  # schemes per block of reference_sweep_vector


def _is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def _is_complete_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    color[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if color[v] == -1:
                color[v] = color[u] ^ 1
                stack.append(v)
            elif color[v] == color[u]:
                return False
    a = color.count(0)
    return g.m == a * (g.n - a)


class SchemeSpace:
    """Quotiented enumeration space of rotation schemes, for the sweeps below.

    Vertex rotations are anchored at the smallest neighbour, listed in
    ``itertools.permutations`` order of the rest.  At the pivot (smallest
    max-degree vertex) the candidate list is either a single fixed rotation
    (complete or complete bipartite graphs, where the vertex stabiliser
    realises every cyclic order) or one representative per reversal pair
    (reflection of the whole scheme preserves chi).  On the signed side the
    spanning-tree edges stay +1 and every nonzero mask of the others is a
    scheme, so every signed scheme is non-orientable.  Schemes are numbered
    in the flat order: the sign mask changes fastest, then the rotation at
    the last vertex.
    """

    def __init__(self, g: Graph, signed: bool):
        self.g = g
        self.signed = signed
        self.edges = g.edges()
        self.dart_of = {}
        for e, (u, v) in enumerate(self.edges):
            self.dart_of[(u, v)] = 2 * e
            self.dart_of[(v, u)] = 2 * e + 1
        degrees = [g.degree(v) for v in range(g.n)]
        self.pivot = max(range(g.n), key=lambda v: (degrees[v], -v))
        full_fix = _is_complete(g) or _is_complete_bipartite(g)
        self.candidates: list[list[tuple[int, ...]]] = []
        for v in range(g.n):
            nbrs = sorted(g.neighbors(v))
            if len(nbrs) <= 2:
                cands = [tuple(nbrs)]
            else:
                anchor, rest = nbrs[0], nbrs[1:]
                cands = [(anchor, *p) for p in permutations(rest)]
                if v == self.pivot:
                    if full_fix:
                        cands = cands[:1]
                    else:
                        cands = [c for c in cands if c[1:] <= tuple(reversed(c[1:]))]
            self.candidates.append(cands)
        self.rot_counts = [len(c) for c in self.candidates]

        tree: set[int] = set()
        seen = {0}
        frontier = [0]
        edge_index = {e: i for i, e in enumerate(self.edges)}
        while frontier:
            u = frontier.pop()
            for v in g.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    tree.add(edge_index[(min(u, v), max(u, v))])
                    frontier.append(v)
        self.free_edges = [i for i in range(g.m) if i not in tree]
        self.sign_count = (1 << len(self.free_edges)) - 1 if signed else 1

        self.total = math.prod(self.rot_counts) * self.sign_count
        self.states = 4 * g.m if signed else 2 * g.m

    def decode(self, index: int) -> tuple[tuple[int, ...], int]:
        """Flat index -> (per-vertex candidate indices, sign mask)."""
        if self.signed:
            sign_mask = index % self.sign_count + 1
            index //= self.sign_count
        else:
            sign_mask = 0
        digits = [0] * self.g.n
        for v in range(self.g.n - 1, -1, -1):
            digits[v] = index % self.rot_counts[v]
            index //= self.rot_counts[v]
        return tuple(digits), sign_mask

    def scheme(self, index: int) -> RotationSystem:
        """The rotation system numbered ``index`` in the flat order."""
        digits, sign_mask = self.decode(index)
        rotations = tuple(self.candidates[v][digits[v]] for v in range(self.g.n))
        neg = frozenset(
            self.edges[self.free_edges[b]]
            for b in range(len(self.free_edges))
            if sign_mask >> b & 1
        )
        return RotationSystem(rotations=rotations, negative_edges=neg)


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def charge(self, amount: int) -> bool:
        """Consume ``amount`` steps if they fit in what remains.

        A charge that does not fit is refused whole, so the budget is a hard
        cap; refusal returns False.
        """
        if amount > self.remaining:
            return False
        self.remaining -= amount
        return True


def reference_sweep_scalar(space, limit: int, start: int = 0) -> tuple[int, int | None]:
    """The pure-Python sweep: each scheme ``start..limit-1`` traced in full.

    Same contract as :func:`reference_sweep`: returns (best, best_index),
    where ``best_index`` is the first scheme attaining ``best``.  Only the
    rotations that change between consecutive schemes are rewritten; faces
    are counted by stamping orbits.
    """
    g = space.g
    nd = 2 * g.m
    best = -(10**9)
    best_index = None
    fwd = [0] * nd
    bwd = [0] * nd
    neg = [0] * nd
    stamp_unsigned = [-1] * nd
    stamp_signed = [-1] * (2 * nd)
    digits = None
    for index in range(start, limit):
        new_digits, sign_mask = space.decode(index)
        for v in range(g.n):
            if digits is not None and new_digits[v] == digits[v]:
                continue
            rot = space.candidates[v][new_digits[v]]
            k = len(rot)
            for i, x in enumerate(rot):
                d_in = space.dart_of[(x, v)]
                fwd[d_in] = space.dart_of[(v, rot[(i + 1) % k])]
                bwd[d_in] = space.dart_of[(v, rot[(i - 1) % k])]
        digits = new_digits

        if not space.signed:
            faces = 0
            for d0 in range(nd):
                if stamp_unsigned[d0] == index:
                    continue
                faces += 1
                d = d0
                while stamp_unsigned[d] != index:
                    stamp_unsigned[d] = index
                    d = fwd[d]
        else:
            for b, e in enumerate(space.free_edges):
                bit = sign_mask >> b & 1
                neg[2 * e] = neg[2 * e + 1] = bit
            faces = 0
            for s0 in range(2 * nd):
                if stamp_signed[s0] == index:
                    continue
                faces += 1
                s = s0
                orbit = []
                while stamp_signed[s] != index:
                    stamp_signed[s] = index
                    orbit.append(s)
                    d, sb = s >> 1, s & 1
                    s2 = sb ^ neg[d]
                    out = bwd[d] if s2 else fwd[d]
                    s = (out << 1) | s2
                for s in orbit:
                    d, sb = s >> 1, s & 1
                    stamp_signed[((d ^ 1) << 1) | (1 ^ sb ^ neg[d])] = index
        chi = g.n - g.m + faces
        if chi > best:
            best = chi
            best_index = index
    return best, best_index


def reference_sweep(space, limit: int, start: int = 0) -> tuple[int, int | None]:
    """:func:`reference_sweep_vector` over schemes ``start..limit-1``.

    A budget of exactly ``limit - start`` schemes' states makes its last
    block shrink to end at ``limit``, and the next charge is refused there.
    """
    budget = _Budget((limit - start) * space.states)
    return reference_sweep_vector(space, budget, start)


def reference_sweep_vector(space, budget, start: int = 0) -> tuple[int, int | None]:
    """The numpy sweep as it traced every scheme in full, block by block.

    Kept verbatim apart from its name, the early-exit target it no longer
    takes and the first scheme ``start``: each block builds the whole
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

    index = start
    while index < space.total:
        # The last block shrinks to what the budget still covers, so the
        # sweep reaches the same scheme as the scalar one when it runs out.
        block = max(1, min(_VECTOR_BLOCK, space.total - index, budget.remaining // n_states))
        if not budget.charge(block * n_states):
            return best, best_index
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
            pos += 1
        index += block
    return best, best_index


def reference_core(g: Graph) -> Graph:
    """The reduced core by whole passes: strip pendants and suppress
    degree-2 vertices whose neighbours are not adjacent, rescanning every
    vertex in label order until a pass changes nothing."""
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    changed = True
    while changed and len(adj) > 1:
        changed = False
        for v in sorted(adj):
            if len(adj) == 1:
                break
            if len(adj[v]) == 1:
                (x,) = adj.pop(v)
                adj[x].discard(v)
                changed = True
            elif len(adj[v]) == 2:
                x, y = sorted(adj[v])
                if x not in adj[y]:
                    del adj[v]
                    adj[x] ^= {v, y}
                    adj[y] ^= {v, x}
                    changed = True
    labels = sorted(adj)
    return Graph.from_edges(len(labels), [(labels.index(u), labels.index(v))
                                          for u in labels for v in adj[u] if u < v])


def reference_is_planar(g: Graph) -> bool:
    """Planarity by networkx's left-right test."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.check_planarity(h)[0]


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


def _breaker_families(g: Graph, sets: list[tuple[int, ...]]) -> list[list[int]]:
    """For each minimum dominating set ``D``, its breakers ``E(v, D)``.

    A breaker is a bitmask over the indices of ``g.edges()``.  Breakers of
    one set are pairwise disjoint, since each holds only edges at its ``v``.
    """
    inc = [0] * g.n
    for i, (u, v) in enumerate(g.edges()):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    families = []
    for dom in sets:
        reach = 0
        for u in dom:
            reach |= inc[u]
        families.append([inc[v] & reach for v in range(g.n) if v not in dom])
    return families


def _one_edge_breaker(families: list[list[int]]) -> int:
    """The first edge, in the first family's order, that breaks every set alone.

    An edge alone raises gamma exactly when it is a one-edge breaker of
    every minimum dominating set; the branch and bound would take the first
    such breaker of the first family.  Returns its bit, or 0 if none exists.
    """
    common = -1
    for breakers in families:
        ones = 0
        for b in breakers:
            if not b & (b - 1):
                ones |= b
        common &= ones
        if not common:
            return 0
    # Breakers of a set are disjoint, so only a one-edge breaker meets ``common``.
    return next(b for b in families[0] if b & common)


def reference_bondage_connected(
    g: Graph, sets: list[tuple[int, ...]], limit: int, sweep: bool = True
) -> tuple[int, tuple[tuple[int, int], ...]] | None:
    """The bondage search as a scan of every family's breaker list, kept as an oracle.

    This is the list-scan form that ``bondage._bondage_connected`` replaced,
    with ``reference_cover_bound`` for the cover bound: at every node it
    rebuilds the list of unbroken families from their breakers.  ``sets``
    must be every minimum dominating set of ``g``.  With ``sweep`` false the
    branch and bound decides ``b = 1`` too, without ``_one_edge_breaker``.
    """
    edges = g.edges()
    families = _breaker_families(g, sets)
    if sweep and limit >= 1:
        one = _one_edge_breaker(families)
        if one:
            return 1, (edges[one.bit_length() - 1],)
    best_size = limit + 1
    best = 0

    def search(removed: int, size: int, families: list[list[int]], forbidden: int) -> None:
        # ``forbidden`` holds edges an earlier sibling branch removed on
        # their own; every edge set holding one was searched there, so a
        # breaker that meets ``forbidden`` is out of play.
        nonlocal best_size, best
        unbroken = []
        reaches = []
        most = 0
        for breakers in families:
            need = g.m
            reach = 0
            for b in breakers:
                if b & forbidden:
                    continue
                new = b & ~removed
                if not new:
                    need = 0
                    break
                reach |= new
                if new.bit_count() < need:
                    need = new.bit_count()
            if need:
                if not reach:
                    return
                unbroken.append(breakers)
                reaches.append(reach)
                most = max(most, need)
        if not unbroken:
            best_size, best = size, removed
            return
        # Both bounds are admissible: the unbroken set needing the most new
        # edges, and the edges that can meet every unbroken set's reach.
        if size + most >= best_size or size + reference_cover_bound(reaches) >= best_size:
            return
        for b in sorted(unbroken[0], key=lambda b: (b & ~removed).bit_count()):
            if b & forbidden:
                continue
            extra = (b & ~removed).bit_count()
            if size + extra < best_size:
                search(removed | b, size + extra, unbroken, forbidden)
            if b.bit_count() == 1:
                forbidden |= b

    search(0, 0, families, 0)
    if best_size > limit:
        return None
    return best_size, tuple(e for i, e in enumerate(edges) if best >> i & 1)


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


def size_threshold(chi: int, m: int) -> Fraction:
    """Exact c = 3 - 18*chi / (m + 3*chi); requires m > -3*chi >= 0."""
    _require_chi_nonpositive(chi)
    if m + 3 * chi <= 0:
        raise ValueError(f"size bound needs m > {-3 * chi}, got m={m}")
    return Fraction(3) + Fraction(-18 * chi, m + 3 * chi)


# Ratio-threshold constants: the additive term guaranteed once
# n >= ratio * (-chi), respectively m > ratio * (-chi).  Exact rationals.
ORDER_RATIO_BOUNDS: tuple[tuple[Fraction, int], ...] = (
    (Fraction(1), 9),
    (Fraction(2), 6),
    (Fraction(3), 5),
    (Fraction(4), 4),
    (Fraction(8), 3),
)
SIZE_RATIO_BOUNDS: tuple[tuple[Fraction, int], ...] = (
    (Fraction(6), 8),
    (Fraction(33, 5), 7),
    (Fraction(15, 2), 6),
    (Fraction(9), 5),
    (Fraction(12), 4),
    (Fraction(21), 3),
)


def closed_form_root(chi: int) -> float:
    """Radical formula for the sharper cubic's root.

    Evaluated over the complex numbers with principal branches; the
    imaginary residue must stay below 1e-9.  Cube-root branch choices are
    delicate, so this only cross-checks the bisected root.
    """
    _require_chi_nonpositive(chi)
    rad = 9 * chi**3 + 69 * chi**2 - 125 * chi
    d = (9 * cmath.sqrt(complex(rad)) - 108 * chi + 125) ** (1 / 3)
    value = (d + (25 - 9 * chi) / d - 1) / 3
    if abs(value.imag) > 1e-9:
        raise ArithmeticError(f"imaginary residue {value.imag} too large at chi={chi}")
    return value.real


# Sign families: each triple (A, B, C) is simultaneously positive exactly
# beyond a single threshold, which is what the bound proofs hinge on.


def sign_family_chi(chi: int, z) -> tuple[bool, bool, bool]:
    a = z * z - 2 * z + 2 * chi - 3
    b = 20 * z**3 + 4 * z * z + 3 * (16 * chi - 41) * z + 96 * chi - 126
    c = z**3 + z * z + (3 * chi - 8) * z + 9 * chi - 12
    return (a > 0, b > 0, c > 0)


def sign_family_order(n: int, chi: int, z) -> tuple[bool, bool, bool]:
    a = n * z - 3 * n + 4 * chi
    b = 10 * n * z * z - (13 * n - 48 * chi) * z - 42 * n + 96 * chi
    c = n * z * z - (n - 6 * chi) * z - 6 * n + 18 * chi
    return (a > 0, b > 0, c > 0)


def sign_family_size(m: int, chi: int, z) -> tuple[bool, bool, bool]:
    a = (m + 2 * chi) * z - 3 * m + 2 * chi
    b = (5 * m + 12 * chi) * z - 14 * m + 24 * chi
    c = (m + 3 * chi) * z - 3 * m + 9 * chi
    return (a > 0, b > 0, c > 0)


def order_threshold_exceeded(n: int, chi: int, z: Fraction) -> bool:
    """Exact test of z > c for the order family, cleared denominators."""
    _require_chi_nonpositive(chi)
    w = 2 * n * z - n + 6 * chi
    return w > 0 and w * w > 25 * n * n - 84 * n * chi + 36 * chi * chi


@dataclass(frozen=True)
class CurvatureLedger:
    weights: dict[tuple[int, int], float]
    total: float


def curvature(g: Graph, summary: EmbeddingSummary) -> CurvatureLedger:
    """Per-edge discharging weights of a traced embedding; they sum to zero.

    w(uv) = 1/d(u) + 1/d(v) - 1 + 1/f(uv) + 1/f'(uv) - chi/m, where f and f'
    are the boundary lengths of the faces on either side of the edge.
    """
    if g.m < 1:
        raise ValueError("curvature needs at least one edge")
    weights = {}
    for (u, v), (f1, f2) in summary.edge_face_lengths.items():
        weights[(u, v)] = (
            1 / g.degree(u)
            + 1 / g.degree(v)
            - 1
            + 1 / f1
            + 1 / f2
            - summary.chi / g.m
        )
    return CurvatureLedger(weights=weights, total=sum(weights.values()))
