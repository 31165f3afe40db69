"""2-cell embeddings of connected graphs via rotation systems with edge signs.

A rotation system assigns each vertex a cyclic order of its neighbours; an
edge sign of -1 reverses local orientation when the edge is crossed, which
encodes non-orientable embeddings.  Faces are traced as orbits of the
next-dart map on (dart, direction) states; each face corresponds to a
mirror-image pair of orbits, so the face count is the number of orbit pairs.

The maximum-Euler-characteristic search enumerates a quotient of the scheme
space (reflection symmetry always, plus a fixed pivot rotation where a
vertex stabiliser provably acts fully symmetrically on the pivot's
neighbourhood).  Two exactness certificates are tracked: ``exhaustive``
means the full quotient was enumerated, and ``certified`` additionally
covers early exits that reach a proven upper bound on the characteristic
(combinatorial face-length counting), which is just as exact.

Large spaces are swept with numpy in the same flat order, where the sign
mask changes fastest and then the rotation at the last vertex ``L`` with a
choice.  The sweep traces everything away from ``L`` once per distinct
(other rotations, sign mask) pair, with the states entering ``L`` made
absorbing, and then each scheme only over the at most ``2 deg(L)`` states
entering ``L``: their first-return map, ``L``'s rotation followed by the
traced jump to the next entry, has one cycle per face through ``L``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable

from .graphs import Graph, girth

__all__ = [
    "RotationSystem",
    "EmbeddingSummary",
    "CurvatureLedger",
    "SideResult",
    "ChiSearchResult",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "trace_faces",
    "curvature",
    "max_euler_characteristic",
    "ringel_chi",
]

DEFAULT_BUDGET = 100_000_000
# Sides with at most this many scheme-states (total * states) stay in pure
# Python, where numpy's set-up per window costs more than it saves.  Timed
# per side on the corpus6 and sparse-random benchmark inputs, pure Python
# wins most sides below 5e3 and numpy most above; in benchmark runs 3e3
# beat both 1e3 and 1e4 on sparse-random wall time and tied on corpus6.
# The choice changes speed only: both sweeps give equal results.
_VECTOR_THRESHOLD = 3_000
_VECTOR_BLOCK = 4096


class BudgetExceededError(RuntimeError):
    """Raised in strict mode when the face-tracing budget runs out."""


@dataclass(frozen=True)
class RotationSystem:
    """Per-vertex neighbour cycles plus the set of negative edges.

    ``rotations[v]`` lists the neighbours of ``v`` in cyclic order; an empty
    ``negative_edges`` set is the orientable case.
    """

    rotations: tuple[tuple[int, ...], ...]
    negative_edges: frozenset[tuple[int, int]] = frozenset()

    def validate(self, g: Graph) -> None:
        if len(self.rotations) != g.n:
            raise ValueError(f"expected {g.n} rotations, got {len(self.rotations)}")
        for v, rot in enumerate(self.rotations):
            if sorted(rot) != sorted(g.neighbors(v)):
                raise ValueError(f"rotation at vertex {v} is not a permutation of its neighbours")
        edges = set(g.edges())
        for e in self.negative_edges:
            if tuple(sorted(e)) not in edges:
                raise ValueError(f"negative sign on non-edge {e}")

    def sign(self, u: int, v: int) -> int:
        return -1 if (min(u, v), max(u, v)) in self.negative_edges else 1

    @classmethod
    def identity(cls, g: Graph) -> "RotationSystem":
        """Sorted-neighbour rotations with all edges positive."""
        return cls(tuple(tuple(g.neighbors(v)) for v in range(g.n)))

    def to_json_dict(self) -> dict:
        edges = sorted({tuple(sorted(e)) for e in self.negative_edges})
        return {
            "rotations": [list(rot) for rot in self.rotations],
            "negative_edges": [list(e) for e in edges],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RotationSystem":
        return cls(
            rotations=tuple(tuple(rot) for rot in data["rotations"]),
            negative_edges=frozenset(
                (min(u, v), max(u, v)) for u, v in data.get("negative_edges", [])
            ),
        )


@dataclass(frozen=True)
class EmbeddingSummary:
    """Faces of one embedding: walks, lengths, per-edge face sizes, and chi."""

    face_walks: tuple[tuple[tuple[int, int], ...], ...]
    face_lengths: tuple[int, ...]
    edge_face_lengths: dict[tuple[int, int], tuple[int, int]]
    chi: int
    orientable: bool


@dataclass(frozen=True)
class CurvatureLedger:
    weights: dict[tuple[int, int], float]
    total: float


def _dart_tables(g: Graph):
    edges = g.edges()
    dart_of = {}
    tail = []
    head = []
    for e, (u, v) in enumerate(edges):
        dart_of[(u, v)] = 2 * e
        dart_of[(v, u)] = 2 * e + 1
        tail += [u, v]
        head += [v, u]
    return edges, dart_of, tail, head


def _is_balanced(g: Graph, rs: RotationSystem) -> bool:
    """True iff every cycle has positive sign product (orientable embedding)."""
    if not rs.negative_edges:
        return True
    potential = [0] * g.n
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if not seen[v]:
                seen[v] = True
                potential[v] = potential[u] ^ (rs.sign(u, v) < 0)
                stack.append(v)
    for u, v in g.edges():
        if (potential[u] ^ potential[v]) != (rs.sign(u, v) < 0):
            return False
    return True


def trace_faces(g: Graph, rs: RotationSystem) -> EmbeddingSummary:
    """Trace all face walks of the embedding determined by ``rs``.

    For orientable systems every dart lies on exactly one walk; with negative
    signs a one-sided face traverses some darts twice, but every edge still
    contributes exactly two dart slots over all walks, so the lengths always
    sum to 2m.
    """
    if g.n < 1 or g.m < 1:
        raise ValueError("face tracing needs at least one edge")
    if not g.is_connected():
        raise ValueError("face tracing is defined for connected graphs")
    rs.validate(g)

    edges, dart_of, tail, head = _dart_tables(g)
    nd = 2 * g.m
    rot_next = [dict() for _ in range(g.n)]
    rot_prev = [dict() for _ in range(g.n)]
    for v, rot in enumerate(rs.rotations):
        k = len(rot)
        for i, x in enumerate(rot):
            rot_next[v][x] = rot[(i + 1) % k]
            rot_prev[v][x] = rot[(i - 1) % k]
    neg = [rs.sign(tail[d], head[d]) < 0 for d in range(nd)]

    def next_state(state: int) -> int:
        d, s = state >> 1, state & 1
        s2 = s ^ neg[d]
        v = head[d]
        w = rot_prev[v][tail[d]] if s2 else rot_next[v][tail[d]]
        return (dart_of[(v, w)] << 1) | s2

    def mirror(state: int) -> int:
        d, s = state >> 1, state & 1
        return ((d ^ 1) << 1) | (1 ^ s ^ neg[d])

    visited = [False] * (2 * nd)
    walks = []
    # Forward-direction states first: without negative signs every face then
    # gets traced from its forward orbit, so each dart appears exactly once
    # across the walks instead of a face showing up mirrored.
    starts = [2 * d for d in range(nd)] + [2 * d + 1 for d in range(nd)]
    for start in starts:
        if visited[start]:
            continue
        orbit = [start]
        visited[start] = True
        state = next_state(start)
        while state != start:
            orbit.append(state)
            visited[state] = True
            state = next_state(state)
        self_mirrored = mirror(start) in set(orbit)
        for s in orbit:
            visited[mirror(s)] = True
        if self_mirrored:
            darts = [s >> 1 for s in orbit[: len(orbit) // 2]]
        else:
            darts = [s >> 1 for s in orbit]
        walks.append(tuple((tail[d], head[d]) for d in darts))

    lengths = tuple(len(w) for w in walks)
    if sum(lengths) != nd:
        raise AssertionError("face walks do not cover each edge exactly twice")
    per_edge: dict[tuple[int, int], list[int]] = {e: [] for e in edges}
    for walk, length in zip(walks, lengths):
        for u, v in walk:
            per_edge[(u, v) if u < v else (v, u)].append(length)
    edge_face_lengths = {}
    for e, occ in per_edge.items():
        if len(occ) != 2:
            raise AssertionError(f"edge {e} appears {len(occ)} times across faces")
        edge_face_lengths[e] = (min(occ), max(occ))

    return EmbeddingSummary(
        face_walks=tuple(walks),
        face_lengths=lengths,
        edge_face_lengths=edge_face_lengths,
        chi=g.n - g.m + len(walks),
        orientable=_is_balanced(g, rs),
    )


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


# ---------------------------------------------------------------------------
# Closed-form oracle for complete and complete bipartite graphs
# ---------------------------------------------------------------------------


def ringel_chi(family: str, *params: int, side: str = "overall") -> int:
    """Classical genus formulas for K_n and K_{m,n}, used as a test oracle.

    ``side`` selects "orientable", "nonorientable", or "overall" (the max).
    The non-orientable genus of K_7 is 3, one more than its formula value.
    Planar members sit on the projective plane as well, giving chi 1 on the
    non-orientable side.
    """
    key = family.lower()
    if key == "kn":
        (n,) = params
        if n < 3:
            raise ValueError("oracle covers K_n for n >= 3")
        quad = (n - 3) * (n - 4)
        h = -(-quad // 12) if quad > 0 else 0
        k = 3 if n == 7 else (-(-quad // 6) if quad > 0 else 0)
    elif key == "kmn":
        a, b = params
        if a < 2 or b < 2:
            raise ValueError("oracle covers K_{m,n} for m, n >= 2")
        quad = (a - 2) * (b - 2)
        h = -(-quad // 4) if quad > 0 else 0
        k = -(-quad // 2) if quad > 0 else 0
    else:
        raise ValueError(f"oracle knows 'kn' and 'kmn', not {family!r}")
    chi_or = 2 - 2 * h
    chi_nonor = 1 if k == 0 else 2 - k
    if side == "orientable":
        return chi_or
    if side == "nonorientable":
        return chi_nonor
    if side == "overall":
        return max(chi_or, chi_nonor)
    raise ValueError(f"side must be orientable/nonorientable/overall, not {side!r}")


# ---------------------------------------------------------------------------
# Maximum Euler characteristic search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SideResult:
    """Outcome for one orientability class.

    ``chi`` is the best value found (None if nothing was traced);
    ``exhaustive`` means the full quotiented space was enumerated;
    ``certified`` means the value is provably the maximum (exhaustive, a
    proven combinatorial upper bound was attained, or a planarity identity).
    """

    chi: int | None
    witness: RotationSystem | None
    exhaustive: bool
    certified: bool
    searched: int = 0


@dataclass(frozen=True)
class ChiSearchResult:
    chi: int | None
    witness: RotationSystem | None
    exhaustive: bool
    certified: bool
    steps_used: int
    budget: int
    orientable: SideResult
    nonorientable: SideResult | None


# -- exact reductions preserving chi ----------------------------------------


def _reduce_graph(g: Graph) -> tuple[dict[int, set[int]], list[tuple]]:
    """Strip pendant vertices and suppress suppressible degree-2 vertices.

    Both moves preserve the set of surfaces the graph embeds in, hence chi
    on both orientability classes.  Returns the core adjacency (original
    labels) and the reduction ops, in order.
    """
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    ops: list[tuple] = []
    changed = True
    while changed and len(adj) > 1:
        changed = False
        for v in sorted(adj):
            if len(adj) == 1:
                break
            deg = len(adj[v])
            if deg == 1:
                (x,) = adj[v]
                adj[x].discard(v)
                del adj[v]
                ops.append(("pendant", v, x))
                changed = True
            elif deg == 2:
                x, y = sorted(adj[v])
                if x not in adj[y]:
                    adj[x].discard(v)
                    adj[y].discard(v)
                    adj[x].add(y)
                    adj[y].add(x)
                    del adj[v]
                    ops.append(("suppress", v, x, y))
                    changed = True
    return adj, ops


def _lift_witness(core_rs: dict[int, list[int]], neg: set[tuple[int, int]],
                  ops: list[tuple], n: int) -> RotationSystem:
    """Undo the reductions, rebuilding a rotation system on all n vertices."""
    rot = {v: list(r) for v, r in core_rs.items()}
    neg = set(neg)
    for op in reversed(ops):
        if op[0] == "pendant":
            _, leaf, attach = op
            rot.setdefault(attach, []).append(leaf)
            rot[leaf] = [attach]
        else:
            _, v, x, y = op
            rot[x][rot[x].index(y)] = v
            rot[y][rot[y].index(x)] = v
            rot[v] = [x, y]
            e = (min(x, y), max(x, y))
            if e in neg:
                neg.discard(e)
                neg.add((min(x, v), max(x, v)))
    return RotationSystem(
        rotations=tuple(tuple(rot.get(v, ())) for v in range(n)),
        negative_edges=frozenset(neg),
    )


def _core(g: Graph) -> tuple[Graph, list[int], list[tuple]]:
    """The reduced core relabelled 0..k-1, its original labels, and the ops."""
    core_adj, ops = _reduce_graph(g)
    core_labels = sorted(core_adj)
    relabel = {v: i for i, v in enumerate(core_labels)}
    core = Graph.from_edges(
        len(core_labels),
        [
            (relabel[u], relabel[v])
            for u in core_labels
            for v in core_adj[u]
            if u < v
        ],
    )
    return core, core_labels, ops


# -- scheme space ------------------------------------------------------------


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


class _SchemeSpace:
    """Quotiented enumeration space of rotation schemes for a core graph.

    Vertex rotations are anchored at the smallest neighbour, listed in
    ``itertools.permutations`` order of the rest.  At the pivot (smallest
    max-degree vertex) the candidate list is either a single fixed rotation
    (complete or complete bipartite cores, where the vertex stabiliser
    realises every cyclic order) or one representative per reversal pair
    (reflection of the whole scheme preserves chi).
    """

    def __init__(self, core: Graph, signed: bool):
        self.g = core
        self.signed = signed
        self.edges, self.dart_of, self.tail, self.head = _dart_tables(core)
        degrees = [core.degree(v) for v in range(core.n)]
        self.pivot = max(range(core.n), key=lambda v: (degrees[v], -v))
        full_fix = _is_complete(core) or _is_complete_bipartite(core)
        self.candidates: list[list[tuple[int, ...]]] = []
        for v in range(core.n):
            nbrs = sorted(core.neighbors(v))
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

        # Non-tree edges carry the free signs; spanning-tree edges stay +1.
        tree: set[int] = set()
        seen = {0}
        frontier = [0]
        edge_index = {e: i for i, e in enumerate(self.edges)}
        while frontier:
            u = frontier.pop()
            for v in core.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    tree.add(edge_index[(min(u, v), max(u, v))])
                    frontier.append(v)
        self.free_edges = [i for i in range(core.m) if i not in tree]
        self.sign_count = (1 << len(self.free_edges)) - 1 if signed else 1

        self.n_rot = 1
        for c in self.rot_counts:
            self.n_rot *= c
        self.total = self.n_rot * self.sign_count
        self.states = 4 * core.m if signed else 2 * core.m

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
        digits, sign_mask = self.decode(index)
        rotations = tuple(self.candidates[v][digits[v]] for v in range(self.g.n))
        neg = frozenset(
            self.edges[self.free_edges[b]]
            for b in range(len(self.free_edges))
            if sign_mask >> b & 1
        )
        return RotationSystem(rotations=rotations, negative_edges=neg)


def _face_length_upper_bound(core: Graph) -> int:
    """Proven cap on chi from face-length counting on the core.

    Cores have min degree >= 2 (or a single edge), so face walks never
    backtrack immediately and every face has length >= girth; with one edge
    the unique face has length 2.
    """
    if core.m == 1:
        return 2
    shortest = girth(core)
    min_face = 2 if shortest == math.inf else int(shortest)
    return min(2, core.n - core.m + (2 * core.m) // min_face)


# -- scalar sweep ------------------------------------------------------------


def _sweep_scalar(space: _SchemeSpace, target: int,
                  limit: int) -> tuple[int, int | None, int]:
    """Trace schemes ``0..limit-1`` in order; returns (best, best_index, reached).

    ``reached`` is the number of schemes traced: ``limit``, or fewer once
    ``target`` is hit.  ``best_index`` is the first scheme that attains
    ``best`` (None if none was traced).
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
    for index in range(limit):
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
            if best >= target:
                return best, best_index, index + 1
    return best, best_index, limit


# -- vectorised sweep --------------------------------------------------------


def _contracted_tracer(space: _SchemeSpace):
    """Tracing by contraction: ``(window_chi, max_span)`` for ``space``.

    ``window_chi(lo, hi)`` is the array of chi over the flat schemes
    ``lo..hi-1``, and ``max_span`` the most schemes one call should take.
    In the flat order the sign mask changes fastest, then the rotation at
    ``L``, the last vertex with more than one candidate.  So a range of
    schemes is traced once per distinct (other rotations, sign mask) pair,
    with every state entering ``L`` made absorbing: one min-label doubling
    gives the faces that avoid ``L`` and, for each state leaving ``L``, the
    state at which its walk next enters ``L``.  For each scheme, ``L``'s
    rotation followed by that jump is the first-return map on the at most
    ``2 deg(L)`` states entering ``L``; its cycles are the faces through
    ``L``, counted by a second doubling.  On the signed side
    ``mirror(leave(e))`` lies on the mirror orbit of ``e``'s, which pairs
    orbits into faces.  Past one block, a range is capped so that neither
    stage's arrays hold more than a quarter of the cells of one block's
    full next-state table.
    """
    import numpy as np

    g = space.g
    nd = 2 * g.m
    n_states = space.states
    signed = space.signed
    signs = space.sign_count

    # Per-vertex tables: rows are candidate rotations, columns the incoming
    # darts at the vertex (fixed order), entries the successor dart ids.
    in_cols = []
    fwd_tables = []
    bwd_tables = []
    for v in range(g.n):
        cols = [space.dart_of[(x, v)] for x in sorted(g.neighbors(v))]
        in_cols.append(np.array(cols, dtype=np.intp))
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

    last = max((v for v in range(g.n) if space.rot_counts[v] > 1), default=g.n - 1)
    rot_last = space.rot_counts[last]
    # States entering ``last``, numbered by slot: dart column j, and on the
    # signed side direction s at slot 2j + s.
    if signed:
        enter = np.stack([2 * in_cols[last], 2 * in_cols[last] + 1], axis=1).ravel()
    else:
        enter = in_cols[last]
    width = len(enter)
    slot_of = np.full(n_states, -1, dtype=np.intp)
    slot_of[enter] = np.arange(width)
    labels = np.arange(n_states, dtype=np.int16)
    labels_absorbing = labels.copy()
    labels_absorbing[enter] = -1  # below every label, so walks into ``last`` are no face
    slots = np.arange(width, dtype=np.int16)
    doubling = max(1, math.ceil(math.log2(n_states)))
    doubling_last = math.ceil(math.log2(width))
    if signed:
        darts = (labels >> 1).astype(np.intp)
        mirror_base = 2 * (darts ^ 1) + (1 ^ (labels & 1))

    def trace_prefixes(keys):
        """Faces avoiding ``last`` and the jump table, per (rotations, signs) key."""
        count = len(keys)
        rest = keys // signs if signed else keys.copy()
        fwd = np.zeros((count, nd), dtype=np.int16)
        bwd = np.zeros((count, nd), dtype=np.int16) if signed else None
        for v in range(last - 1, -1, -1):
            rows = rest % space.rot_counts[v]
            rest //= space.rot_counts[v]
            fwd[:, in_cols[v]] = fwd_tables[v][rows]
            if signed:
                bwd[:, in_cols[v]] = bwd_tables[v][rows]
        for v in range(last + 1, g.n):
            fwd[:, in_cols[v]] = fwd_tables[v][0]
            if signed:
                bwd[:, in_cols[v]] = bwd_tables[v][0]
        if not signed:
            nxt = fwd
        else:
            sign_mask = keys % signs + 1
            neg = ((sign_mask[:, None] >> free_bits[None, :]) & 1).astype(np.int16)
            neg &= free_mask_cols[None, :]
            nxt = np.empty((count, n_states), dtype=np.int16)
            nxt[:, 0::2] = 2 * np.where(neg == 0, fwd, bwd) + neg  # states (d, 0)
            nxt[:, 1::2] = 2 * np.where(neg == 1, fwd, bwd) + (1 - neg)  # states (d, 1)
        rows = np.arange(0, count * n_states, n_states, dtype=np.intp)[:, None]
        reach = (nxt + rows).ravel()
        entering = (enter + rows).ravel()
        reach[entering] = entering
        lbl = np.tile(labels_absorbing, count)
        for _ in range(doubling):
            np.minimum(lbl, lbl.take(reach), out=lbl)
            reach = reach.take(reach)
        lbl = lbl.reshape(count, n_states)
        roots = lbl == labels
        if signed:
            mirror = mirror_base ^ neg[:, darts]
            roots &= lbl.take(mirror + rows) >= labels
        return roots.sum(axis=1), slot_of.take(reach % n_states)

    def window_chi(lo, hi):
        flat = np.arange(lo, hi, dtype=np.int64)
        if signed:
            sign_mask = flat % signs + 1
            flat //= signs
        rows_last = flat % rot_last
        keys = flat // rot_last
        if signed:
            keys = keys * signs + (sign_mask - 1)
        keys, which = np.unique(keys, return_inverse=True)
        avoiding, jump = trace_prefixes(keys)

        fw = fwd_tables[last][rows_last].astype(np.intp)
        if not signed:
            leave = fw
        else:
            bw = bwd_tables[last][rows_last].astype(np.intp)
            cols = in_cols[last]
            neg_in = (sign_mask[:, None] >> free_bits[cols]) & 1 & free_mask_cols[cols]
            s2 = np.stack([neg_in, 1 ^ neg_in], axis=2).reshape(len(flat), width)
            out = np.where(s2 == 1, np.repeat(bw, 2, axis=1), np.repeat(fw, 2, axis=1))
            leave = 2 * out + s2
            neg_out = (sign_mask[:, None] >> free_bits[out]) & 1 & free_mask_cols[out]
            mirror = slot_of.take(2 * (out ^ 1) + (1 ^ s2 ^ neg_out))
        first_return = jump.take(which[:, None] * n_states + leave)
        rows = np.arange(0, len(flat) * width, width, dtype=np.intp)[:, None]
        reach = (first_return + rows).ravel()
        lbl = np.tile(slots, len(flat))
        for step in range(doubling_last):
            np.minimum(lbl, lbl.take(reach), out=lbl)
            if step + 1 < doubling_last:
                reach = reach.take(reach)
        lbl = lbl.reshape(len(flat), width)
        roots = lbl == slots
        if signed:
            roots &= lbl.take(mirror + rows) >= slots
        return g.n - g.m + avoiding[which] + roots.sum(axis=1)

    def pairs_at_most(span):
        per_prefix = rot_last * signs
        return min(span, signs * (-(-span // per_prefix) + 1))

    cells = _VECTOR_BLOCK * n_states // 4
    max_span = _VECTOR_BLOCK
    while 2 * max_span * width <= cells and pairs_at_most(2 * max_span) * n_states <= cells:
        max_span *= 2
    return window_chi, max_span


def _sweep_vector(space: _SchemeSpace, target: int,
                  limit: int) -> tuple[int, int | None, int]:
    """Same contract as the scalar sweep, trading memory for numpy batches.

    Schemes are traced a window at a time by :func:`_contracted_tracer`:
    once per distinct (other rotations, sign mask) pair away from the
    fastest-changing vertex ``L``, then per scheme only through the states
    entering ``L``.  A window starts at ``_VECTOR_BLOCK`` schemes, doubles
    up to the tracer's cap, and never reaches past ``limit``.
    """
    import numpy as np

    best = -(10**9)
    best_index = None
    window_chi, max_span = _contracted_tracer(space)
    span = _VECTOR_BLOCK
    index = 0
    while index < limit:
        end = min(limit, index + span)
        chi = window_chi(index, end)
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
        index = end
        span = min(2 * span, max_span)
    return best, best_index, limit


def _search_side(core: Graph, signed: bool, cap: int, early_exit: bool, left: int,
                 strict: bool, lift: Callable[[RotationSystem], RotationSystem]) -> SideResult:
    """Sweep one orientability class of ``core``, whose chi is at most ``cap``.

    The sweep traces the schemes that ``left`` budget steps pay for in
    full, at ``space.states`` steps each, so the side costs
    ``searched * space.states`` steps.  Strict mode raises when the budget
    stops the sweep short of both the end of the space and the target.
    Both sweeps enumerate the identical flat order and report the first
    scheme attaining the best value, so the result does not depend on which
    one runs: pure Python wins on small spaces, numpy on large ones.
    """
    space = _SchemeSpace(core, signed)
    target = cap if early_exit else 10**9
    limit = max(0, min(space.total, left // space.states))
    sweep = _sweep_vector if space.total * space.states > _VECTOR_THRESHOLD else _sweep_scalar
    best, index, reached = sweep(space, target, limit)
    if strict and reached < space.total and best < target:
        raise BudgetExceededError("face-tracing budget exhausted in strict mode")
    found = index is not None
    exhaustive = reached == space.total
    return SideResult(
        chi=best if found else None,
        witness=lift(space.scheme(index)) if found else None,
        exhaustive=exhaustive,
        certified=found and (exhaustive or best >= cap),
        searched=reached,
    )


def max_euler_characteristic(
    g: Graph,
    budget: int = DEFAULT_BUDGET,
    strict: bool = False,
    orientable_only: bool = False,
    early_exit: bool = True,
) -> ChiSearchResult:
    """Largest Euler characteristic over all 2-cell embeddings.

    Searches rotation schemes of the reduced core (pendants stripped,
    suppressible degree-2 vertices contracted; both moves preserve chi).
    Each orientability class is swept once by :func:`_search_side`: the
    orientable class first, then signed schemes for the non-orientable
    class; a planar outcome settles the non-orientable value at 1 without a
    sweep.  ``early_exit=False`` forces full enumeration of the quotient so
    the ``exhaustive`` flag can be earned, not just ``certified``.

    Budget is counted in face-tracing steps and is a hard cap: each scheme
    costs its count of states, ``2m`` orientable and ``4m`` signed on a core
    of ``m`` edges, and a side traces only the schemes that what remains
    pays for in full.  So ``steps_used`` is ``2m`` times the orientable
    side's ``searched`` plus ``4m`` times the signed side's, at most
    ``budget``, whichever sweep runs.  In strict mode running out raises
    :class:`BudgetExceededError`; otherwise partial results are returned
    with flags cleared.
    """
    if g.n < 1:
        raise ValueError("empty graph")
    if not g.is_connected():
        raise ValueError("chi search is defined for connected graphs; split components first")

    core, core_labels, ops = _core(g)

    def lift(core_rs: RotationSystem) -> RotationSystem:
        rot = {
            core_labels[i]: [core_labels[x] for x in core_rs.rotations[i]]
            for i in range(core.n)
        }
        neg = {
            (min(core_labels[u], core_labels[v]), max(core_labels[u], core_labels[v]))
            for u, v in core_rs.negative_edges
        }
        return _lift_witness(rot, neg, ops, g.n)

    if core.m == 0:
        # The core collapsed to a point: the graph is a tree (sphere).
        witness = lift(RotationSystem(rotations=((),), negative_edges=frozenset()))
        side = SideResult(chi=2, witness=witness, exhaustive=True, certified=True)
        nonor = None if orientable_only else SideResult(
            chi=1, witness=None, exhaustive=False, certified=True
        )
        return ChiSearchResult(
            chi=2, witness=witness, exhaustive=True, certified=True,
            steps_used=0, budget=budget, orientable=side, nonorientable=nonor,
        )

    chi_cap = _face_length_upper_bound(core)
    cap_or = chi_cap if chi_cap % 2 == 0 else chi_cap - 1
    cap_nonor = min(1, chi_cap)

    or_side = _search_side(core, False, cap_or, early_exit, budget, strict, lift)
    steps = 2 * core.m * or_side.searched
    nonor_side: SideResult | None = None
    if not orientable_only:
        if or_side.certified and or_side.chi == 2:
            # Planar: the plane drawing sits inside a disc of the projective
            # plane, so the non-orientable side is exactly 1 (no 2-cell
            # scheme realises it for trees and some planar cores).
            nonor_side = SideResult(chi=1, witness=None, exhaustive=False, certified=True)
        else:
            # The core has a cycle (it is not a tree, which returned above,
            # and both reductions keep the cycle rank), so some edge sign is
            # free and the signed space is not empty.
            nonor_side = _search_side(core, True, cap_nonor, early_exit, budget - steps,
                                      strict, lift)
            steps += 4 * core.m * nonor_side.searched

    # Combine.  The non-orientable side never exceeds 1, so a certified
    # planar outcome settles the overall maximum by itself.
    sides = [s for s in (or_side, nonor_side) if s is not None and s.chi is not None]
    overall_chi = max(s.chi for s in sides) if sides else None
    overall_witness = None
    for s in sides:
        if s.chi == overall_chi and s.witness is not None:
            overall_witness = s.witness
            break
    if nonor_side is None:
        overall_exhaustive = or_side.exhaustive
        overall_certified = or_side.certified
    else:
        or_settles = or_side.certified and or_side.chi == 2
        overall_exhaustive = or_side.exhaustive and (or_settles or nonor_side.exhaustive)
        overall_certified = or_side.certified and (
            nonor_side.certified or or_side.chi >= cap_nonor
        )
    return ChiSearchResult(
        chi=overall_chi,
        witness=overall_witness,
        exhaustive=overall_exhaustive,
        certified=overall_certified,
        steps_used=steps,
        budget=budget,
        orientable=or_side,
        nonorientable=nonor_side,
    )
