"""2-cell embeddings of connected graphs via rotation systems with edge signs.

A rotation system assigns each vertex a cyclic order of its neighbours; an
edge sign of -1 reverses local orientation when the edge is crossed, which
encodes non-orientable embeddings.  :func:`trace_faces` is the one face
tracer: faces are orbits of the next-dart map on (dart, flipped) states,
each face a mirror-image pair of orbits, and an orientable system never
flips, so its faces are the orbits of its darts.  Every witness behind a
certified chi is re-traced by it: the planarity test's plane rotation
system and each scheme the branch-and-bound finds.

Each orientability class is decided by a face-building branch-and-bound
(:func:`_branch_and_bound`) that both finds and refutes: it decides "some
scheme on this side has chi >= t" for t from the side's cap down, and the
first t that holds is certified, as every larger t was refuted in full.
It places a state only while enough faces can still close, counting for
the open face the shortest walk back to its start.  Caps come from
combinatorial face-length counting.  The sphere is decided
once, before any search: a tree's core collapses to a point; a core with
fewer than six vertices of degree >= 3 and fewer than five of degree >= 4
is planar by counting, since a subdivided K3,3 or K5 has that many branch
vertices (Kuratowski); any other core whose cap allows the sphere is tested
for planarity (:mod:`.planarity`).  A point, a counted core, or a planar
core once its rotation system from the test re-traces to chi 2, is
certified at chi 2 orientably and 1 non-orientably with nothing searched.
Otherwise orientable chi is at most 0 and that side is searched first; the
signed side is searched only while the orientable side is short of the
signed side's cap, since it could not raise chi otherwise.

``certified`` marks a proven maximum: the sphere, or the branch-and-bound's
refutation of every larger value.  Witnesses are built when first read:
a counted core's plane witness is then embedded by the planarity test and
re-traced to chi 2, and every witness is lifted to the graph as given only
then.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, ClassVar

from .graphs import Graph, _relabel, girth
from .planarity import planar_rotations

__all__ = [
    "RotationSystem",
    "EmbeddingSummary",
    "SideResult",
    "ChiSearchResult",
    "DEFAULT_BUDGET",
    "trace_faces",
    "max_euler_characteristic",
    "ringel_chi",
]

DEFAULT_BUDGET = 100_000_000

@dataclass(frozen=True)
class RotationSystem:
    """Per-vertex neighbour cycles plus the set of negative edges.

    ``rotations[v]`` lists the neighbours of ``v`` in cyclic order; an empty
    ``negative_edges`` set is the orientable case.  Each negative edge is
    written ``(u, v)`` with ``u < v``, as ``sign`` looks it up.
    """

    rotations: tuple[tuple[int, ...], ...]
    negative_edges: frozenset[tuple[int, int]] = frozenset()

    def validate(self, g: Graph) -> None:
        if len(self.rotations) != g.n:
            raise ValueError(f"expected {g.n} rotations, got {len(self.rotations)}")
        for v, rot in enumerate(self.rotations):
            mask = 0
            for u in rot:
                mask |= 1 << u if u >= 0 else -1  # a negative entry matches no mask
            if mask != g.adjacency[v] or len(rot) != mask.bit_count():
                raise ValueError(f"rotation at vertex {v} is not a permutation of its neighbours")
        for u, v in self.negative_edges:
            if not (0 <= u < v < g.n and g.adjacency[u] >> v & 1):
                raise ValueError(f"negative sign on {(u, v)}, which is not an edge (u, v) with u < v")

    def sign(self, u: int, v: int) -> int:
        return -1 if (min(u, v), max(u, v)) in self.negative_edges else 1

    def to_json_dict(self) -> dict:
        return {
            "rotations": [list(rot) for rot in self.rotations],
            "negative_edges": [list(e) for e in sorted(self.negative_edges)],
        }


@dataclass(frozen=True)
class EmbeddingSummary:
    """Faces of one embedding: walks, lengths, chi and orientability."""

    face_walks: tuple[tuple[tuple[int, int], ...], ...]
    face_lengths: tuple[int, ...]
    chi: int
    orientable: bool


def _is_balanced(g: Graph, rs: RotationSystem) -> bool:
    """True iff every cycle has positive sign product (orientable embedding):
    each edge agrees with sides switched across negative edges from vertex 0."""
    side: list[bool | None] = [None] * g.n
    side[0], stack = False, [0]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            s = side[u] ^ (rs.sign(u, v) < 0)
            if side[v] is None:
                side[v] = s
                stack.append(v)
            elif side[v] != s:
                return False
    return True


def trace_faces(g: Graph, rs: RotationSystem) -> EmbeddingSummary:
    """Trace all face walks of the embedding determined by ``rs``.

    A walk reaching ``v`` along the dart ``(u, v)`` leaves along ``(v, w)``,
    ``w`` following ``u`` at ``v``, or preceding it while the walk is
    flipped; crossing a negative edge flips it.  A face is a mirror-image
    pair of orbits of these (dart, flipped) states: the first traced gives
    the walk and marks its mirror seen.  Walks start from the forward
    states in dart order, ``(u, v)`` then ``(v, u)`` for each edge of
    ``g.edges()``.  No face needs a flipped start: an orbit that never
    leaves the flipped side crosses no negative edge, so its mirror holds
    forward states.  An orientable system never flips, so its faces are the
    orbits of the darts.  With negative signs a face may pass a dart twice,
    but every edge still fills exactly two slots, so the lengths sum to 2m.
    """
    if g.n < 1 or g.m < 1:
        raise ValueError("face tracing needs at least one edge")
    if not g.is_connected():
        raise ValueError("face tracing is defined for connected graphs")
    rs.validate(g)

    after = {}  # (u, v) -> w, the neighbour following u at v
    for v, rot in enumerate(rs.rotations):
        w = rot[0]
        for u in reversed(rot):
            after[u, v] = w
            w = u
    # The neighbour after u at v, or before it while the walk is flipped.
    turn = (after, {(w, v): u for (u, v), w in after.items()})
    flips = {d for u, v in rs.negative_edges for d in ((u, v), (v, u))}
    walks = []
    seen: set[tuple[int, int, bool]] = set()
    for u, v in g.edges():
        for start in ((u, v, False), (v, u, False)):
            # No orbit is its own mirror, so the walk runs round its face
            # once: the mirror map m reverses orbits, so such an orbit would
            # hold a state x with m(x) = x, but m reverses the dart, or with
            # m(x) = f(x), but the step f keeps the side bit that m flips.
            walk, state = [], start
            while state not in seen:  # until the orbit is back at start
                seen.add(state)
                a, b, s = state
                s ^= (a, b) in flips
                walk.append((a, b))
                seen.add((b, a, not s))
                state = (b, turn[s][a, b], s)
            if walk:
                walks.append(tuple(walk))
    darts = Counter(chain.from_iterable(walks))
    for u, v in g.edges():
        if darts[u, v] + darts[v, u] != 2:
            raise AssertionError(f"edge {(u, v)} does not fill exactly two face slots")

    lengths = tuple(map(len, walks))
    if sum(lengths) != 2 * g.m:
        raise AssertionError("face walks do not cover each edge exactly twice")
    return EmbeddingSummary(
        face_walks=tuple(walks),
        face_lengths=lengths,
        chi=g.n - g.m + len(walks),
        orientable=not rs.negative_edges or _is_balanced(g, rs),
    )


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

    ``chi`` is the best value found (None if nothing was found);
    ``certified`` means the value is provably the maximum.  The sphere
    branch certifies both sides of a planar core or a tree's point core:
    2 with the plane witness, and 1 by the planar identity with no witness.
    Otherwise the branch-and-bound certifies a value by refuting every
    larger one.  ``nodes`` counts the states the branch-and-bound placed.
    ``searched`` is a class constant, always 0 and no field: no search
    counts schemes, and only the benchmark's counters read it.

    ``witness`` is built by ``build`` when first read, then kept; it is None
    when there is no builder.  Building re-checks what the value rests on:
    a counted core's plane witness must come out of the planarity test and
    re-trace to chi 2 (an ``AssertionError`` otherwise).  ``build`` takes no
    part in comparisons, so two sides compare equal on their values alone.
    """

    chi: int | None
    certified: bool
    nodes: int = 0
    build: Callable[[], RotationSystem] | None = field(default=None, repr=False, compare=False)
    searched: ClassVar[int] = 0

    @functools.cached_property
    def witness(self) -> RotationSystem | None:
        return None if self.build is None else self.build()


@dataclass(frozen=True)
class ChiSearchResult:
    """The overall maximum and each side's outcome.

    ``nonorientable`` is None under ``orientable_only``, and when the
    orientable side was certified at or above the signed side's cap, so that
    the signed side could not raise chi.  ``steps_used`` is the sum of the
    sides' ``nodes``.  Only the budget leaves a side undecided, so
    ``certified`` is false exactly when it stopped some side.  ``witness``
    is the witness of the side ``chi`` comes from, built when first read.
    """

    chi: int | None
    certified: bool
    steps_used: int
    budget: int
    orientable: SideResult
    nonorientable: SideResult | None

    @property
    def witness(self) -> RotationSystem | None:
        # chi is that of the first side with the largest chi, orientable first.
        side = self.orientable if self.chi == self.orientable.chi else self.nonorientable
        return side.witness


# -- exact reductions preserving chi ----------------------------------------


def _lift_witness(core_rs: RotationSystem, labels: list[int], ops: list[tuple],
                  n: int) -> RotationSystem:
    """A scheme of the core as a scheme of the graph it was reduced from.

    Core vertex ``i`` is vertex ``labels[i]``; the ``ops`` of :func:`_core`
    are then undone last first on all ``n`` vertices: a pendant rejoins the
    end of its neighbour's rotation, and a suppressed vertex ``v`` takes the
    place of ``y`` at ``x`` and of ``x`` at ``y``, the edge's sign moving
    onto ``(x, v)``.
    """
    rot: list[list[int]] = [[] for _ in range(n)]
    for i, r in enumerate(core_rs.rotations):
        rot[labels[i]] = [labels[x] for x in r]
    neg = {tuple(sorted((labels[u], labels[v]))) for u, v in core_rs.negative_edges}
    for op in reversed(ops):
        if op[0] == "pendant":
            _, leaf, attach = op
            rot[attach].append(leaf)
            rot[leaf] = [attach]
        else:
            _, v, x, y = op
            rot[x][rot[x].index(y)] = v
            rot[y][rot[y].index(x)] = v
            rot[v] = [x, y]
            e = (min(x, y), max(x, y))
            if e in neg:
                neg.remove(e)
                neg.add((min(x, v), max(x, v)))
    return RotationSystem(tuple(map(tuple, rot)), frozenset(neg))


def _core(g: Graph) -> tuple[Graph, list[int], list[tuple]]:
    """Strip pendant vertices and suppress suppressible degree-2 vertices.

    Both moves preserve the set of surfaces the graph embeds in, hence chi
    on both orientability classes.  One worklist holds the vertices of
    degree at most 2, in label order first; a neighbour a move leaves at
    degree at most 2 joins it again.  Returns the core, its surviving
    vertices renumbered 0..k-1 in label order by ``graphs._relabel`` (``g``
    itself when nothing reduces), its original labels, and the reduction
    ops, in order.
    """
    adj = list(g.adjacency)
    alive = (1 << g.n) - 1
    ops: list[tuple] = []
    work = [v for v in range(g.n) if adj[v].bit_count() <= 2]
    for v in work:
        if not alive & (alive - 1):
            break  # one vertex left
        if not alive >> v & 1:
            continue
        x, y = (adj[v] & -adj[v]).bit_length() - 1, adj[v].bit_length() - 1
        if x == y:
            ops.append(("pendant", v, x))
        elif adj[x] >> y & 1:
            continue  # suppressing v would double the edge x-y
        else:
            adj[x] |= 1 << y
            adj[y] |= 1 << x
            ops.append(("suppress", v, x, y))
        alive ^= 1 << v
        for u in {x, y}:
            adj[u] ^= 1 << v
            if adj[u].bit_count() <= 2:
                work.append(u)
    if not ops:
        return g, list(range(g.n)), ops
    labels = [v for v in range(g.n) if alive >> v & 1]
    return _relabel(adj, labels), labels, ops


# -- the sphere, caps and face counts ----------------------------------------


def _planar_by_count(core: Graph) -> bool:
    """True when ``core`` has too few branch vertices to be nonplanar.

    By Kuratowski's theorem a nonplanar graph contains a subdivision of K5,
    whose five branch vertices have degree 4, or of K3,3, whose six have
    degree 3.  So a graph with fewer than six vertices of degree >= 3 and
    fewer than five of degree >= 4 is planar.

    This counts every core of at most 8 edges.  A core that is not a point
    has minimum degree 2, so six vertices of degree >= 3 force
    ``2m >= 18 + 2(n - 6)``, that is ``m >= n + 3 >= 9``, and five of degree
    >= 4 force ``2m >= 20 + 2(n - 5)``, that is ``m >= n + 5 >= 10``.
    """
    degrees = [mask.bit_count() for mask in core.adjacency]
    return sum(d >= 3 for d in degrees) < 6 and sum(d >= 4 for d in degrees) < 5


def _planar_by_rank(g: Graph) -> bool:
    """True when the connected graph ``g`` has cycle rank at most 3, so is planar.

    The cycle rank of a connected graph is ``m - n + 1``, and no subgraph
    has a larger one.  A subdivided K3,3 has cycle rank 9 - 6 + 1 = 4 and a
    subdivided K5 has 10 - 5 + 1 = 6, since subdividing an edge adds one
    vertex and one edge.  So by Kuratowski's theorem a connected graph with
    ``m - n <= 2`` holds neither and is planar, with no core and no count.
    Both reductions of :func:`_core` remove one vertex and one edge, so its
    core would have ``m - n <= 2`` too, and :func:`_planar_by_count` would
    count it planar.  This covers trees.
    """
    return g.m - g.n <= 2


def _lifted_plane(core: Graph, labels: list[int], ops: list[tuple], n: int) -> RotationSystem:
    """A plane scheme of the ``n``-vertex planar graph that :func:`_core` reduced to ``core``.

    The core of a tree is a point; any other core takes the planarity
    test's scheme, re-traced to chi 2 by :func:`_plane_witness`, and
    :func:`_lift_witness` undoes ``ops`` on it.
    """
    if core.m == 0:
        plane = RotationSystem(((),))
    else:
        plane = _plane_witness(core, planar_rotations(core))
    return _lift_witness(plane, labels, ops, n)


def _face_length_upper_bound(core: Graph) -> int:
    """Proven cap on chi from face-length counting on the core.

    ``core`` must have an edge.  A core with an edge has minimum degree 2,
    hence a cycle, so its girth is finite; face walks never backtrack
    immediately, so every face has length at least the girth.
    """
    return min(2, core.n - core.m + (2 * core.m) // girth(core))


def _plane_witness(core: Graph, rotations: tuple[tuple[int, ...], ...] | None) -> RotationSystem:
    """The planarity test's ``rotations`` of ``core``, re-traced to chi 2.

    Raises ``AssertionError`` when the test found none, or when
    :func:`trace_faces` does not trace its rotation system to an orientable
    chi 2.
    """
    if rotations is None:
        raise AssertionError("planarity test finds no plane embedding of a core decided planar")
    plane = RotationSystem(rotations)
    traced = trace_faces(core, plane)
    if traced.chi != 2 or not traced.orientable:
        raise AssertionError("planar rotation system does not re-trace to chi 2")
    return plane


# -- face-building branch-and-bound -----------------------------------------


def _branch_and_bound(core: Graph, t: int, allowance: int,
                      signed: bool) -> tuple[RotationSystem | None, int, bool]:
    """Decide whether some scheme of ``core`` on the given side has chi >= t.

    The side is non-orientable when ``signed``, orientable otherwise.
    Returns ``(witness, nodes, decided)``.  Faces are built one state at a
    time, extending the open face or starting one at the smallest unused
    state; each state placed is a node, and the search stops undecided
    rather than place more than ``allowance``.  Rotations are partial
    ``succ``/``pred`` maps on the darts leaving a vertex that stay injective
    and close no cycle shorter than its degree.  On the orientable side
    every sign is +1 from the start.  On the signed side spanning-tree edges
    stay +1 (switching at vertices makes that no loss); any other sign is
    chosen, +1 first, when the walk first crosses its edge.  A closing face
    marks its mirror orbit used.  At minimum degree 2 no orbit is its own
    mirror, so a face takes at least ``2 girth`` states, counting the
    mirror of each state placed.  The open face closes only by coming back
    to its start, so once it places a state ``x`` it still needs at least
    one state per edge of a shortest path from ``head(x)`` to the start's
    tail.  A state is placed, and a link choice kept, only while the closed
    faces, the open one, and one face per ``2 girth`` of the free states
    left after ``x`` and that walk back reach ``t - n + m``; a link that
    closes the face is always kept.  Vertices are numbered by descending
    degree, so the first faces go round the busiest ones.  Choices sit on an explicit stack, so
    depth costs no recursion.  A complete scheme counts on the signed side
    only if some edge is -1, which makes it non-orientable, and on either
    side only after :func:`trace_faces` re-traces it.  Orientable chi is
    even, so on that side an odd ``t`` is first raised to the even value
    above it, the same question, on which the cut is sharper.
    """
    if not signed:
        t += t % 2
    order = sorted(range(core.n), key=lambda v: -core.degree(v))
    edges = _relabel(core.adjacency, order).edges()
    m = len(edges)
    tail, head = [], []  # dart 2e is edge e = (u, v) read u -> v, dart 2e + 1 is v -> u
    for u, v in edges:
        tail += [u, v]
        head += [v, u]
    need = t - core.n + m
    span = 2 * int(girth(core))
    outs: list[list[int]] = [[] for _ in order]
    for d, u in enumerate(tail):
        outs[u].append(d)
    sign = [-1 if signed else 0] * m  # -1 undecided, 0 for +1, 1 for -1

    # The darts leaving a vertex, linked into chains by its partial rotation;
    # ``far`` maps each end of a chain to the other end.
    succ, pred, far = [-1] * (2 * m), [-1] * (2 * m), list(range(2 * m))
    links = [0] * core.n

    def witness() -> RotationSystem:
        rotations = [()] * core.n
        for v, darts in enumerate(outs):
            a, rot = darts[0], []
            for _ in darts:
                rot.append(order[head[a]])
                a = succ[a]
            rotations[order[v]] = tuple(rot)
        negative = {tuple(sorted((order[u], order[v]))) for (u, v), s in zip(edges, sign) if s}
        rs = RotationSystem(tuple(rotations), frozenset(negative))
        traced = trace_faces(core, rs)
        if traced.chi < t or traced.orientable == signed:
            raise AssertionError("branch-and-bound scheme does not re-trace to its value")
        return rs

    # cost[w][x]: the free states that placing state x uses up at least
    # when the open face started at a dart leaving w, which ``back`` holds
    # for the open face.  The face closes only by walking from head(x) back
    # to w, and each state placed takes its mirror too: 2 for x, and 2 per
    # edge of a shortest path.  The search from w = 0 also finds the
    # spanning tree whose edges stay +1.
    cost = []
    for w in range(core.n):
        dist = [-1] * core.n
        dist[w] = 0
        for u in (queue := [w]):
            for d in outs[u]:
                if dist[head[d]] < 0:
                    dist[head[d]] = dist[u] + 1
                    queue.append(head[d])
                    if not w:
                        sign[d >> 1] = 0
        cost.append([2 + 2 * dist[head[x >> 1]] for x in range(4 * m)])

    used = [False] * (4 * m)
    trail: list = []  # undo records: a state marked used, ~edge for a sign, a link
    choices: list[list] = []  # trail length, registers, subject, alternatives, next
    closed, unused, cur, start, scan, nodes = 0, 4 * m, -1, -1, 0, 0
    while True:
        alternatives = ()
        while True:
            if cur < 0:
                if unused == 0:
                    if closed >= need and (1 in sign) == signed:
                        return witness(), nodes, True
                    break
                while used[scan]:
                    scan += 1
                cur = start = scan
                back = cost[tail[start >> 1]]
            else:
                d = cur >> 1
                if sign[d >> 1] < 0:
                    subject, alternatives = ~(d >> 1), (0, 1)
                    break
                a, s2 = d ^ 1, (cur & 1) ^ sign[d >> 1]
                b = pred[a] if s2 else succ[a]
                if b < 0:
                    v = head[d]
                    closing = links[v] == len(outs[v]) - 1
                    ends = succ if s2 else pred
                    subject = (a, s2)
                    alternatives = [c for c in outs[v]
                                    if c != a and ends[c] < 0 and (closing or far[a] != c)
                                    and (2 * c + s2 == start
                                         or closed + 1 + (unused - back[2 * c + s2]) // span >= need)]
                    break
                cur = 2 * b + s2
                if cur == start:
                    closed += 1
                    cur = -1
                    x = start
                    while True:  # mark the mirror orbit used
                        d, s2 = x >> 1, (x & 1) ^ sign[x >> 2]
                        used[mirror := 2 * (d ^ 1) + (1 ^ s2)] = True
                        trail.append(mirror)
                        x = 2 * (pred[d ^ 1] if s2 else succ[d ^ 1]) + s2
                        if x == start:
                            break
                    continue
            if closed + 1 + (unused - back[cur]) // span < need:
                break
            if nodes >= allowance:
                return None, nodes, False
            nodes += 1
            used[cur] = True
            trail.append(cur)
            unused -= 2  # the state and its mirror
        if alternatives:
            choices.append([len(trail), (closed, unused, cur, start, scan),
                            subject, alternatives, 0])
        while choices and choices[-1][4] == len(choices[-1][3]):
            choices.pop()
        if not choices:
            return None, nodes, True
        top = choices[-1]
        mark, (closed, unused, cur, start, scan), subject, alternatives, k = top
        back = cost[tail[start >> 1]]
        top[4] = k + 1
        while len(trail) > mark:
            rec = trail.pop()
            if type(rec) is tuple:
                x, y, sx, ey = rec
                succ[x] = pred[y] = -1
                links[tail[x]] -= 1
                if sx != y:
                    far[sx], far[ey] = x, y
            elif rec < 0:
                sign[~rec] = -1
            else:
                used[rec] = False
        if type(subject) is int:
            sign[~subject] = alternatives[k]
            trail.append(subject)
        else:
            a, s2 = subject
            x, y = (alternatives[k], a) if s2 else (a, alternatives[k])
            sx, ey = far[x], far[y]
            succ[x], pred[y] = y, x
            links[tail[x]] += 1
            if sx != y:
                far[sx], far[ey] = ey, sx
            trail.append((x, y, sx, ey))


def _search_side(core: Graph, signed: bool, cap: int, left: int,
                 lift: Callable[[RotationSystem], RotationSystem]) -> SideResult:
    """Search one orientability class of ``core``, whose chi is at most ``cap``.

    :func:`_branch_and_bound` decides chi >= t for t from the cap down, by 2
    on the orientable side, whose chi is even, and by 1 on the signed side;
    each node is one step of ``left``.  The first t that holds is the side's
    chi, certified because every larger t was refuted in full.  Every core
    with a cycle has a one- or two-face orientable scheme and a one-face
    non-orientable scheme, so some t above ``n - m`` holds unless the budget
    stops the search first; a side the budget stops returns uncertified.
    """
    nodes = 0
    for best in range(cap, core.n - core.m, -1 if signed else -2):
        witness, spent, decided = _branch_and_bound(core, best, max(0, left - nodes), signed)
        nodes += spent
        if witness is not None or not decided:
            break
    else:
        raise AssertionError("no scheme with at most two faces on a core with a cycle")
    found = witness is not None
    return SideResult(
        chi=best if found else None,
        certified=found,
        nodes=nodes,
        build=functools.partial(lift, witness) if found else None,
    )


def max_euler_characteristic(
    g: Graph,
    budget: int = DEFAULT_BUDGET,
    orientable_only: bool = False,
) -> ChiSearchResult:
    """Largest Euler characteristic over all 2-cell embeddings.

    Searches the reduced core (pendants stripped, suppressible degree-2
    vertices contracted; both keep chi on each side) in one of two
    branches, and lifts each witness back to ``g`` when it is first read.

    *Sphere.*  A graph of cycle rank at most 3 (``m - n <= 2``, trees
    included) is planar by rank (:func:`_planar_by_rank`): a subdivided
    K3,3 has cycle rank 4 and a subdivided K5 has 6.  Its core is not even
    built until the plane witness is first read.  A core with fewer than six
    vertices of degree >= 3 and fewer than five of degree >= 4 is planar by
    counting (:func:`_planar_by_count`): a nonplanar graph holds a
    subdivided K3,3, whose six branch vertices have degree 3, or a
    subdivided K5, whose five have degree 4.  The count covers every core
    of at most 8 edges, since at minimum degree 2 either set of branch
    vertices forces at least 9.  Neither the planarity test nor the girth
    cap runs for a graph planar by rank or a counted core, and the plane
    witness is embedded by the test (a tree's core is a point), lifted and
    re-traced to chi 2 when first read.  Any other core whose
    face-length cap is 2 and which the planarity test embeds, re-traced to
    chi 2 at once, gives the plane witness.  Neither side is searched:
    orientable chi is 2, and non-orientable chi 1 by the planar identity,
    no witness.

    *Nonplanar.*  :func:`_search_side` decides the orientable side from the
    cap taken down to an even value at most 0, then, on the budget left,
    the signed side from the cap taken down to at most 1, unless the
    orientable side is certified at or above that, which it could not beat.
    A value below a side's cap is certified by refuting every larger one.

    ``nonorientable`` is None then and under ``orientable_only``.  Chi and
    the witness come from the first side with the largest chi, orientable
    first; the result is certified iff every side present is.

    Budget is counted in face-tracing steps and is a hard cap: each state
    the branch-and-bound places costs one step, and it stops before placing
    one the budget does not cover.  So ``steps_used`` is the two sides'
    ``nodes``, at most ``budget`` (no steps at all when ``budget`` is
    negative); the planarity test is not charged.  A side the budget stops
    before it is decided has chi None and is not certified, and neither is
    the result.  Callers that treat exhaustion as an error decide so from
    ``certified``.
    """
    if g.n < 1:
        raise ValueError("empty graph")
    if not g.is_connected():
        raise ValueError("chi search is defined for connected graphs; split components first")

    plane = None
    if _planar_by_rank(g):
        def plane() -> RotationSystem:
            return _lifted_plane(*_core(g), g.n)
    else:
        core, labels, ops = _core(g)
        lift = functools.partial(_lift_witness, labels=labels, ops=ops, n=g.n)
        if _planar_by_count(core):
            plane = functools.partial(_lifted_plane, core, labels, ops, g.n)
        else:
            cap = _face_length_upper_bound(core)
            if cap == 2 and (rotations := planar_rotations(core)) is not None:
                plane = functools.partial(lift, _plane_witness(core, rotations))

    nonor_side: SideResult | None = None
    if plane is not None:
        or_side = SideResult(chi=2, certified=True, build=plane)
        if not orientable_only:
            # The plane drawing sits inside a disc of the projective plane,
            # so the non-orientable side is exactly 1 (no 2-cell scheme
            # realises it for trees and some planar cores).
            nonor_side = SideResult(chi=1, certified=True)
    else:
        # Not planar, by the test or by the cap: orientable genus is at least 1.
        or_side = _search_side(core, False, min(0, cap - cap % 2), budget, lift)
        if not orientable_only and not (or_side.certified and or_side.chi >= min(1, cap)):
            # The core has a cycle (a tree's point core is planar, and both
            # reductions keep the cycle rank), so some edge sign is free and
            # the signed space is not empty.
            nonor_side = _search_side(core, True, min(1, cap), budget - or_side.nodes, lift)

    # max keeps the first of equal sides, so a tie goes to the orientable one.
    sides = [s for s in (or_side, nonor_side) if s is not None]
    best = max(sides, key=lambda s: -math.inf if s.chi is None else s.chi)
    return ChiSearchResult(
        chi=best.chi,
        certified=all(s.certified for s in sides),
        steps_used=sum(s.nodes for s in sides),
        budget=budget,
        orientable=or_side,
        nonorientable=nonor_side,
    )
