"""2-cell embeddings of connected graphs via rotation systems with edge signs.

A rotation system assigns each vertex a cyclic order of its neighbours; an
edge sign of -1 reverses local orientation when the edge is crossed, which
encodes non-orientable embeddings.  Faces are traced as orbits of the
next-dart map on (dart, direction) states; each face corresponds to a
mirror-image pair of orbits, so the face count is the number of orbit pairs.

Each orientability class is decided by a face-building branch-and-bound
(:func:`_branch_and_bound`) that both finds and refutes: it decides "some
scheme on this side has chi >= t" for t from the side's cap down, and the
first t that holds is certified, as every larger t was refuted in full.
Caps come from combinatorial face-length counting.  The sphere is decided
once, before any search: a tree's core collapses to a point, and a core
whose cap allows the sphere is tested for planarity (:mod:`.planarity`).
A point, or a planar core once a count of its faces confirms the test's
rotation system, is certified at chi 2 orientably and 1 non-orientably with
nothing searched.  Otherwise orientable chi is at most 0 and that side is
searched first; the signed side is searched only while the orientable side
is short of the signed side's cap, since it could not raise chi otherwise.

``certified`` marks a proven maximum: the sphere, or the branch-and-bound's
refutation of every larger value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .graphs import Graph, girth
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

    def to_json_dict(self) -> dict:
        edges = sorted({tuple(sorted(e)) for e in self.negative_edges})
        return {
            "rotations": [list(rot) for rot in self.rotations],
            "negative_edges": [list(e) for e in edges],
        }


@dataclass(frozen=True)
class EmbeddingSummary:
    """Faces of one embedding: walks, lengths, per-edge face sizes, and chi."""

    face_walks: tuple[tuple[tuple[int, int], ...], ...]
    face_lengths: tuple[int, ...]
    edge_face_lengths: dict[tuple[int, int], tuple[int, int]]
    chi: int
    orientable: bool


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
    ``searched`` is always 0; it is kept only because ``perfbench/run.py``
    reads it.
    """

    chi: int | None
    witness: RotationSystem | None
    certified: bool
    searched: int = 0
    nodes: int = 0


@dataclass(frozen=True)
class ChiSearchResult:
    """The overall maximum and each side's outcome.

    ``nonorientable`` is None under ``orientable_only``, and when the
    orientable side was certified at or above the signed side's cap, so that
    the signed side could not raise chi.  ``steps_used`` is the sum of the
    sides' ``nodes``.
    """

    chi: int | None
    witness: RotationSystem | None
    certified: bool
    steps_used: int
    budget: int
    orientable: SideResult
    nonorientable: SideResult | None

    @property
    def budget_stopped(self) -> bool:
        """Some searched side ran out of budget before it was decided.

        Only the budget leaves a side undecided, so this is ``not certified``.
        """
        return not self.certified


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
    degree at most 2 joins it again.  Returns the core relabelled 0..k-1
    (``g`` itself when nothing reduces), its original labels, and the
    reduction ops, in order.
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
    index = {v: i for i, v in enumerate(labels)}
    masks = []
    for v in labels:
        rest, mask = adj[v], 0
        while rest:
            low = rest & -rest
            mask |= 1 << index[low.bit_length() - 1]
            rest ^= low
        masks.append(mask)
    return Graph(len(labels), masks), labels, ops


# -- caps and face counts ---------------------------------------------------


def _face_length_upper_bound(core: Graph) -> int:
    """Proven cap on chi from face-length counting on the core.

    Cores have min degree >= 2 (or at most one edge), so face walks never
    backtrack immediately and every face has length >= girth.  A core with
    at most one edge is a tree, whose one face gives chi 2.
    """
    if core.m <= 1:
        return 2
    shortest = girth(core)
    min_face = 2 if shortest == math.inf else int(shortest)
    return min(2, core.n - core.m + (2 * core.m) // min_face)


def _orientable_face_count(rotations: tuple[tuple[int, ...], ...]) -> int:
    """Orbits of the dart map ``(u, v) -> (v, w)``, ``w`` following ``u`` at ``v``.

    These are the faces of the orientable embedding ``rotations`` gives,
    counted without tracing its walks.
    """
    after = {}
    for v, rot in enumerate(rotations):
        for i, u in enumerate(rot):
            after[u, v] = rot[(i + 1) % len(rot)]
    faces = 0
    while after:
        dart = next(iter(after))
        faces += 1
        while dart in after:
            dart = (dart[1], after.pop(dart))
    return faces


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
    mirror of each state placed: a branch is cut when its closed faces, the
    open one, and one face per ``2 girth`` free states fall short of
    ``t - n + m``.  Vertices are numbered by descending degree, so the first
    faces go round the busiest ones.  Choices sit on an explicit stack, so
    depth costs no recursion.  A complete scheme counts on the signed side
    only if some edge is -1, which makes it non-orientable, and on either
    side only after :func:`trace_faces` re-traces it.  Orientable chi is
    even, so on that side an odd ``t`` is first raised to the even value
    above it, the same question, on which the cut is sharper.
    """
    if not signed:
        t += t % 2
    order = sorted(range(core.n), key=lambda v: -core.degree(v))
    rank = {v: i for i, v in enumerate(order)}
    edges, _, tail, head = _dart_tables(
        Graph.from_edges(core.n, [(rank[u], rank[v]) for u, v in core.edges()]))
    m = len(edges)
    need = t - core.n + m
    span = 2 * int(girth(core))
    outs: list[list[int]] = [[] for _ in order]
    for d, u in enumerate(tail):
        outs[u].append(d)
    sign = [-1 if signed else 0] * m  # -1 undecided, 0 for +1, 1 for -1
    seen = {0}
    for u in (queue := [0]):
        for d in outs[u]:
            if head[d] not in seen:
                seen.add(head[d])
                queue.append(head[d])
                sign[d >> 1] = 0

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

    used = [False] * (4 * m)
    trail: list = []  # undo records: a state marked used, ~edge for a sign, a link
    choices: list[list] = []  # trail length, registers, subject, alternatives, next
    closed, unused, cur, start, scan, nodes = 0, 4 * m, -1, -1, 0, 0
    while True:
        subject = None
        while closed + 1 + unused // span >= need:
            if cur < 0:
                if unused == 0:
                    if closed >= need and (1 in sign) == signed:
                        return witness(), nodes, True
                    break
                while used[scan]:
                    scan += 1
                cur = start = scan
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
                                    if c != a and ends[c] < 0 and (closing or far[a] != c)]
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
            if nodes >= allowance:
                return None, nodes, False
            nodes += 1
            used[cur] = True
            trail.append(cur)
            unused -= 2  # the state and its mirror
        if subject is not None:
            choices.append([len(trail), (closed, unused, cur, start, scan),
                            subject, alternatives, 0])
        while choices and choices[-1][4] == len(choices[-1][3]):
            choices.pop()
        if not choices:
            return None, nodes, True
        top = choices[-1]
        mark, (closed, unused, cur, start, scan), subject, alternatives, k = top
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
        witness=lift(witness) if found else None,
        certified=found,
        nodes=nodes,
    )


def max_euler_characteristic(
    g: Graph,
    budget: int = DEFAULT_BUDGET,
    orientable_only: bool = False,
) -> ChiSearchResult:
    """Largest Euler characteristic over all 2-cell embeddings.

    Searches the reduced core (pendants stripped, suppressible degree-2
    vertices contracted; both keep chi on each side) in one of two
    branches, and lifts each witness back to ``g``.

    *Sphere.*  A tree's core is a point; a core whose face-length cap is 2
    and which the planarity test embeds, its faces counted again to confirm
    chi 2, gives the plane witness.  Neither side is searched: orientable
    chi is 2, and non-orientable chi 1 by the planar identity, no witness.

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
    negative); the planarity test is not charged.  ``budget_stopped`` says
    some side ran out before it was decided; such a side has chi None and
    is not certified.  Callers that treat exhaustion as an error decide so
    from ``certified``.
    """
    if g.n < 1:
        raise ValueError("empty graph")
    if not g.is_connected():
        raise ValueError("chi search is defined for connected graphs; split components first")

    core, labels, ops = _core(g)
    lift = functools.partial(_lift_witness, labels=labels, ops=ops, n=g.n)
    cap = _face_length_upper_bound(core)

    plane = None
    if core.m == 0:
        plane = RotationSystem(((),))  # the core of a tree is a point
    elif cap == 2 and (rotations := planar_rotations(core)) is not None:
        plane = RotationSystem(rotations)
        plane.validate(core)
        if core.n - core.m + _orientable_face_count(rotations) != 2:
            raise AssertionError("planar rotation system does not re-trace to chi 2")

    nonor_side: SideResult | None = None
    if plane is not None:
        or_side = SideResult(chi=2, witness=lift(plane), certified=True)
        if not orientable_only:
            # The plane drawing sits inside a disc of the projective plane,
            # so the non-orientable side is exactly 1 (no 2-cell scheme
            # realises it for trees and some planar cores).
            nonor_side = SideResult(chi=1, witness=None, certified=True)
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
        witness=best.witness,
        certified=all(s.certified for s in sides),
        steps_used=sum(s.nodes for s in sides),
        budget=budget,
        orientable=or_side,
        nonorientable=nonor_side,
    )
