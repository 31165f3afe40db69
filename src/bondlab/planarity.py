"""Exact planarity testing with a planar rotation system as the witness.

The graph is split into its biconnected blocks (Tarjan), and each block is
embedded by the face-insertion algorithm of Demoucron, Malgrange and
Pertuiset (*Graphes planaires: reconnaissance et construction de
représentations planaires topologiques*, Rev. Française Rech. Opér. 1964):
start from a cycle; a *fragment* of the embedded part ``H`` is an unplaced
edge between two vertices of ``H``, or a component of the unplaced vertices
with its edges to ``H``; a face is *admissible* for a fragment when it holds
every vertex the fragment attaches at.  Each round routes a path of the
fragment with the fewest admissible faces through one of them, splitting
that face in two.  A fragment with no admissible face proves the block
nonplanar; a block whose fragments all get placed is planar.  (A fragment
with one admissible face has to go there; when every fragment has two or
more, the theorem of Demoucron et al. is that any choice still extends to
a plane embedding of a planar block.)

Faces are kept as cyclic vertex lists that together walk every dart of the
block once, so ``rot_next[v][u] = w`` for each consecutive ``u, v, w`` on a
face is a rotation system whose face walks, in ``trace_faces``'s
convention, are exactly those faces.  Blocks are joined at cut vertices by
concatenating their rotations there, which keeps the embedding planar.
"""

from __future__ import annotations

from .graphs import Graph

__all__ = ["planar_rotations"]


def planar_rotations(g: Graph) -> tuple[tuple[int, ...], ...] | None:
    """A planar rotation system of the connected graph ``g``, or None if nonplanar.

    ``result[v]`` lists the neighbours of ``v`` in cyclic order.  Raises
    ``ValueError`` when ``g`` is not connected.
    """
    adj = [list(g.neighbors(v)) for v in range(g.n)]
    rotations: list[list[int]] = [[] for _ in range(g.n)]
    for block in _blocks(adj):
        if len(block) == 1:  # a bridge
            (u, v), = block
            rotations[u].append(v)
            rotations[v].append(u)
            continue
        faces = _embed_block(block)
        if faces is None:
            return None
        rot_next: dict[int, dict[int, int]] = {}
        for face in faces:
            prev, here = face[-2], face[-1]
            for after in face:
                rot_next.setdefault(here, {})[prev] = after
                prev, here = here, after
        for v, succ in rot_next.items():
            first = next(iter(succ))
            u = first
            while True:
                rotations[v].append(u)
                u = succ[u]
                if u == first:
                    break
    return tuple(tuple(rot) for rot in rotations)


def _blocks(adj: list[list[int]]) -> list[list[tuple[int, int]]]:
    """Edge lists of the biconnected blocks of a connected graph (Tarjan).

    A bridge is a block of one edge.  The depth-first search keeps its own
    stack, so deep graphs do not reach the recursion limit.  Raises
    ``ValueError`` when it leaves a vertex unvisited.
    """
    n = len(adj)
    if n == 0:
        return []
    disc = [-1] * n
    low = [0] * n
    disc[0] = 0
    clock = 1
    edges: list[tuple[int, int]] = []
    blocks = []
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, parent, rest = stack[-1]
        for w in rest:
            if disc[w] < 0:
                edges.append((v, w))
                disc[w] = low[w] = clock
                clock += 1
                stack.append((w, v, iter(adj[w])))
                break
            if w != parent and disc[w] < disc[v]:
                edges.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    block = []
                    while True:
                        e = edges.pop()
                        block.append(e)
                        if e == (u, v):
                            break
                    blocks.append(block)
    if clock < n:
        raise ValueError("planarity test needs a connected graph")
    return blocks


def _embed_block(block: list[tuple[int, int]]) -> list[list[int]] | None:
    """The faces of a plane embedding of a biconnected block, or None if nonplanar.

    Every face of a biconnected plane graph is bounded by a cycle, so each
    face is a list of distinct vertices, and the faces walk every dart once.
    """
    adj: dict[int, list[int]] = {}
    for u, v in block:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    # A first cycle: the edge (a, b) closed by a shortest path from b to a
    # that avoids it.
    a, b = block[0]
    prev = {b: b}
    queue = [b]
    for x in queue:
        for y in adj[x]:
            if y not in prev and (x, y) != (b, a):
                prev[y] = x
                queue.append(y)
        if a in prev:
            break
    cycle = [a]
    while cycle[-1] != b:
        cycle.append(prev[cycle[-1]])
    faces = [cycle, cycle[::-1]]
    face_sets = [set(cycle), set(cycle)]
    placed = set(cycle)
    closed = cycle[1:] + cycle[:1]
    used = set(zip(cycle, closed)) | set(zip(closed, cycle))  # placed edges, both ways

    while len(used) < 2 * len(block):
        best = None
        for attach, component in _fragments(adj, placed, used):
            fits = [i for i, f in enumerate(face_sets) if attach <= f]
            if not fits:
                return None
            if best is None or len(fits) < len(best[2]):
                best = attach, component, fits
                if len(fits) == 1:
                    break
        attach, component, fits = best
        path = _path_through(adj, component, attach) if component else list(attach)
        i = fits[0]
        face = faces[i]
        start, end = face.index(path[0]), face.index(path[-1])
        if start <= end:
            forward, backward = face[start:end + 1], face[end:] + face[:start + 1]
        else:
            forward, backward = face[start:] + face[:end + 1], face[end:start + 1]
        inner = path[1:-1]
        faces[i] = forward + inner[::-1]
        faces.append(backward + inner)
        face_sets[i] = set(faces[i])
        face_sets.append(set(faces[-1]))
        placed.update(inner)
        used.update(zip(path, path[1:]))
        used.update(zip(path[1:], path))
    return faces


def _fragments(adj: dict[int, list[int]], placed: set[int], used: set[tuple[int, int]]):
    """Yield ``(attachments, vertices)`` for each fragment of the embedded part.

    An unplaced edge between placed vertices has no vertices of its own; a
    component of unplaced vertices comes with its vertex set.
    """
    for u in placed:
        for v in adj[u]:
            if u < v and v in placed and (u, v) not in used:
                yield {u, v}, set()
    seen: set[int] = set()
    for s in adj:
        if s in placed or s in seen:
            continue
        component = [s]
        seen.add(s)
        attach = set()
        for x in component:
            for y in adj[x]:
                if y in placed:
                    attach.add(y)
                elif y not in seen:
                    seen.add(y)
                    component.append(y)
        yield attach, set(component)


def _path_through(adj: dict[int, list[int]], component: set[int], attach: set[int]) -> list[int]:
    """A path between two distinct attachments whose inner vertices lie in ``component``."""
    a = min(attach)
    x0 = next(x for x in adj[a] if x in component)
    prev = {x0: None}
    queue = [x0]
    for x in queue:
        for y in adj[x]:
            if y in attach and y != a:
                walk = [y]
                while x is not None:
                    walk.append(x)
                    x = prev[x]
                return walk + [a]
            if y in component and y not in prev:
                prev[y] = x
                queue.append(y)
    raise AssertionError("a fragment of a biconnected block attaches at two vertices")
