"""Simple undirected graphs on dense integer vertices, with graph6 I/O.

Adjacency is stored as one bitmask per vertex, so neighbourhood unions,
intersections and domination checks are single word operations.  Graphs are
immutable after construction; every operation returns a new value.

Every re-encoding of a graph lives here.  The edge code, bit ``j(j-1)/2 + i``
for the pair ``(i, j)``, is graph6's bit order, :func:`canonical_code`'s
value and the enumeration's key.  One relabelling, ``_relabel``, renumbers
a vertex subset for components and for the chi search's core.  Outside
input, ``Graph(n, adjacency)`` and :func:`parse_graph6`, is checked in
full; graphs built from valid graphs skip the checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Graph",
    "GraphFormatError",
    "DegreeStats",
    "parse_graph6",
    "emit_graph6",
    "make_family",
    "FAMILY_NAMES",
    "enumerate_connected_graphs",
    "canonical_code",
    "girth",
    "degree_stats",
    "components_with_vertices",
]

GRAPH6_HEADER = ">>graph6<<"
_G6_MAX_N = 62

ENUMERATION_MAX_N = 7


class GraphFormatError(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte {offset})"
        super().__init__(message)
        self.offset = offset


class Graph:
    """Loop-free undirected graph with vertices ``0..n-1``.

    ``adjacency[v]`` is a bitmask of the neighbours of ``v``.  The edge count
    ``m`` is derived once and cached.  The edge list, connectivity, degree
    stats and girth are derived on first use and kept, since the masks
    never change: :meth:`edges`, :meth:`is_connected`,
    :func:`degree_stats` and :func:`girth` fill the last four slots.
    """

    __slots__ = ("n", "adjacency", "m", "_edges", "_connected", "_degree_stats", "_girth")

    def __init__(self, n: int, adjacency: Sequence[int]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(adjacency) != n:
            raise ValueError(f"expected {n} adjacency masks, got {len(adjacency)}")
        adj = tuple(adjacency)
        degree_total = 0
        for v, mask in enumerate(adj):
            if mask >> n:
                raise ValueError(f"vertex {v} has neighbours outside 0..{n - 1}")
            if mask & (1 << v):
                raise ValueError(f"loop at vertex {v}")
            degree_total += mask.bit_count()
        for v, mask in enumerate(adj):
            rest = mask
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if not adj[u] & (1 << v):
                    raise ValueError(f"edge {v}-{u} is not symmetric")
        self.n = n
        self.adjacency = adj
        self.m = degree_total // 2
        self._edges = self._connected = self._degree_stats = self._girth = None

    @classmethod
    def _trusted(cls, n: int, adjacency: Sequence[int]) -> "Graph":
        """A graph from ``n`` masks already symmetric, loop-free and in range.

        Internal: it skips the checks of ``Graph(n, adjacency)``, so it takes
        only masks built from a valid graph.
        """
        g = cls.__new__(cls)
        g.n = n
        g.adjacency = adj = tuple(adjacency)
        g.m = sum(map(int.bit_count, adj)) // 2
        g._edges = g._connected = g._degree_stats = g._girth = None
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """A graph from its edges, each checked; the masks it builds are symmetric."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} outside 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls._trusted(n, adj)

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        mask = self.adjacency[v]
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``, lexicographic.

        Each call returns a new list, so the caller may change it.
        """
        if self._edges is None:
            self._edges = _edge_list(self.adjacency)
        return list(self._edges)

    def closed_mask(self, v: int) -> int:
        return self.adjacency[v] | (1 << v)

    def remove_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = list(self.adjacency)
        for u, v in edges:
            if not adj[u] & (1 << v):
                raise ValueError(f"edge {u}-{v} not present")
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        return Graph._trusted(self.n, adj)

    def is_connected(self) -> bool:
        if self._connected is None:
            self._connected = self.n <= 1 or _closure(self.adjacency, 1) == (1 << self.n) - 1
        return self._connected

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adjacency == other.adjacency
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _edge_list(adjacency: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The edges of ``adjacency`` as sorted ``(u, v)`` pairs with ``u < v``."""
    out = []
    for u, mask in enumerate(adjacency):
        mask &= -2 << u  # the neighbours above u
        while mask:
            low = mask & -mask
            out.append((u, low.bit_length() - 1))
            mask ^= low
    return tuple(out)


def _closure(adjacency: Sequence[int], seed: int) -> int:
    """Bitmask of the vertices reachable from the vertex set ``seed``."""
    seen = frontier = seed
    while frontier:
        grown = seen
        rest = frontier
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            grown |= adjacency[v]
        frontier = grown & ~seen
        seen = grown
    return seen


@dataclass(frozen=True)
class DegreeStats:
    """The largest and smallest vertex degrees."""

    max_degree: int
    min_degree: int


def degree_stats(g: Graph) -> DegreeStats:
    if g._degree_stats is None:
        if g.n < 1:
            raise ValueError("degree stats need at least one vertex")
        degrees = [mask.bit_count() for mask in g.adjacency]
        g._degree_stats = DegreeStats(max_degree=max(degrees), min_degree=min(degrees))
    return g._degree_stats


def girth(g: Graph) -> float:
    """Length of a shortest cycle, or ``math.inf`` for forests."""
    if g._girth is None:
        g._girth = _shortest_cycle(g.adjacency)
    return g._girth


def _shortest_cycle(adjacency: Sequence[int]) -> float:
    """The girth of the graph with masks ``adjacency``.

    Runs one breadth-first search per root over layer bitmasks.  An edge
    inside layer ``k`` closes a cycle of length at most ``2k + 1``, and a
    vertex of layer ``k + 1`` reached from two vertices of layer ``k`` one of
    at most ``2k + 2``; on a shortest cycle through the root one of the two
    is exact, so the minimum over all roots is the girth.  A root stops once
    ``2k + 1`` is no shorter than the best cycle so far.
    """
    best = math.inf
    for root in range(len(adjacency)):
        seen = layer = 1 << root
        k = 0
        while layer and 2 * k + 1 < best:
            inside = reached = twice = 0
            rest = layer
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                adj = adjacency[v]
                inside |= adj & layer
                new = adj & ~seen
                twice |= reached & new
                reached |= new
            if inside:
                best = 2 * k + 1
            elif twice:
                best = min(best, 2 * k + 2)
            seen |= reached
            layer = reached
            k += 1
    return best


def components_with_vertices(g: Graph) -> list[tuple[Graph, tuple[int, ...]]]:
    """Connected components with their original vertex labels.

    Components are ordered by smallest original vertex and each is reindexed
    densely in the order of its original labels.  A connected graph is its
    own single component, returned as it stands.
    """
    if g.n and g.is_connected():
        return [(g, tuple(range(g.n)))]
    seen = 0
    out = []
    for start in range(g.n):
        if seen & (1 << start):
            continue
        comp = _closure(g.adjacency, 1 << start)
        seen |= comp
        verts = tuple(v for v in range(start, g.n) if comp >> v & 1)
        out.append((_relabel(g.adjacency, verts), verts))
    return out


def _relabel(adjacency: Sequence[int], order: Sequence[int]) -> Graph:
    """The graph whose vertex ``i`` is vertex ``order[i]`` of ``adjacency``.

    Every neighbour of a listed vertex must be listed too.  The masks are
    renumbered, not checked, so ``adjacency`` must be symmetric and
    loop-free on ``order``.
    """
    bit = [0] * len(adjacency)
    for i, v in enumerate(order):
        bit[v] = 1 << i
    masks = []
    for v in order:
        rest, mask = adjacency[v], 0
        while rest:
            low = rest & -rest
            mask |= bit[low.bit_length() - 1]
            rest ^= low
        masks.append(mask)
    return Graph._trusted(len(order), masks)


# ---------------------------------------------------------------------------
# graph6 codec (short form, n <= 62; ">>graph6<<" header tolerated on input)
# ---------------------------------------------------------------------------


# Each graph6 byte as the six bits it carries, most significant first.
_SIX_BITS = {code: format(code - 63, "06b") for code in range(63, 127)}


def parse_graph6(text: str) -> Graph:
    """Decode a one-line graph6 string into a :class:`Graph`.

    Every refusal is a :class:`GraphFormatError` with the byte offset of the
    defect.  The body's bits, first bit the pair ``(0, 1)``, are graph6's
    column-major upper triangle: read in reverse they are the edge code that
    :func:`graph_from_code` decodes.
    """
    if text.endswith("\n"):
        text = text[:-1]
    base = 0
    if text.startswith(GRAPH6_HEADER):
        base = len(GRAPH6_HEADER)
        text = text[base:]
    if not text:
        raise GraphFormatError("empty graph6 string", offset=base)
    bits = text.translate(_SIX_BITS)
    if len(bits) != 6 * len(text):
        # Only a byte outside the alphabet is left as one character.
        pos = next(pos for pos, ch in enumerate(text) if not "?" <= ch <= "~")
        raise GraphFormatError(
            f"byte {ord(text[pos])!r} outside graph6 alphabet", offset=base + pos
        )
    n = ord(text[0]) - 63
    if n == 63:
        raise GraphFormatError(
            "long-form graph6 (n > 62) is not supported", offset=base
        )
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(text) - 1 < nbytes:
        raise GraphFormatError(
            f"truncated graph6 body: need {nbytes} data bytes, got {len(text) - 1}",
            offset=base + len(text),
        )
    if len(text) - 1 > nbytes:
        raise GraphFormatError("trailing garbage after graph6 body", offset=base + 1 + nbytes)
    stray = bits.find("1", 6 + nbits)
    if stray >= 0:
        raise GraphFormatError("nonzero padding bits", offset=base + stray // 6)
    return graph_from_code(n, int(bits[6:6 + nbits][::-1] or "0", 2))


def emit_graph6(g: Graph) -> str:
    """Encode a graph as canonical short-form graph6 (no header)."""
    if g.n > _G6_MAX_N:
        raise ValueError(f"graph6 short form supports at most {_G6_MAX_N} vertices")
    nbits = g.n * (g.n - 1) // 2
    # The guard bit above the code keeps its leading zeros; reversed, the
    # string starts at the pair (0, 1) and the guard is dropped.
    bits = format(_edge_code(g) | 1 << nbits, "b")[:0:-1] + "0" * (-nbits % 6)
    return chr(g.n + 63) + "".join(chr(int(bits[k:k + 6], 2) + 63) for k in range(0, nbits, 6))


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

# Each family's parameter count, vertex count and edge list.  A hypercube's
# order is read off its dimension capped at 63, so that no huge power is
# formed before the order is refused.
_KNESER_5_2 = list(combinations(range(5), 2))
_FAMILIES = {
    "kn": (1, lambda n: n, lambda n: combinations(range(n), 2)),
    "kmn": (2, lambda a, b: a + b, lambda a, b: [(i, a + j) for i in range(a) for j in range(b)]),
    "cn": (1, lambda n: n, lambda n: [(i, (i + 1) % n) for i in range(n)]),
    "pn": (1, lambda n: n, lambda n: [(i, i + 1) for i in range(n - 1)]),
    "petersen": (0, lambda: 10, lambda: [
        (i, j) for i, j in combinations(range(10), 2)
        if not set(_KNESER_5_2[i]) & set(_KNESER_5_2[j])]),
    "qd": (1, lambda d: 1 << min(d, 63), lambda d: [
        (x, x ^ (1 << b)) for x in range(1 << d) for b in range(d) if x < x ^ (1 << b)]),
    "wn": (1, lambda n: n + 1, lambda n: [(i, (i + 1) % n) for i in range(n)]
           + [(i, n) for i in range(n)]),
}
FAMILY_NAMES = tuple(_FAMILIES)


def make_family(name: str, *params: int) -> Graph:
    """Build a standard family member on at most 62 vertices.

    ``kn n``        complete graph
    ``kmn m n``     complete bipartite graph
    ``cn n``        cycle (n >= 3)
    ``pn n``        path
    ``petersen``    the Petersen graph, Kneser(5, 2) vertex order
    ``qd d``        hypercube of dimension d
    ``wn n``        wheel: n rim vertices (n >= 3) plus a hub, hub last

    The order is read from the parameters and refused above graph6's
    short-form limit before any edge is listed.
    """
    key = name.lower()
    if key not in FAMILY_NAMES:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    expected, order, edges = _FAMILIES[key]
    if len(params) != expected:
        raise ValueError(f"family {name!r} takes {expected} parameter(s)")
    if any(p <= 0 for p in params):
        raise ValueError(f"family parameters must be positive, got {params}")
    if key == "cn" and params[0] < 3:
        raise ValueError("cycles need at least 3 vertices")
    if key == "wn" and params[0] < 3:
        raise ValueError("wheels need at least 3 rim vertices")
    n = order(*params)
    if n > _G6_MAX_N:
        raise ValueError(f"family {name!r} has more than {_G6_MAX_N} vertices, "
                         "the most graph6 short form holds")
    return Graph.from_edges(n, edges(*params))


# ---------------------------------------------------------------------------
# Connected-graph enumeration up to isomorphism (n <= 7)
# ---------------------------------------------------------------------------


def canonical_code(g: Graph) -> int:
    """Least edge code of ``g`` over all relabellings of its vertices.

    Bit ``j(j-1)/2 + i`` of a code is the pair ``(i, j)``, ``i < j``, so the
    least code compares pairs from ``(n-2, n-1)`` down to ``(0, 1)``.  Under
    the reversed labels ``x -> n-1-x`` that is the row-major upper triangle,
    and the least code is the least row-major adjacency string.  It is found
    by individualise-and-split backtracking over an ordered partition of the
    unplaced vertices: the vertex given reversed label ``r`` comes from the
    first cell, and every cell then splits into its non-neighbours and its
    neighbours, which fixes row ``r``.  Only the siblings with the least row
    are expanded, a branch whose prefix exceeds the best code is cut, and of
    two twins in the branched cell (the same neighbours apart from each
    other) only one is expanded, because swapping them is an automorphism
    that keeps every placed vertex and every cell.
    """
    n = g.n
    if n < 2:
        return 0
    adj = g.adjacency
    twins = [
        sum(1 << w for w in range(n)
            if adj[v] & ~(1 << w) == adj[w] & ~(1 << v))
        for v in range(n)
    ]
    best = -1

    def search(cells: tuple[int, ...], code: int, r: int) -> None:
        nonlocal best
        if r >= n - 1:
            if best < 0 or code < best:
                best = code
            return
        first = cells[0]
        least = -1
        children = []
        skip = 0
        rest = first
        while rest:
            low = rest & -rest
            rest ^= low
            if skip & low:
                continue
            v = low.bit_length() - 1
            skip |= twins[v]
            nbrs = adj[v]
            row = 0
            split = []
            for cell in (first ^ low,) + cells[1:]:
                if not cell:
                    continue
                far = cell & ~nbrs
                near = cell & nbrs
                row = (row << cell.bit_count()) | ((1 << near.bit_count()) - 1)
                if far:
                    split.append(far)
                if near:
                    split.append(near)
            if least < 0 or row < least:
                least = row
                children = [tuple(split)]
            elif row == least:
                children.append(tuple(split))
        width = n - 1 - r
        code = (code << width) | least
        # The rows still to come hold width * (width - 1) / 2 bits.
        if best >= 0 and code > best >> (width * (width - 1) // 2):
            return
        for split in children:
            search(split, code, r + 1)

    search(((1 << n) - 1,), 0, 0)
    return best


def _edge_code(g: Graph) -> int:
    """The edge code of ``g``: bit ``j(j-1)/2 + i`` is set for each edge ``(i, j)``."""
    code = 0
    for j in range(g.n - 1, 0, -1):
        code = code << j | g.adjacency[j] & ((1 << j) - 1)
    return code


def graph_from_code(n: int, code: int) -> Graph:
    """The graph on ``n`` vertices whose edge code is ``code``.

    Bit ``j(j-1)/2 + i`` is the pair ``(i, j)``, ``i < j``, so column ``j``
    of the upper triangle, the pairs ``(0, j) .. (j-1, j)``, is the next
    ``j`` bits, read as one mask; bits past the last pair are ignored.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    adj = [0] * n
    for j in range(1, n):
        bit = 1 << j
        column = code & (bit - 1)
        code >>= j
        adj[j] = column
        while column:
            low = column & -column
            adj[low.bit_length() - 1] |= bit
            column ^= low
    return Graph._trusted(n, adj)


def enumerate_connected_graphs(max_n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs, 1..max_n vertices.

    Every connected graph has a vertex whose removal leaves it connected, so
    the ``n``-vertex classes are reached by joining a new vertex to each
    nonempty vertex set of each ``(n-1)``-vertex representative, and
    deduplicated by :func:`canonical_code`.  Each representative is the
    graph of its canonical code, and the output order is deterministic:
    ascending vertex count, then ascending canonical code.  ``max_n`` is
    capped at 7: the 853 graphs of order 7 take under a second.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    if max_n > ENUMERATION_MAX_N:
        raise ValueError(
            f"enumeration budget is n <= {ENUMERATION_MAX_N}, got {max_n}"
        )
    level = [Graph(1, [0])]
    yield from level
    for n in range(2, max_n + 1):
        new = 1 << (n - 1)
        codes = set()
        for h in level:
            for joined in range(1, new):
                adj = [a | new if joined >> v & 1 else a for v, a in enumerate(h.adjacency)]
                codes.add(canonical_code(Graph._trusted(n, adj + [joined])))
        level = [graph_from_code(n, code) for code in sorted(codes)]
        yield from level
