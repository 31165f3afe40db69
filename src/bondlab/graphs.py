"""Simple undirected graphs on dense integer vertices, with graph6 I/O.

Adjacency is stored as one bitmask per vertex, so neighbourhood unions,
intersections and domination checks are single word operations.  Graphs are
immutable after construction; every operation returns a new value.
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
    ``m`` is derived once and cached.
    """

    __slots__ = ("n", "adjacency", "m")

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

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} outside 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        mask = self.adjacency[v]
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``, lexicographic."""
        out = []
        for u in range(self.n):
            mask = self.adjacency[u] >> (u + 1)
            v = u + 1
            while mask:
                if mask & 1:
                    out.append((u, v))
                mask >>= 1
                v += 1
        return out

    def closed_mask(self, v: int) -> int:
        return self.adjacency[v] | (1 << v)

    def remove_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = list(self.adjacency)
        for u, v in edges:
            if not adj[u] & (1 << v):
                raise ValueError(f"edge {u}-{v} not present")
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        return Graph(self.n, adj)

    def is_connected(self) -> bool:
        return self.n <= 1 or _closure(self.adjacency, 1) == (1 << self.n) - 1

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
    if g.n < 1:
        raise ValueError("degree stats need at least one vertex")
    degrees = [g.degree(v) for v in range(g.n)]
    return DegreeStats(max_degree=max(degrees), min_degree=min(degrees))


def girth(g: Graph) -> float:
    """Length of a shortest cycle, or ``math.inf`` for forests.

    Runs one breadth-first search per root over layer bitmasks.  An edge
    inside layer ``k`` closes a cycle of length at most ``2k + 1``, and a
    vertex of layer ``k + 1`` reached from two vertices of layer ``k`` one of
    at most ``2k + 2``; on a shortest cycle through the root one of the two
    is exact, so the minimum over all roots is the girth.  A root stops once
    ``2k + 1`` is no shorter than the best cycle so far.
    """
    best = math.inf
    for root in range(g.n):
        seen = layer = 1 << root
        k = 0
        while layer and 2 * k + 1 < best:
            inside = reached = twice = 0
            rest = layer
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                adj = g.adjacency[v]
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
    seen = 0
    out = []
    for start in range(g.n):
        if seen & (1 << start):
            continue
        comp = _closure(g.adjacency, 1 << start)
        if comp == (1 << g.n) - 1:
            return [(g, tuple(range(g.n)))]
        seen |= comp
        verts = []
        rest = comp
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            verts.append(v)
        index = {v: i for i, v in enumerate(verts)}
        sub = Graph.from_edges(
            len(verts),
            [
                (index[u], index[v])
                for u, v in g.edges()
                if comp & (1 << u) and comp & (1 << v)
            ],
        )
        out.append((sub, tuple(verts)))
    return out


# ---------------------------------------------------------------------------
# graph6 codec (short form, n <= 62; ">>graph6<<" header tolerated on input)
# ---------------------------------------------------------------------------


def _pair_order(n: int) -> list[tuple[int, int]]:
    # Column-major upper triangle: (0,1), (0,2), (1,2), (0,3), ...
    return [(i, j) for j in range(1, n) for i in range(j)]


# Each graph6 byte as the six bits it carries, most significant first.
_SIX_BITS = {code: format(code - 63, "06b") for code in range(63, 127)}


def parse_graph6(text: str) -> Graph:
    """Decode a one-line graph6 string into a :class:`Graph`.

    The bytes become one bit string, and column ``j`` of the upper triangle,
    the bits of pairs ``(0, j) .. (j - 1, j)``, is read as one integer.
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
    adj = [0] * n
    start = 6
    for j in range(1, n):
        column = int(bits[start:start + j][::-1], 2)
        start += j
        adj[j] = column
        bit = 1 << j
        while column:
            low = column & -column
            adj[low.bit_length() - 1] |= bit
            column ^= low
    return Graph(n, adj)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as canonical short-form graph6 (no header)."""
    if g.n > _G6_MAX_N:
        raise ValueError(f"graph6 short form supports at most {_G6_MAX_N} vertices")
    out = [chr(g.n + 63)]
    acc = 0
    nbits = 0
    for i, j in _pair_order(g.n):
        acc = (acc << 1) | (1 if g.adjacency[i] & (1 << j) else 0)
        nbits += 1
        if nbits == 6:
            out.append(chr(acc + 63))
            acc = 0
            nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

FAMILY_NAMES = ("kn", "kmn", "cn", "pn", "petersen", "qd", "wn")


def make_family(name: str, *params: int) -> Graph:
    """Build a standard family member.

    ``kn n``        complete graph
    ``kmn m n``     complete bipartite graph
    ``cn n``        cycle (n >= 3)
    ``pn n``        path
    ``petersen``    the Petersen graph, Kneser(5, 2) vertex order
    ``qd d``        hypercube of dimension d
    ``wn n``        wheel: n rim vertices (n >= 3) plus a hub, hub last
    """
    key = name.lower()
    if key not in FAMILY_NAMES:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    expected = {"kn": 1, "kmn": 2, "cn": 1, "pn": 1, "petersen": 0, "qd": 1, "wn": 1}[key]
    if len(params) != expected:
        raise ValueError(f"family {name!r} takes {expected} parameter(s)")
    if any(p <= 0 for p in params):
        raise ValueError(f"family parameters must be positive, got {params}")
    if key == "kn":
        (n,) = params
        return Graph.from_edges(n, combinations(range(n), 2))
    if key == "kmn":
        a, b = params
        return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if key == "cn":
        (n,) = params
        if n < 3:
            raise ValueError("cycles need at least 3 vertices")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if key == "pn":
        (n,) = params
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if key == "petersen":
        verts = list(combinations(range(5), 2))
        edges = [
            (i, j)
            for i, j in combinations(range(10), 2)
            if not set(verts[i]) & set(verts[j])
        ]
        return Graph.from_edges(10, edges)
    if key == "qd":
        (d,) = params
        return Graph.from_edges(
            1 << d,
            [(x, x ^ (1 << b)) for x in range(1 << d) for b in range(d) if x < x ^ (1 << b)],
        )
    (n,) = params
    if n < 3:
        raise ValueError("wheels need at least 3 rim vertices")
    rim = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n) for i in range(n)]
    return Graph.from_edges(n + 1, rim + spokes)


# ---------------------------------------------------------------------------
# Connected-graph enumeration up to isomorphism (n <= 7)
# ---------------------------------------------------------------------------


def canonical_code(g: Graph) -> int:
    """Least graph6 edge code of ``g`` over all relabellings of its vertices.

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


def graph_from_code(n: int, code: int) -> Graph:
    adj = [0] * n
    for k, (i, j) in enumerate(_pair_order(n)):
        if code >> k & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(n, adj)


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
                codes.add(canonical_code(Graph(n, adj + [joined])))
        level = [graph_from_code(n, code) for code in sorted(codes)]
        yield from level
