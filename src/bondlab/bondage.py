"""Exact bondage numbers and the computable edge/average-degree proxy.

Removing edges never creates a dominating set, so ``gamma(G - S) >
gamma(G)`` holds exactly when ``S`` breaks every minimum dominating set
``D`` of ``G``.  ``S`` breaks ``D`` when, for some vertex ``v`` outside
``D``, ``S`` contains every edge from ``v`` into ``D``; each such edge set
``E(v, D)`` is a *breaker* of ``D``.  With edges as bits, ``E(v, D)`` is
``inc[v] & reach(D)``: the edges at ``v`` that also meet ``D``.

One deepening domination search gives ``gamma`` and lists every minimum
dominating set as a vertex mask, in search order.  Every breaker is then
numbered once: set ``f`` owns an ``n``-bit block at offset ``f * n``, and
bit ``v`` of it is ``E(v, D_f)``.
Each edge keeps the mask ``contain[e]`` of the breakers that hold it, and
each breaker's count of edges is kept bit-sliced.

An edge alone raises gamma exactly when it is a one-edge breaker of every
set.  The breakers whose count is one mark those, so ``b = 1`` is decided
by testing, for each edge, that its mask meets every block of them.
Otherwise a branch and bound finds the smallest edge set that holds a
breaker of every set.  A node needs a few big-int operations per edge and
no loop over the sets: the counts are lowered as edges go, a breaker whose
count is zero breaks its set, and one test per block finds the sets still
unbroken.  The branch order and the two bounds are those of the list scan
the tests keep as an oracle: the unbroken set that needs the most new
edges, and a cover bound in which an edge meets as many sets as it holds
live breakers, since the breakers of one set are disjoint.  Breakers
holding an edge that an earlier sibling branch removed on its own are out
of play.  The search branches on one set's breakers as edge masks, and
builds that list only when it first branches on the set.

One domination solve on ``G - S`` certifies the answer: it takes only that
graph, and its value must exceed ``gamma(G)``.  Each component's search is
limited to max degree plus min degree minus one edges, a proven upper
bound, so it always finds the exact value on nonempty graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domination import domination_number, minimum_dominating_sets
from .graphs import Graph, components_with_vertices, degree_stats

__all__ = [
    "BondageResult",
    "BPrimeResult",
    "bondage_number",
    "compute_b_prime",
    "hartnell_rall_bound",
]


@dataclass(frozen=True)
class BondageResult:
    b: int
    witness_edges: tuple[tuple[int, int], ...]
    gamma_before: int
    gamma_after: int


@dataclass(frozen=True)
class BPrimeResult:
    """min(edge term, average-degree term)."""

    b_prime: int
    edge_term: int
    ad_term: int


def hartnell_rall_bound(g: Graph) -> int:
    """Hartnell and Rall's edge bound, min over edges uv of |N(u) | N(v)| - 1.

    The union form equals their d(u) + d(v) - 1 - |N(u) & N(v)|: d(u) + d(v)
    counts each common neighbour twice.  It takes one popcount an edge.
    """
    if g.m == 0:
        raise ValueError("bound needs at least one edge")
    adj = g.adjacency
    return min((adj[u] | adj[v]).bit_count() for u, v in g.edges()) - 1


def compute_b_prime(g: Graph) -> BPrimeResult:
    """Edge/average-degree proxy for the bondage number of a connected graph.

    The average-degree term is ``2*floor(ad) - 1`` with ``ad = 2m/n`` taken
    exactly.
    """
    if g.m == 0:
        raise ValueError("proxy needs at least one edge")
    if not g.is_connected():
        raise ValueError("proxy is defined for connected graphs; decompose first")
    edge_term = hartnell_rall_bound(g)
    ad_term = 2 * ((2 * g.m) // g.n) - 1
    return BPrimeResult(
        b_prime=min(edge_term, ad_term),
        edge_term=edge_term,
        ad_term=ad_term,
    )


def _breaker_masks(
    n: int, edges: list[tuple[int, int]], sets: list[int]
) -> tuple[list[int], int, int]:
    """Every breaker as one bit: per edge, the breakers that hold it.

    ``edges`` are the edges of an ``n``-vertex graph and ``sets`` its
    minimum dominating sets as vertex masks.  Set ``f`` owns the ``n``-bit
    block at offset ``f * n``, and bit ``v`` of that block stands for
    ``E(v, D_f)``; it is a breaker when ``v`` is not in ``D_f``.  Returns
    ``contain``, with ``contain[i]`` the breakers that hold ``edges[i]``,
    the mask of every breaker, and the mask of each block's lowest bit.
    ``member[u]`` marks the blocks whose set holds ``u``, so edge ``(a, b)``
    is in ``E(a, D)`` exactly when ``b`` is in ``D`` and ``a`` is not, and
    ``contain`` takes two shifts an edge.
    """
    sets_in_blocks = 0
    for dom in reversed(sets):
        sets_in_blocks = sets_in_blocks << n | dom
    base = ((1 << n * len(sets)) - 1) // ((1 << n) - 1)
    member = [sets_in_blocks >> u & base for u in range(n)]
    contain = [
        (member[b] & ~member[a]) << a | (member[a] & ~member[b]) << b for a, b in edges
    ]
    return contain, ((base << n) - base) ^ sets_in_blocks, base


def _count(masks: list[int]) -> list[int]:
    """Per bit, how many of ``masks`` hold it, bit-sliced.

    Bit ``i`` of ``levels[j]`` is bit ``j`` of bit ``i``'s count, and each
    mask is added to every bit at once by a ripple carry.
    """
    levels: list[int] = []
    for mask in masks:
        carry = mask
        for j, level in enumerate(levels):
            levels[j] = level ^ carry
            carry &= level
            if not carry:
                break
        else:
            levels.append(carry)
    return levels


def _minus(levels: list[int], masks: list[int]) -> list[int]:
    """The bit-sliced counts ``levels`` less the counts of ``masks``.

    No count may fall below zero.  Each mask is taken from every bit at once
    by a ripple borrow.
    """
    levels = levels.copy()
    for mask in masks:
        borrow = mask
        for j, level in enumerate(levels):
            levels[j] = level ^ borrow
            borrow &= ~level
            if not borrow:
                break
    return levels


def _at_least(levels: list[int], k: int) -> int:
    """The bits whose bit-sliced count in ``levels`` is at least ``k >= 1``."""
    if k.bit_length() > len(levels):
        return 0
    above, equal = 0, -1
    for j in reversed(range(len(levels))):
        if k >> j & 1:
            equal &= levels[j]
        else:
            above |= equal & levels[j]
            equal &= ~levels[j]
    return above | equal


def _edge_hits(contain: list[int], live: int, removed: int) -> list[int]:
    """How many ``live`` breakers each edge not in ``removed`` holds.

    Breakers of one set are disjoint, so this is the number of sets whose
    live breakers the edge meets.
    """
    hits = list(map(int.bit_count, map(live.__and__, contain)))
    while removed:
        low = removed & -removed
        hits[low.bit_length() - 1] = 0
        removed ^= low
    return hits


def _covers(hits: list[int], need: int, k: int) -> bool:
    """Whether ``k`` edges, edge ``i`` meeting ``hits[i]`` sets, can meet ``need``."""
    return sum(sorted(hits, reverse=True)[:k]) >= need


def _bondage_connected(
    g: Graph, sets: list[int], limit: int
) -> tuple[int, tuple[tuple[int, int], ...]] | None:
    """The fewest edges, at most ``limit``, that break every set of ``sets``.

    ``sets`` must be every minimum dominating set of ``g``, as vertex masks
    in the order :func:`minimum_dominating_sets` lists them.
    """
    edges = g.edges()
    n = g.n
    contain, breakers, base = _breaker_masks(n, edges, sets)
    top = base << (n - 1)
    rest = top - base

    def blocks(mask: int) -> int:
        # The top bit of every block in which ``mask`` has a bit.
        return ((mask & rest) + rest | mask) & top

    counts = _count(contain)
    if limit >= 1:
        # An edge alone breaks a set exactly when it is a one-edge breaker of
        # it, and it holds at most one breaker of each set.  The branch and
        # bound would take the first set's one-edge breaker of lowest vertex.
        ones = breakers & ~_at_least(counts, 2)
        first_block = (1 << n) - 1
        alone = [
            (hit & first_block, i)
            for i, hit in enumerate(map(ones.__and__, contain))
            if hit & first_block and blocks(hit) == top
        ]
        if alone:
            return 1, (edges[min(alone)[1]],)
    inc = [0] * n
    for i, (u, v) in enumerate(edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    families: dict[int, list[int]] = {}

    def family(f: int) -> list[int]:
        # The breakers ``E(v, D_f)`` as edge masks, by ``v``, built when the
        # search first branches on set ``f``.
        if f not in families:
            dom = sets[f]
            reach = 0
            for v in range(n):
                if dom >> v & 1:
                    reach |= inc[v]
            families[f] = [inc[v] & reach for v in range(n) if not dom >> v & 1]
        return families[f]

    best_size = limit + 1
    best = 0

    def search(removed: int, size: int, forbidden: int, banned: int, left: list[int]) -> None:
        # ``left`` counts each breaker's edges not yet removed, bit-sliced.
        # ``forbidden`` holds edges an earlier sibling branch removed on
        # their own; every edge set holding one was searched there, so a
        # breaker that meets ``forbidden``, a bit of ``banned``, is out of
        # play.
        nonlocal best_size, best
        held = 0
        for level in left:
            held |= level
        unbroken = top & ~blocks(breakers & ~held)
        if not unbroken:
            best_size, best = size, removed
            return
        slack = best_size - size
        if slack <= 1:
            return
        live = breakers & ~banned & (unbroken << 1) - (unbroken >> (n - 1))
        # Both bounds are admissible: the unbroken set needing the most new
        # edges, and the edges that can meet every unbroken set.  A set whose
        # live breakers all need ``slack`` edges or more, or that has none
        # left, cannot be broken in time.
        if blocks(live & ~_at_least(left, slack)) != unbroken:
            return
        if not _covers(_edge_hits(contain, live, removed), unbroken.bit_count(), slack - 1):
            return
        first = (unbroken & -unbroken).bit_length() // n - 1
        for b in sorted(family(first), key=lambda b: (b & ~removed).bit_count()):
            if b & forbidden:
                continue
            new = b & ~removed
            extra = new.bit_count()
            if size + extra < best_size:
                gone = []
                while new:
                    low = new & -new
                    gone.append(contain[low.bit_length() - 1])
                    new ^= low
                search(removed | b, size + extra, forbidden, banned, _minus(left, gone))
            if b.bit_count() == 1:
                forbidden |= b
                banned |= contain[b.bit_length() - 1]

    search(0, 0, 0, 0, counts)
    if best_size > limit:
        return None
    return best_size, tuple(e for i, e in enumerate(edges) if best >> i & 1)


def _certified(
    g: Graph, b: int, witness: tuple[tuple[int, int], ...], gamma_before: int
) -> BondageResult:
    """The result for ``witness``, after checking that its removal raises gamma."""
    gamma_after = domination_number(g.remove_edges(witness)).gamma
    if gamma_after <= gamma_before:
        raise AssertionError(f"bondage witness {witness} leaves gamma at {gamma_after}")
    return BondageResult(b, witness, gamma_before, gamma_after)


def bondage_number(g: Graph) -> BondageResult:
    """Exact bondage number, certified by one domination solve on ``G - S``.

    Graphs are handled componentwise: ``gamma_before`` is the sum of the
    component domination numbers, and the bondage number of a disjoint
    union is the minimum over its components with at least one edge.  Each
    component's search stops at max degree plus min degree minus one edges,
    a proven upper bound, and at one edge fewer than the best witness of an
    earlier component.
    """
    if g.m == 0:
        raise ValueError("bondage number is undefined for empty graphs")
    gamma_before = 0
    best: tuple[int, tuple[tuple[int, int], ...]] | None = None
    for sub, verts in components_with_vertices(g):
        gamma, sets = minimum_dominating_sets(sub)
        gamma_before += gamma
        if sub.m == 0:
            continue
        stats = degree_stats(sub)
        limit = stats.max_degree + stats.min_degree - 1
        if best is not None:
            limit = min(limit, best[0] - 1)
        found = _bondage_connected(sub, sets, limit)
        if found is not None:
            # The limit makes every later find strictly smaller, and the
            # reindexing keeps label order, so lifted edges stay sorted.
            b, witness = found
            best = (b, tuple((verts[u], verts[v]) for u, v in witness))
    if best is None:
        raise AssertionError("no component reached its proven bondage bound")
    return _certified(g, *best, gamma_before)
