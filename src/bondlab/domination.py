"""Exact minimum dominating sets via iterative deepening over bitmask covers.

One search deepens on target set size from a lower bound, branching on the
closed neighbourhood of a most-constrained uncovered vertex.  The first
level with a dominating set is the domination number; the whole vertex set
dominates, so the deepening ends by level ``n``.  The search stops at its
first set for :func:`domination_number`, and runs that level to completion
for :func:`minimum_dominating_sets`, so the bondage search gets ``gamma``
and every minimum dominating set in one pass.

Deepening starts at the larger of two lower bounds taken from the graph
alone: ``ceil(n / max closed neighbourhood)``, and the size of a greedy
2-packing, a set of vertices with pairwise disjoint closed neighbourhoods,
each of which needs a dominator of its own.  The vertices are sorted once by
(closed-neighbourhood size, label), so the branch vertex is the first
uncovered one in that order.  A node with one pick left tests each
candidate directly for covering the rest, and every other node is pruned
when the picks left, each covering at most the largest closed
neighbourhood, cannot cover what is uncovered.  Graphs above
:data:`VERTEX_LIMIT` vertices are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

from .graphs import Graph

__all__ = ["DominationResult", "domination_number", "minimum_dominating_sets"]

# The search is exponential; the guard keeps accidental large inputs from hanging.
VERTEX_LIMIT = 40


@dataclass(frozen=True)
class DominationResult:
    gamma: int
    witness: tuple[int, ...]


def instance_size_error(n: int) -> str | None:
    """Why the size guard refuses an ``n``-vertex graph, or None if it does not."""
    if n > VERTEX_LIMIT:
        return f"instance-size guard: n={n} exceeds limit {VERTEX_LIMIT}"
    return None


def _search_order(closed: Sequence[int]) -> list[int]:
    """The vertices by (closed-neighbourhood size, label), as one mask per size.

    The masks come by increasing size, so the lowest uncovered bit of the
    first mask that meets the uncovered vertices is a most-constrained
    uncovered vertex, with ties broken by label.
    """
    classes = [0] * (len(closed) + 1)
    for v, mask in enumerate(closed):
        classes[mask.bit_count()] |= 1 << v
    return [mask for mask in classes if mask]


def _packing_bound(closed: Sequence[int], order: Sequence[int]) -> int:
    """The size of a greedy 2-packing, a lower bound on the domination number.

    Vertices whose closed neighbourhoods are pairwise disjoint are taken in
    search order; each needs a dominator of its own.
    """
    taken = size = 0
    for classmask in order:
        while classmask:
            low = classmask & -classmask
            classmask ^= low
            mask = closed[low.bit_length() - 1]
            if not mask & taken:
                taken |= mask
                size += 1
    return size


def _dominating_sets(
    closed: Sequence[int], order: Sequence[int], k: int
) -> Iterator[tuple[int, ...]]:
    """Dominating sets of at most ``k`` vertices in search order, none twice.

    ``order`` is :func:`_search_order` of ``closed``.  Branches on the closed
    neighbourhood of the first uncovered vertex in that order, a most
    constrained one, taking candidates by label; each branch excludes the
    candidates its earlier siblings took, so no set is reached twice.  With
    one pick left, each candidate is tested directly.  With ``k`` the
    domination number this yields every minimum dominating set.
    """
    full = (1 << len(closed)) - 1
    max_cover = max(map(int.bit_count, closed))
    chosen: list[int] = []

    def dfs(covered: int, remaining: int, excluded: int) -> Iterator[tuple[int, ...]]:
        uncovered = full & ~covered
        if not uncovered:
            yield tuple(chosen)
            return
        # Admissible bound: no pick covers more than max_cover vertices.
        if max_cover * remaining < uncovered.bit_count():
            return
        for classmask in order:
            pick = uncovered & classmask
            if pick:
                break
        cand = closed[(pick & -pick).bit_length() - 1] & ~excluded
        if remaining == 1:
            while cand:
                low = cand & -cand
                cand ^= low
                c = low.bit_length() - 1
                if not uncovered & ~closed[c]:
                    yield (*chosen, c)
            return
        while cand:
            low = cand & -cand
            cand ^= low
            c = low.bit_length() - 1
            chosen.append(c)
            yield from dfs(covered | closed[c], remaining - 1, excluded)
            chosen.pop()
            excluded |= low

    return dfs(0, k, 0)


def _deepen(g: Graph) -> tuple[int, Iterator[tuple[int, ...]]]:
    """The domination number of ``g`` and its minimum dominating sets.

    Deepening starts at ``ceil(n / max closed neighbourhood)`` or at the
    size of a greedy 2-packing, whichever is larger, and every level below
    the returned one is refuted in full.  The iterator yields the sets of
    that level in search order, unsorted, none twice; its first set is
    already found, and the rest are searched only when it is read on.
    Raises ``ValueError`` on an empty graph and above :data:`VERTEX_LIMIT`
    vertices.
    """
    if g.n < 1:
        raise ValueError("domination needs at least one vertex")
    error = instance_size_error(g.n)
    if error is not None:
        raise ValueError(error)
    closed = [g.closed_mask(v) for v in range(g.n)]
    order = _search_order(closed)
    max_cover = max(map(int.bit_count, closed))
    for k in range(max(-(-g.n // max_cover), _packing_bound(closed, order)), g.n + 1):
        sets = _dominating_sets(closed, order, k)
        for first in sets:
            # A smaller set would show a lower bound above the domination number.
            if len(first) < k:
                raise AssertionError(f"{len(first)} vertices dominate below level {k}")
            return k, chain((first,), sets)
    # The whole vertex set dominates, so this is unreachable.
    raise AssertionError("search found no dominating set of n vertices")


def domination_number(g: Graph) -> DominationResult:
    """Exact domination number with a deterministic minimum witness.

    Raises ``ValueError`` on an empty graph and above :data:`VERTEX_LIMIT`
    vertices.
    """
    gamma, sets = _deepen(g)
    return DominationResult(gamma=gamma, witness=next(sets))


def minimum_dominating_sets(g: Graph) -> tuple[int, list[tuple[int, ...]]]:
    """The domination number of ``g`` and every minimum dominating set, each sorted.

    One deepening search finds the first level with a dominating set and
    lists that whole level, in the search order :func:`domination_number`
    takes its witness from.
    """
    gamma, sets = _deepen(g)
    return gamma, [tuple(sorted(d)) for d in sets]
