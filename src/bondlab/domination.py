"""Exact minimum dominating sets via iterative deepening over bitmask covers.

One search deepens on target set size from a lower bound, branching on the
closed neighbourhood of a most-constrained uncovered vertex.  The first
level with a dominating set is the domination number; the whole vertex set
dominates, so the deepening ends by level ``n``.  Sets are vertex masks.
The search appends each set it reaches to one list, in search order, so
:func:`minimum_dominating_sets` lists the whole first level with a set in
the pass that finds it, and the bondage search gets ``gamma`` and every
minimum dominating set at once.  :func:`domination_number` runs the same
search in first-set mode: it stops at the first set, and its witness is
that set's vertices in label order.

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
from typing import Sequence

from .graphs import Graph

__all__ = ["DominationResult", "domination_number", "minimum_dominating_sets"]

# The search is exponential; the guard keeps accidental large inputs from hanging.
VERTEX_LIMIT = 40


@dataclass(frozen=True)
class DominationResult:
    """The domination number and a minimum dominating set, in label order."""

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
    closed: Sequence[int], order: Sequence[int], k: int, max_cover: int, first: bool = False
) -> list[int]:
    """Dominating sets of at most ``k`` vertices as vertex masks, in search order, none twice.

    ``order`` is :func:`_search_order` of ``closed`` and ``max_cover`` the
    largest closed neighbourhood's size.  Branches on the closed
    neighbourhood of the first uncovered vertex in that order, a most
    constrained one, taking candidates by label; each branch excludes the
    candidates its earlier siblings took, so no set is reached twice.  With
    one pick left, each candidate is tested directly.  With ``k`` the
    domination number this lists every minimum dominating set; with
    ``first`` the search stops at its first set.
    """
    found: list[int] = []

    def dfs(uncovered: int, chosen: int, remaining: int, excluded: int) -> bool:
        # True once ``first`` has its set, which ends the search.
        # Admissible bound: no pick covers more than max_cover vertices.
        if max_cover * remaining < uncovered.bit_count():
            return False
        for classmask in order:
            pick = uncovered & classmask
            if pick:
                break
        cand = closed[(pick & -pick).bit_length() - 1] & ~excluded
        if remaining == 1:
            while cand:
                low = cand & -cand
                cand ^= low
                if not uncovered & ~closed[low.bit_length() - 1]:
                    found.append(chosen | low)
                    if first:
                        return True
            return False
        while cand:
            low = cand & -cand
            cand ^= low
            rest = uncovered & ~closed[low.bit_length() - 1]
            if not rest:
                found.append(chosen | low)
                if first:
                    return True
            elif dfs(rest, chosen | low, remaining - 1, excluded):
                return True
            excluded |= low
        return False

    dfs((1 << len(closed)) - 1, 0, k, 0)
    return found


def _deepen(g: Graph, first: bool = False) -> tuple[int, list[int]]:
    """The domination number of ``g`` and its minimum dominating sets as vertex masks.

    Deepening starts at ``ceil(n / max closed neighbourhood)`` or at the
    size of a greedy 2-packing, whichever is larger, and every level below
    the returned one is refuted in full.  The level that has a set is listed
    in the same pass, in search order, none twice; with ``first`` the list
    holds only its first set.  Raises ``ValueError`` on an empty graph and
    above :data:`VERTEX_LIMIT` vertices.
    """
    if g.n < 1:
        raise ValueError("domination needs at least one vertex")
    error = instance_size_error(g.n)
    if error is not None:
        raise ValueError(error)
    closed = [mask | 1 << v for v, mask in enumerate(g.adjacency)]
    order = _search_order(closed)
    max_cover = max(map(int.bit_count, closed))
    for k in range(max(-(-g.n // max_cover), _packing_bound(closed, order)), g.n + 1):
        sets = _dominating_sets(closed, order, k, max_cover, first)
        if sets:
            # A smaller set would show a lower bound above the domination number.
            if sets[0].bit_count() < k:
                raise AssertionError(f"{sets[0].bit_count()} vertices dominate below level {k}")
            return k, sets
    # The whole vertex set dominates, so this is unreachable.
    raise AssertionError("search found no dominating set of n vertices")


def domination_number(g: Graph) -> DominationResult:
    """Exact domination number with a deterministic minimum witness.

    The search of :func:`minimum_dominating_sets` stops at its first set,
    and the witness is that set's vertices in label order.  Raises
    ``ValueError`` on an empty graph and above :data:`VERTEX_LIMIT`
    vertices.
    """
    gamma, (first,) = _deepen(g, first=True)
    return DominationResult(
        gamma=gamma, witness=tuple(v for v in range(g.n) if first >> v & 1)
    )


def minimum_dominating_sets(g: Graph) -> tuple[int, list[int]]:
    """The domination number of ``g`` and every minimum dominating set as a vertex mask.

    One deepening search finds the first level with a dominating set and
    lists that whole level in search order; its first set is the witness
    of :func:`domination_number`.
    """
    return _deepen(g)
