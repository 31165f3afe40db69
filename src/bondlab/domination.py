"""Exact minimum dominating sets via iterative deepening over bitmask covers.

One search deepens on target set size from a lower bound, branching on the
closed neighbourhood of a most-constrained uncovered vertex.  The first
level with a dominating set is the domination number; the whole vertex set
dominates, so the deepening ends by level ``n``.  The search stops at its
first set for :func:`domination_number`, and runs that level to completion
for :func:`minimum_dominating_sets`, so the bondage search gets ``gamma``
and every minimum dominating set in one pass.  Deepening may start at any
known lower bound: the bondage certificate starts on ``G - S`` at
``gamma(G)``.  Graphs above :data:`VERTEX_LIMIT` vertices are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .graphs import Graph

__all__ = ["DominationResult", "domination_number", "is_dominating", "minimum_dominating_sets"]

# The search is exponential; the guard keeps accidental large inputs from hanging.
VERTEX_LIMIT = 40


@dataclass(frozen=True)
class DominationResult:
    gamma: int
    witness: tuple[int, ...]


def is_dominating(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the closed neighbourhoods of ``vertices`` cover the graph."""
    covered = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range 0..{g.n - 1}")
        covered |= g.closed_mask(v)
    return covered == (1 << g.n) - 1


def instance_size_error(n: int) -> str | None:
    """Why the size guard refuses an ``n``-vertex graph, or None if it does not."""
    if n > VERTEX_LIMIT:
        return f"instance-size guard: n={n} exceeds limit {VERTEX_LIMIT}"
    return None


def _dominating_sets(closed: Sequence[int], full: int, k: int) -> Iterator[tuple[int, ...]]:
    """Dominating sets of at most ``k`` vertices in search order, none twice.

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


def _deepen(g: Graph, start: int = 0) -> tuple[int, Iterator[tuple[int, ...]]]:
    """The domination number of ``g`` and its minimum dominating sets.

    Deepening starts at ``start`` or at ``ceil(n / max closed neighbourhood)``,
    whichever is larger, so ``start`` must not exceed the domination number.
    Every level below the returned one is refuted in full.  The iterator
    yields the sets of that level in search order, unsorted, none twice;
    its first set is already found, and the rest are searched only when it
    is read on.  Raises ``ValueError`` on an empty graph and above
    :data:`VERTEX_LIMIT` vertices.
    """
    if g.n < 1:
        raise ValueError("domination needs at least one vertex")
    error = instance_size_error(g.n)
    if error is not None:
        raise ValueError(error)
    closed = [g.closed_mask(v) for v in range(g.n)]
    full = (1 << g.n) - 1
    max_cover = max(mask.bit_count() for mask in closed)
    for k in range(max(start, -(-g.n // max_cover)), g.n + 1):
        sets = _dominating_sets(closed, full, k)
        for first in sets:
            return k, chain((first,), sets)
    # The whole vertex set dominates, so this is unreachable.
    raise AssertionError("search found no dominating set of n vertices")


def domination_number(g: Graph, *, start: int = 0) -> DominationResult:
    """Exact domination number with a deterministic minimum witness.

    Deepening starts at ``start``, which must be a lower bound on the
    domination number; every level from there up is refuted in full.
    Raises ``ValueError`` above :data:`VERTEX_LIMIT` vertices.
    """
    gamma, sets = _deepen(g, start)
    return DominationResult(gamma=gamma, witness=next(sets))


def minimum_dominating_sets(g: Graph) -> tuple[int, list[tuple[int, ...]]]:
    """The domination number of ``g`` and every minimum dominating set, each sorted.

    One deepening search finds the first level with a dominating set and
    lists that whole level, in the search order :func:`domination_number`
    takes its witness from.
    """
    gamma, sets = _deepen(g)
    return gamma, [tuple(sorted(d)) for d in sets]
