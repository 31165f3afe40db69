"""Exact bondage numbers and the computable edge/average-degree proxy.

Removing edges never creates a dominating set, so ``gamma(G - S) >
gamma(G)`` holds exactly when ``S`` breaks every minimum dominating set
``D`` of ``G``.  ``S`` breaks ``D`` when, for some vertex ``v`` outside
``D``, ``S`` contains every edge from ``v`` into ``D``; each such edge set
``E(v, D)`` is a *breaker* of ``D``.  The search lists the minimum
dominating sets once, then branches and bounds over breaker bitmasks for
the smallest edge set that holds a breaker of every one of them.  One
domination solve on ``G - S`` certifies the answer.  The default cap (max
degree plus min degree minus one) is a proven upper bound, so the search
always finds the exact value on nonempty graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domination import domination_number, minimum_dominating_sets
from .graphs import Graph, common_neighbors, components_with_vertices, degree_stats

__all__ = [
    "BondageResult",
    "BPrimeResult",
    "HartnellRallBound",
    "bondage_number",
    "compute_b_prime",
    "hartnell_rall_bound",
]


@dataclass(frozen=True)
class BondageResult:
    b: int | None
    witness_edges: tuple[tuple[int, int], ...] | None
    gamma_before: int
    gamma_after: int | None
    cap: int
    exceeded_cap: bool = False


@dataclass(frozen=True)
class BPrimeResult:
    """min(edge term, average-degree term); the edge witness attains the min."""

    b_prime: int
    edge_term: int
    edge_witness: tuple[int, int]
    ad_term: int


@dataclass(frozen=True)
class HartnellRallBound:
    edge_bound: int
    witness_edge: tuple[int, int]
    degree_bound: int


def hartnell_rall_bound(g: Graph) -> HartnellRallBound:
    """Minimum over edges of d(u)+d(v)-1-|N(u) and N(v)|, plus the degree form."""
    if g.m == 0:
        raise ValueError("bound needs at least one edge")
    best = None
    witness = None
    for u, v in g.edges():
        value = g.degree(u) + g.degree(v) - 1 - common_neighbors(g, u, v)
        if best is None or value < best:
            best = value
            witness = (u, v)
    stats = degree_stats(g)
    return HartnellRallBound(
        edge_bound=best,
        witness_edge=witness,
        degree_bound=stats.max_degree + stats.min_degree - 1,
    )


def compute_b_prime(g: Graph) -> BPrimeResult:
    """Edge/average-degree proxy for the bondage number of a connected graph.

    The average-degree term is ``2*floor(ad) - 1`` with ``ad = 2m/n`` taken
    exactly.
    """
    if g.m == 0:
        raise ValueError("proxy needs at least one edge")
    if not g.is_connected():
        raise ValueError("proxy is defined for connected graphs; decompose first")
    hr = hartnell_rall_bound(g)
    ad_term = 2 * ((2 * g.m) // g.n) - 1
    return BPrimeResult(
        b_prime=min(hr.edge_bound, ad_term),
        edge_term=hr.edge_bound,
        edge_witness=hr.witness_edge,
        ad_term=ad_term,
    )


def _breaker_families(g: Graph, gamma: int) -> list[list[int]]:
    """For each minimum dominating set ``D``, its breakers ``E(v, D)``.

    A breaker is a bitmask over the indices of ``g.edges()``.  Breakers of
    one set are pairwise disjoint, since each holds only edges at its ``v``.
    """
    bit = [[0] * g.n for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges()):
        bit[u][v] = bit[v][u] = 1 << i
    return [
        [sum(bit[v][u] for u in dom) for v in range(g.n) if v not in dom]
        for dom in minimum_dominating_sets(g, gamma)
    ]


def _cover_bound(reaches: list[int]) -> int:
    """A lower bound on the edges needed to meet every mask in ``reaches``.

    An edge meets at most as many masks as contain it, so ``k`` edges meet
    at most the ``k`` largest of those counts.  The counts are kept
    bit-sliced: bit ``i`` of ``levels[j]`` is bit ``j`` of edge ``i``'s
    count, and each mask is added to every edge at once by a ripple carry.
    """
    levels: list[int] = []
    for reach in reaches:
        carry = reach
        for j, level in enumerate(levels):
            levels[j] = level ^ carry
            carry &= level
            if not carry:
                break
        else:
            levels.append(carry)
    edges = 0
    for level in levels:
        edges |= level
    hits = []
    while edges:
        low = edges & -edges
        hits.append(sum(1 << j for j, level in enumerate(levels) if level & low))
        edges ^= low
    left = len(reaches)
    for k, h in enumerate(sorted(hits, reverse=True), 1):
        left -= h
        if left <= 0:
            return k
    raise AssertionError("every mask holds an edge")


def _bondage_connected(
    g: Graph, gamma: int, cap: int
) -> tuple[int, tuple[tuple[int, int], ...]] | None:
    """The fewest edges, at most ``cap``, that break every minimum dominating set."""
    best_size = cap + 1
    best = 0

    def search(removed: int, size: int, families: list[list[int]], forbidden: int) -> None:
        # ``forbidden`` holds edges an earlier sibling branch removed on
        # their own; every edge set holding one was searched there, so a
        # breaker that meets ``forbidden`` is out of play.
        nonlocal best_size, best
        unbroken = []
        reaches = []
        most = 0
        for breakers in families:
            need = g.m
            reach = 0
            for b in breakers:
                if b & forbidden:
                    continue
                new = b & ~removed
                if not new:
                    need = 0
                    break
                reach |= new
                if new.bit_count() < need:
                    need = new.bit_count()
            if need:
                if not reach:
                    return
                unbroken.append(breakers)
                reaches.append(reach)
                most = max(most, need)
        if not unbroken:
            best_size, best = size, removed
            return
        # Both bounds are admissible: the unbroken set needing the most new
        # edges, and the edges that can meet every unbroken set's reach.
        if size + most >= best_size or size + _cover_bound(reaches) >= best_size:
            return
        for b in sorted(unbroken[0], key=lambda b: (b & ~removed).bit_count()):
            if b & forbidden:
                continue
            extra = (b & ~removed).bit_count()
            if size + extra < best_size:
                search(removed | b, size + extra, unbroken, forbidden)
            if b.bit_count() == 1:
                forbidden |= b

    search(0, 0, _breaker_families(g, gamma), 0)
    if best_size > cap:
        return None
    edges = g.edges()
    return best_size, tuple(e for i, e in enumerate(edges) if best >> i & 1)


def _certified(
    g: Graph, b: int, witness: tuple[tuple[int, int], ...], gamma_before: int, cap: int
) -> BondageResult:
    """The result for ``witness``, after checking that its removal raises gamma."""
    gamma_after = domination_number(g.remove_edges(witness)).gamma
    if gamma_after <= gamma_before:
        raise AssertionError(f"bondage witness {witness} leaves gamma at {gamma_after}")
    return BondageResult(b, witness, gamma_before, gamma_after, cap)


def bondage_number(g: Graph, cap: int | None = None) -> BondageResult:
    """Exact bondage number, certified by one domination solve on ``G - S``.

    Graphs are handled componentwise: ``gamma_before`` is the sum of the
    component domination numbers, and the bondage number of a disjoint
    union is the minimum over its components with at least one edge.  A
    result with ``exceeded_cap`` set (never with the default cap) means the
    search proved ``b > cap`` without finding a witness.
    """
    if g.m == 0:
        raise ValueError("bondage number is undefined for empty graphs")
    gamma_before = 0
    best: tuple[int, tuple[tuple[int, int], ...]] | None = None
    caps = []
    for sub, verts in components_with_vertices(g):
        gamma = domination_number(sub).gamma
        gamma_before += gamma
        if sub.m == 0:
            continue
        stats = degree_stats(sub)
        sub_cap = cap if cap is not None else stats.max_degree + stats.min_degree - 1
        caps.append(sub_cap)
        limit = sub_cap if best is None else min(sub_cap, best[0] - 1)
        found = _bondage_connected(sub, gamma, limit)
        if found is not None:
            # The limit makes every later find strictly smaller, and the
            # reindexing keeps label order, so lifted edges stay sorted.
            b, witness = found
            best = (b, tuple((verts[u], verts[v]) for u, v in witness))
    if best is None:
        return BondageResult(
            b=None,
            witness_edges=None,
            gamma_before=gamma_before,
            gamma_after=None,
            cap=max(caps),
            exceeded_cap=True,
        )
    return _certified(g, *best, gamma_before, max(caps))
