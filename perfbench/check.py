"""Output checks against the stored reference.

Graph workloads compare each verification record with exact values stored
under ``data/``: the domination number, the bondage number, the certified
Euler characteristic per side, and every decided check verdict.  A record
may certify a value the reference left open; then a fresh search must give
a witness that ``trace_faces`` re-traces to that value.  Certified values of
complete and complete bipartite graphs must also match ``ringel_chi``.
Losing a certificate or a decision is not a failure here: it lowers
``certified_ratio`` or ``decided_ratio`` instead.

bounds-grid compares every report entry with closed forms evaluated by
integer square roots, and the cubic root floors with the stored table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from bondlab import embedding
from bondlab.graphs import Graph

# Checks that read chi: a newly certified chi may newly decide them.
CHI_CHECKS = frozenset({
    "genus", "cubic", "sqrt", "girth", "triangle_free", "order", "size",
    "cubic_bprime", "order_floor", "size_floor",
})


@dataclass(frozen=True)
class GraphRef:
    graph6: str
    gamma: int
    b: int
    chi: int | None
    chi_orientable: int | None
    chi_nonorientable: int | None
    verdicts: str  # one of p/f/s per check, in the order of ``checks``


def graph_refs(data: dict) -> dict[str, GraphRef]:
    return {row[0]: GraphRef(*row[1:]) for row in data["rows"]}


def verdict(check) -> str:
    if check.satisfied is None:
        return "s"
    return "p" if check.satisfied else "f"


def _complete_family(g: Graph) -> tuple | None:
    """("kn", n) or ("kmn", a, b) when ``ringel_chi`` covers the graph."""
    if g.n >= 3 and g.m == g.n * (g.n - 1) // 2:
        return ("kn", g.n)
    color = [-1] * g.n
    color[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if color[v] == -1:
                color[v] = color[u] ^ 1
                stack.append(v)
            elif color[v] == color[u]:
                return None
    a = color.count(0)
    if -1 in color or min(a, g.n - a) < 2 or g.m != a * (g.n - a):
        return None
    return ("kmn", a, g.n - a)


def witness_problem(g: Graph, budget: int, sides: dict[str, int]) -> str | None:
    """Re-run the search and re-trace its witness for each claimed side."""
    search = embedding.max_euler_characteristic(g, budget=budget)
    results = {"orientable": search.orientable, "nonorientable": search.nonorientable,
               "overall": search}
    for side, claimed in sides.items():
        res = results[side]
        if res is None or not res.certified or res.chi != claimed:
            return f"{side} chi {claimed} not reproduced by a fresh search"
        if res.witness is None:
            planar = search.orientable.certified and search.orientable.chi == 2
            if side == "nonorientable" and claimed == 1 and planar:
                continue  # settled by the planar identity, no scheme needed
            return f"{side} chi {claimed} has no witness"
        traced = embedding.trace_faces(g, res.witness)
        if traced.chi != claimed:
            return f"{side} witness traces to chi {traced.chi}, not {claimed}"
        if side == "orientable" and not traced.orientable:
            return "orientable witness is not orientable"
    return None


def check_record(rec, ref: GraphRef, checks: list[str], g: Graph, budget: int) -> str | None:
    """None when ``rec`` agrees with ``ref``; otherwise the first problem."""
    if rec.error is not None:
        return f"record error: {rec.error}"
    if rec.gamma != ref.gamma or rec.b != ref.b:
        return f"gamma/b {rec.gamma}/{rec.b}, reference {ref.gamma}/{ref.b}"
    claimed = {
        "overall": (rec.chi, ref.chi),
        "orientable": (rec.chi_orientable, ref.chi_orientable),
        "nonorientable": (rec.chi_nonorientable, ref.chi_nonorientable),
    }
    newly = {}
    for side, (got, want) in claimed.items():
        if got is None:
            continue
        if want is None:
            newly[side] = got
        elif got != want:
            return f"{side} chi {got}, reference {want}"
    family = _complete_family(g)
    if family is not None:
        for side, (got, _) in claimed.items():
            if got is not None and got != embedding.ringel_chi(*family, side=side):
                return f"{side} chi {got} disagrees with ringel_chi{family}"
    by_name = {c.name: c for c in rec.checks}
    for name, want in zip(checks, ref.verdicts):
        got = verdict(by_name[name]) if name in by_name else "s"
        if got == want or got == "s":
            continue
        if want == "s" and newly and name in CHI_CHECKS:
            continue
        return f"check {name} reads {got}, reference {want}"
    if newly:
        return witness_problem(g, budget, newly)
    return None


# -- bounds-grid -------------------------------------------------------------


def _ceil_isqrt(v: int) -> int:
    r = math.isqrt(v)
    return r if r * r == v else r + 1


def expected_terms(chi: int, girth: float, n: int, m: int,
                   cubic_terms: dict[int, tuple[int, int]]) -> dict[str, int | None]:
    """Additive terms of every bound entry; None where it does not apply."""
    baseline, improved = cubic_terms[chi]
    finite = girth != math.inf
    g = int(girth) if finite else 0
    terms: dict[str, int | None] = {
        "cubic": improved,
        "sqrt": 1 + math.isqrt(4 - 3 * chi),
        "cubic_baseline": baseline,
        "sqrt_baseline": _ceil_isqrt(4 * (12 - 6 * chi)) // 2,
        "girth": (2 + math.isqrt(g * g - g * (g - 2) * chi)) // (g - 2) if finite else None,
        "girth_baseline": (
            (math.isqrt(8 * g * (2 - g) * chi + (3 * g - 2) ** 2) - (g - 6)) // (2 * (g - 2))
            if finite else None
        ),
        "triangle_free": 1 + math.isqrt(4 - 2 * chi) if not finite or g >= 4 else None,
        "order": (n - 6 * chi + math.isqrt(25 * n * n - 84 * n * chi + 36 * chi * chi)) // (2 * n),
        "size": (3 * (m + 3 * chi) - 18 * chi) // (m + 3 * chi) if m + 3 * chi > 0 else None,
        "genus": None,
    }
    return terms


def check_bound_report(report, params, cubic_terms) -> str | None:
    delta, chi, girth, n, m = params
    want = expected_terms(chi, girth, n, m, cubic_terms)
    got = {e.name: e for e in report.entries}
    if set(got) != set(want):
        return f"entries {sorted(got)}, expected {sorted(want)}"
    for name, term in want.items():
        entry = got[name]
        if term is None:
            if entry.applicable:
                return f"{name} applicable for {params}"
        elif (not entry.applicable or entry.additive_term != term
              or entry.bound_value != delta + term):
            return f"{name} term {entry.additive_term}, expected {term} for {params}"
    return None
