"""Regenerate the stored reference under ``perfbench/data``.

    python3 perfbench/make_reference.py

Graph values come from ``verify_graph`` at each file's budget, with the
domination number cross-checked by brute force and every certified chi
re-traced from its witness.  The cubic root floors are computed by integer
bisection, independently of ``bondlab.bounds``, and compared with it.  The
sparse-random pool is drawn once from a fixed seed.  Run it only when the
reference itself must change; a run of the benchmark never writes here.
"""

from __future__ import annotations

import json
import os
import random
import sys
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from bondlab import bounds, embedding  # noqa: E402
from bondlab.graphs import emit_graph6  # noqa: E402
from bondlab.harness import CHECK_NAMES, verify_graph  # noqa: E402

import check  # noqa: E402
import workloads as W  # noqa: E402

POOL_SEED = 20200203
POOL_SIZE = 2000
REFERENCE_BUDGET = embedding.DEFAULT_BUDGET


def brute_gamma(g) -> int:
    full = (1 << g.n) - 1
    closed = [g.closed_mask(v) for v in range(g.n)]
    for k in range(1, g.n + 1):
        for subset in combinations(closed, k):
            cover = 0
            for mask in subset:
                cover |= mask
            if cover == full:
                return k
    raise AssertionError("no dominating set")


def reference_row(key: str, g, budget: int) -> list:
    rec = verify_graph(g, budget=budget)
    if rec.gamma != brute_gamma(g):
        raise AssertionError(f"{key}: gamma {rec.gamma} disagrees with brute force")
    sides = {"overall": rec.chi, "orientable": rec.chi_orientable,
             "nonorientable": rec.chi_nonorientable}
    certified = {side: chi for side, chi in sides.items() if chi is not None}
    problem = check.witness_problem(g, budget, certified) if certified else None
    if problem:
        raise AssertionError(f"{key}: {problem}")
    verdicts = "".join(check.verdict(rec.check(name)) for name in CHECK_NAMES)
    return [key, rec.graph6, rec.gamma, rec.b, rec.chi, rec.chi_orientable,
            rec.chi_nonorientable, verdicts]


def cubic_floor(a: int, b: int, c: int) -> int:
    """Largest integer z >= 0 with z^3 + a z^2 + b z + c <= 0, by bisection."""
    def value(z: int) -> int:
        return ((z + a) * z + b) * z + c
    lo, hi = 0, 1
    while value(hi) <= 0:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if value(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


def write(name: str, payload: dict) -> None:
    path = os.path.join(W.DATA_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def graph_file(name: str, budget: int, keyed) -> None:
    rows = [reference_row(key, g, budget) for key, g in keyed]
    write(name, {"budget": budget, "checks": list(CHECK_NAMES), "rows": rows})


def main() -> None:
    os.makedirs(W.DATA_DIR, exist_ok=True)
    lo, hi = W.BOUNDS_CHI_RANGE
    table = []
    for chi in range(lo, hi + 1):
        row = [chi, cubic_floor(2, 6 * chi - 7, 18 * chi - 24), cubic_floor(1, 3 * chi - 8, 9 * chi - 12)]
        table.append(row)
    if [tuple(r) for r in table] != bounds.comparison_table(lo, hi):
        raise AssertionError("bounds.comparison_table disagrees with integer bisection")
    write("cubic_terms.json", {"columns": ["chi", "baseline_term", "improved_term"], "rows": table})

    graph_file("bondage_stress.json", W.BUDGETS["bondage-stress"],
               [(name, W.stress_graph(name)) for name, _ in W.STRESS_GRAPHS])

    rng = random.Random(POOL_SEED)
    pool = [W.random_sparse_graph(rng) for _ in range(POOL_SIZE)]
    graph_file(W.SPARSE_POOL_FILE, REFERENCE_BUDGET, [(str(i), g) for i, g in enumerate(pool)])

    corpus = W.corpus6_graphs()
    graph_file("corpus6.json", REFERENCE_BUDGET, [(emit_graph6(g), g) for g in corpus])


if __name__ == "__main__":
    main()
