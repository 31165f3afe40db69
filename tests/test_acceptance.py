"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the verdict lines.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bondlab import bounds as bnd
from bondlab import cli
from bondlab.bondage import bondage_number, compute_b_prime
from bondlab.domination import domination_number
from bondlab.embedding import (
    max_euler_characteristic,
    ringel_chi,
    trace_faces,
)
from bondlab.graphs import degree_stats, enumerate_connected_graphs, make_family
from bondlab.harness import verify_graph

from conftest import (
    ORDER_RATIO_BOUNDS,
    SIZE_RATIO_BOUNDS,
    SchemeSpace,
    closed_form_root,
    common_neighbors,
    order_threshold_exceeded,
    random_connected_graph,
    random_rotation_system,
    reference_sweep,
    sign_family_chi,
    sign_family_order,
    sign_family_size,
    size_threshold,
)

DATA = Path(__file__).parent / "data"

# (baseline, improved) cubic terms for chi = 0..-21, transcribed row by row.
TABLE_PAIRS = [
    (3, 3), (3, 3), (4, 4), (5, 4), (5, 4), (6, 5), (6, 5), (7, 5),
    (7, 6), (8, 6), (8, 6), (8, 7), (9, 7), (9, 7), (9, 7), (10, 7),
    (10, 8), (10, 8), (11, 8), (11, 8), (11, 8), (11, 9),
]


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    code = cli.main(["table", "--chi-from", "-21", "--chi-to", "0"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()[1:]]
    got = {int(chi): (int(base), int(imp)) for chi, base, imp in rows}
    expected = {-i: TABLE_PAIRS[i] for i in range(22)}
    golden_ok = out == (DATA / "comparison_table_chi_-21_0.txt").read_text()
    verdict(
        1,
        "table reproduction",
        code == 0 and got == expected and golden_ok and elapsed < 1.0,
        f"22 rows, {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_ratio_thresholds():
    order_ok = True
    for chi in (-10, -60):
        for ratio, constant in ORDER_RATIO_BOUNDS:
            boundary = int(ratio * -chi)
            order_ok &= bnd.order_term(chi, boundary) == constant
            order_ok &= bnd.order_term(chi, boundary + 1) <= constant
    size_ok = True
    for chi in (-10, -60):
        for ratio, constant in SIZE_RATIO_BOUNDS:
            first = math.floor(ratio * -chi) + 1  # smallest m strictly above
            size_ok &= bnd.size_term(chi, first) == constant
            size_ok &= bnd.size_term(chi, first + 1) <= constant
    verdict(
        2,
        "ratio-threshold constants",
        order_ok and size_ok,
        "order constants 9/6/5/4/3, size constants 8/7/6/5/4/3",
    )


def test_criterion_3_balanced_bipartite_suite():
    start = time.perf_counter()
    results = {}
    for n in (2, 3, 4):
        g = make_family("kmn", n, n)
        results[n] = {
            "gamma": domination_number(g).gamma,
            "b": bondage_number(g).b,
            "bprime": compute_b_prime(g).b_prime,
        }
    gamma_ok = all(results[n]["gamma"] == 2 for n in (2, 3, 4))
    bprime_ok = all(results[n]["bprime"] == 2 * n - 1 for n in (2, 3, 4))
    # The stated bondage value b = n holds for n = 3, 4.  For n = 2 the graph
    # is the 4-cycle, whose bondage number is provably 3 (brute force over
    # all edge subsets); the criterion's n = 2 claim is covered by the
    # strict-xfail test below so the defect stays visible.
    bondage_ok = all(results[n]["b"] == n for n in (3, 4)) and results[2]["b"] == 3

    g44 = make_family("kmn", 4, 4)
    search = max_euler_characteristic(g44, orientable_only=True)
    space = SchemeSpace(g44, False)  # K4,4 is its own core
    chi_ok = (
        search.orientable.certified
        and search.orientable.chi == 0
        and search.orientable.chi == (4 * 4 - 4 * 4) // 2
        and reference_sweep(space, space.total)[0] == 0
    )
    sharp_ok = results[4]["bprime"] == 4 + 1 + math.isqrt(4 - 2 * 0) == 7
    elapsed = time.perf_counter() - start
    verdict(
        3,
        "balanced bipartite suite",
        gamma_ok and bprime_ok and bondage_ok and chi_ok and sharp_ok and elapsed < 120,
        f"{elapsed:.1f} s; b(K22)=3 documented deviation, see xfail",
    )


@pytest.mark.xfail(
    strict=True,
    reason="stated criterion expects b(K_{2,2}) = 2, but K_{2,2} is the 4-cycle "
    "with bondage number 3 (verified by exhaustive edge-subset search)",
)
def test_criterion_3_k22_bondage_as_stated():
    assert bondage_number(make_family("kmn", 2, 2)).b == 2


def test_criterion_4_brute_force_theorem_sweep():
    start = time.perf_counter()
    # These two have no chi hypothesis, so they must be decided (and hold)
    # on every corpus graph; all other checks must never report a violation
    # wherever their hypotheses let them fire.
    always_checked = {"hartnell_rall", "average_degree"}
    violations = []
    always_decided = 0
    certified = 0
    total = 0
    for g in enumerate_connected_graphs(6):
        if g.m == 0:
            continue  # the one-vertex class: bondage is undefined without edges
        total += 1
        record = verify_graph(g)
        if record.chi_certified:
            certified += 1
        for check in record.checks:
            if check.name in always_checked:
                always_decided += 1
                if check.satisfied is not True:
                    violations.append((record.graph6, check.name))
            elif check.satisfied is False:
                violations.append((record.graph6, check.name))
    elapsed = time.perf_counter() - start
    verdict(
        4,
        "brute-force theorem sweep",
        not violations and always_decided == 2 * total and certified == total == 142
        and elapsed < 300,
        f"{total} graphs, chi certified for {certified}, {elapsed:.0f} s",
    )


def test_criterion_5_embedding_correctness():
    cases = [
        ("kn", (4,), None),
        ("kn", (5,), None),
        ("kn", (6,), "orientable"),
        ("kn", (6,), None),
        ("kmn", (3, 3), None),
        ("kmn", (4, 4), "orientable"),
    ]
    match_ok = True
    for family, params, side in cases:
        g = make_family(family, *params)
        if side == "orientable":
            result = max_euler_characteristic(g, orientable_only=True)
            assert result.orientable.certified
            match_ok &= result.orientable.chi == ringel_chi(family, *params, side="orientable")
        else:
            result = max_euler_characteristic(g)
            assert result.certified
            match_ok &= result.chi == ringel_chi(family, *params)

    rng = random.Random(20240501)
    worst = 0.0
    for _ in range(10_000):
        g = random_connected_graph(rng, rng.randint(2, 7))
        rs = random_rotation_system(rng, g, signed=rng.random() < 0.5)
        summary = trace_faces(g, rs)
        total = 0.0
        for (u, v), (f1, f2) in summary.edge_face_lengths.items():
            total += (
                1 / g.degree(u) + 1 / g.degree(v) - 1
                + 1 / f1 + 1 / f2 - summary.chi / g.m
            )
        worst = max(worst, abs(total))
    verdict(
        5,
        "embedding correctness",
        match_ok and worst <= 1e-12,
        f"oracle matches on {len(cases)} cases; worst |curvature total| = {worst:.2e}",
    )


def test_criterion_6_root_solver_correctness():
    ok = True
    previous_root = None
    for chi in range(0, -201, -1):
        cubic = bnd.improved_bound_cubic(chi)
        exact = bnd.floor_largest_root(cubic)
        root = bnd.largest_root_bisect(cubic)
        ok &= exact == math.floor(root)
        ok &= abs(closed_form_root(chi) - root) < 1e-6
        ok &= root >= 3 - 1e-12
        if previous_root is not None:
            ok &= root > previous_root  # strictly decreasing in chi
        previous_root = root
        ok &= bnd.cubic_term(chi) <= bnd.cubic_term_baseline(chi)
    chi = -(10**6)
    root = bnd.largest_root_bisect(bnd.improved_bound_cubic(chi), 1e-6)
    ratio_main = root / (1 + math.sqrt(4 - 3 * chi))
    ok &= 0.99 <= ratio_main <= 1.01
    ratio_weak = (0.5 + math.sqrt(12 - 6 * chi)) / (1 + math.sqrt(4 - 3 * chi))
    ok &= math.sqrt(2) - 0.01 <= ratio_weak <= math.sqrt(2) + 0.01
    verdict(
        6,
        "root-solver correctness",
        ok,
        "exact floors = bisection floors on [-200, 0]; asymptotics at -1e6",
    )


def test_criterion_7_property_suites():
    rng = random.Random(77)
    applicable = 0
    chain_ok = True
    for _ in range(1000):
        g = random_connected_graph(rng, rng.randint(2, 10))
        proxy = compute_b_prime(g)
        delta = degree_stats(g).max_degree
        z = max(0, proxy.b_prime - delta)
        if proxy.b_prime < delta + z:
            continue
        applicable += 1
        for u, v in g.edges():
            c = common_neighbors(g, u, v)
            chain_ok &= min(g.degree(u), g.degree(v)) >= z + 1 + c
            chain_ok &= 4 * g.m >= g.n * (2 * z + 2 + c)

    signs_ok = True
    threshold = bnd.largest_root_bisect(bnd.improved_bound_cubic(-5))
    for i in range(0, 2001):
        z = Fraction(i, 100)
        if abs(float(z) - threshold) < 1e-9:
            continue
        signs_ok &= all(sign_family_chi(-5, z)) == (float(z) > threshold)
    for n in (1, 5, 12):
        for chi in (0, -4, -30):
            for i in range(0, 400):
                z = Fraction(i, 10)
                signs_ok &= all(sign_family_order(n, chi, z)) == order_threshold_exceeded(n, chi, z)
    for chi in (0, -3, -12):
        for m in (-3 * chi + 2, -3 * chi + 25):
            thr = size_threshold(chi, m)
            for i in range(0, 400):
                z = Fraction(i, 10)
                if z != thr:
                    signs_ok &= all(sign_family_size(m, chi, z)) == (z > thr)

    girth_ok = all(
        bnd.bound_girth(0, chi, g + 1) <= bnd.bound_girth(0, chi, g)
        for chi in range(-50, 1)
        for g in range(3, 20)
    )
    verdict(
        7,
        "property suites",
        chain_ok and signs_ok and girth_ok and applicable >= 200,
        f"edge chain on {applicable} applicable graphs; sign equivalences; girth monotone",
    )
