"""Standalone property suites for the inequality machinery.

These mirror the proof skeletons: the degree/size chain that every edge of a
high-proxy graph must satisfy, and the all-positive sign equivalences that
pin each bound's threshold.
"""

import random
from fractions import Fraction

from bondlab import bounds as bnd
from bondlab.bondage import compute_b_prime
from bondlab.graphs import degree_stats

from conftest import (
    common_neighbors,
    order_threshold_exceeded,
    random_connected_graph,
    sign_family_chi,
    sign_family_order,
    sign_family_size,
    size_threshold,
)


class TestEdgeChain:
    def test_degree_and_size_chain_on_random_graphs(self):
        rng = random.Random(2024)
        applicable = 0
        for _ in range(1000):
            g = random_connected_graph(rng, rng.randint(2, 10))
            proxy = compute_b_prime(g)
            delta = degree_stats(g).max_degree
            z = max(0, proxy.b_prime - delta)
            if proxy.b_prime < delta + z:
                continue  # hypothesis b' >= delta + z fails (z = 0, b' < delta)
            applicable += 1
            for u, v in g.edges():
                c = common_neighbors(g, u, v)
                assert min(g.degree(u), g.degree(v)) >= z + 1 + c, (g.edges(), u, v)
                assert 4 * g.m >= g.n * (2 * z + 2 + c)
                assert 4 * g.m >= (2 * z + 2 + c) ** 2
        # The hypothesis should hold often enough for the suite to mean something.
        assert applicable >= 200


class TestSignEquivalences:
    def test_chi_family_against_bisected_threshold(self):
        chi = -5
        threshold = bnd.largest_root_bisect(bnd.improved_bound_cubic(chi))
        for i in range(0, 2001):
            z = Fraction(i, 100)
            if abs(float(z) - threshold) < 1e-9:
                continue
            assert all(sign_family_chi(chi, z)) == (float(z) > threshold), z

    def test_order_family_matches_exact_threshold(self):
        for n in (1, 2, 7, 30):
            for chi in (0, -1, -6, -40):
                for i in range(0, 600):
                    z = Fraction(i, 8)
                    expected = order_threshold_exceeded(n, chi, z)
                    assert all(sign_family_order(n, chi, z)) == expected, (n, chi, z)

    def test_size_family_matches_exact_threshold(self):
        for chi in (0, -1, -9):
            for extra in (1, 7, 100):
                m = -3 * chi + extra
                threshold = size_threshold(chi, m)
                for i in range(0, 600):
                    z = Fraction(i, 8)
                    if z == threshold:
                        continue
                    assert all(sign_family_size(m, chi, z)) == (z > threshold), (chi, m, z)


class TestGirthMonotonicity:
    def test_bound_nonincreasing_in_girth(self):
        for chi in range(-50, 1):
            previous = None
            for g in range(3, 21):
                value = bnd.bound_girth(0, chi, g)
                if previous is not None:
                    assert value <= previous, (chi, g)
                previous = value
