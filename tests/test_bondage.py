import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import combinations

from bondlab.bondage import _cover_bound, bondage_number, compute_b_prime, hartnell_rall_bound
from bondlab.domination import domination_number, minimum_dominating_sets
from bondlab.graphs import Graph, enumerate_connected_graphs, make_family

from conftest import (
    brute_bondage_number,
    colex_bondage_number,
    corona_path,
    random_connected_graph,
    random_graph,
    reference_cover_bound,
)


class TestBondageNumber:
    def test_single_edge(self):
        r = bondage_number(make_family("pn", 2))
        assert (r.b, r.gamma_before, r.gamma_after) == (1, 1, 2)

    def test_c4_by_brute_force(self):
        g = make_family("cn", 4)
        assert brute_bondage_number(g) == 3
        r = bondage_number(g)
        assert r.b == 3

    def test_balanced_bipartite_from_three(self):
        # Isolating one vertex of K_{n,n} leaves gamma at 3; fewer removals
        # always leave an untouched vertex on each side.
        for n in (3, 4):
            assert bondage_number(make_family("kmn", n, n)).b == n

    def test_k22_is_the_four_cycle(self):
        # The two graphs coincide, so their bondage numbers must.
        assert bondage_number(make_family("kmn", 2, 2)).b == bondage_number(make_family("cn", 4)).b == 3

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            bondage_number(Graph(3, [0, 0, 0]))

    def test_cap_exceeded_is_explicit(self):
        r = bondage_number(make_family("cn", 4), cap=2)
        assert r.exceeded_cap and r.b is None and r.cap == 2

    def test_witness_shape(self):
        g = make_family("petersen")
        r = bondage_number(g)
        assert r.b == 3 and len(r.witness_edges) == 3
        assert r.gamma_after == r.gamma_before + 1
        assert domination_number(g.remove_edges(r.witness_edges)).gamma == r.gamma_after

    def test_disconnected_uses_minimum_component(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (3, 5)])
        single = bondage_number(make_family("kn", 3))
        r = bondage_number(g)
        assert r.b == single.b
        assert all(u < 3 and v < 3 for u, v in r.witness_edges)

    def test_disconnected_with_isolated_vertex(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert bondage_number(g).b == 1

    @given(st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, n, rng):
        g = random_graph(rng, n)
        if g.m == 0:
            return
        assert bondage_number(g).b == brute_bondage_number(g)

    @given(st.integers(min_value=2, max_value=7), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_gamma_before_sums_components(self, n, rng):
        # Sparse draws make many of these graphs disconnected.
        g = random_graph(rng, n, p=rng.uniform(0.1, 0.6))
        if g.m == 0:
            return
        assert bondage_number(g).gamma_before == domination_number(g).gamma

    @given(st.integers(min_value=2, max_value=7), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_witness_minimality_second_pass(self, n, rng):
        g = random_connected_graph(rng, n)
        r = bondage_number(g)
        gamma0 = domination_number(g).gamma
        assert domination_number(g.remove_edges(r.witness_edges)).gamma > gamma0
        # Independent second pass in plain lexicographic order.
        for k in range(1, r.b):
            for subset in combinations(g.edges(), k):
                assert domination_number(g.remove_edges(subset)).gamma == gamma0


class TestHittingSearch:
    """The search over minimum dominating sets against the colex oracle."""

    def test_matches_colex_search_on_small_corpus(self):
        graphs = [g for g in enumerate_connected_graphs(6) if g.m]
        assert len(graphs) == 142
        for g in graphs:
            assert bondage_number(g).b == colex_bondage_number(g), g.edges()

    def test_corona_with_many_minimum_dominating_sets(self):
        g = corona_path(10)
        assert len(minimum_dominating_sets(g, domination_number(g).gamma)) == 1024
        assert bondage_number(g).b == colex_bondage_number(g) == 2

    def test_stress_graphs(self):
        k333 = Graph.from_edges(9, [(u, v) for u, v in combinations(range(9), 2) if u // 3 != v // 3])
        assert bondage_number(make_family("kmn", 5, 5)).b == 5
        assert bondage_number(make_family("qd", 4)).b == 4
        assert bondage_number(k333).b == 6

    @given(st.lists(st.integers(min_value=1, max_value=(1 << 80) - 1), min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_cover_bound_matches_per_bit_counting(self, reaches):
        assert _cover_bound(reaches) == reference_cover_bound(reaches)

    @given(st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_cover_bound_matches_on_few_edges(self, reaches):
        # Few edges met by many masks: counts run deep into the carry chain.
        assert _cover_bound(reaches) == reference_cover_bound(reaches)


@pytest.mark.xfail(
    strict=True,
    reason="b <= b' fails on P_4: the floored average-degree term 2*floor(2m/n)-1 "
    "drops below the justified bound floor(4m/n)-1 and the path's bondage "
    "number exceeds it (verified by brute force)",
)
def test_bondage_below_proxy_over_small_corpus():
    from bondlab.graphs import enumerate_connected_graphs

    for g in enumerate_connected_graphs(6):
        if g.m == 0:
            continue
        assert bondage_number(g).b <= compute_b_prime(g).b_prime, g.edges()


def test_bondage_below_relaxed_proxy_over_small_corpus():
    # With the average-degree term floor(4m/n)-1 the proxy does dominate the
    # bondage number everywhere on the small corpus.
    from bondlab.graphs import enumerate_connected_graphs

    for g in enumerate_connected_graphs(6):
        if g.m == 0:
            continue
        relaxed = min(compute_b_prime(g).edge_term, (4 * g.m - g.n) // g.n)
        assert bondage_number(g).b <= relaxed, g.edges()


class TestBPrime:
    def test_k4(self):
        r = compute_b_prime(make_family("kn", 4))
        assert (r.edge_term, r.ad_term, r.b_prime) == (3, 5, 3)

    def test_p3(self):
        r = compute_b_prime(make_family("pn", 3))
        assert (r.edge_term, r.ad_term, r.b_prime) == (2, 1, 1)

    def test_balanced_bipartite(self):
        for n in (2, 3, 4, 5):
            r = compute_b_prime(make_family("kmn", n, n))
            assert r.b_prime == 2 * n - 1

    def test_relaxed_term_never_smaller(self):
        import random

        rng = random.Random(3)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(2, 8))
            # floor(4m/n) - 1 against the proxy's 2*floor(2m/n) - 1.
            assert (4 * g.m - g.n) // g.n >= compute_b_prime(g).ad_term

    def test_requires_connected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            compute_b_prime(g)

    def test_requires_edges(self):
        with pytest.raises(ValueError):
            compute_b_prime(Graph(1, [0]))


class TestHartnellRall:
    def test_triangle(self):
        r = hartnell_rall_bound(make_family("kn", 3))
        assert r.edge_bound == 2

    def test_c5(self):
        r = hartnell_rall_bound(make_family("cn", 5))
        assert r.edge_bound == 3 == r.degree_bound

    def test_petersen_by_edge_loop(self):
        g = make_family("petersen")
        r = hartnell_rall_bound(g)
        expected = min(
            g.degree(u) + g.degree(v) - 1 - len(set(g.neighbors(u)) & set(g.neighbors(v)))
            for u, v in g.edges()
        )
        assert r.edge_bound == expected == 5

    def test_bound_dominates_bondage_on_small_graphs(self):
        import random

        from bondlab.graphs import degree_stats

        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 6))
            if g.m == 0:
                continue
            r = bondage_number(g)
            hr = hartnell_rall_bound(g)
            assert r.b <= hr.edge_bound
            # The degree form needs every vertex to have an edge; an isolated
            # vertex drags the minimum degree below any edge's endpoints.
            if degree_stats(g).min_degree >= 1:
                assert hr.edge_bound <= hr.degree_bound
