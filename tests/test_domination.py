from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondlab.domination import _deepen, domination_number, is_dominating, minimum_dominating_sets
from bondlab.graphs import Graph, components, make_family

from conftest import brute_domination_number, brute_minimum_dominating_sets, random_graph


class TestDominationNumber:
    def test_complete_graphs(self):
        for n in (1, 2, 5, 9):
            assert domination_number(make_family("kn", n)).gamma == 1

    def test_balanced_bipartite(self):
        for n in (2, 3, 4, 5):
            assert domination_number(make_family("kmn", n, n)).gamma == 2

    def test_c4_against_subset_enumeration(self):
        g = make_family("cn", 4)
        assert domination_number(g).gamma == brute_domination_number(g) == 2

    def test_edgeless_graph_needs_every_vertex(self):
        g = Graph(4, [0, 0, 0, 0])
        assert domination_number(g).gamma == 4

    def test_size_guard_at_forty_vertices(self):
        # The message is the one the CLI and the harness report for P41.
        with pytest.raises(ValueError, match=r"^instance-size guard: n=41 exceeds limit 40$"):
            domination_number(make_family("pn", 41))
        assert domination_number(make_family("pn", 40)).gamma == 14

    @given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, n, rng):
        g = random_graph(rng, n)
        assert domination_number(g).gamma == brute_domination_number(g)

    @given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_witness_is_valid_and_minimal(self, n, rng):
        g = random_graph(rng, n)
        result = domination_number(g)
        assert len(result.witness) == result.gamma
        assert is_dominating(g, result.witness)
        for smaller in combinations(range(g.n), result.gamma - 1):
            assert not is_dominating(g, smaller)

    @given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_minimum_dominating_sets_match_subset_enumeration(self, n, rng):
        # One pass gives gamma and the whole level; sparse draws are often
        # disconnected.
        g = random_graph(rng, n, p=rng.uniform(0.2, 0.7))
        gamma, found = minimum_dominating_sets(g)
        assert gamma == brute_domination_number(g)
        assert len(set(found)) == len(found)
        assert sorted(found) == brute_minimum_dominating_sets(g)
        # The listing starts with the witness domination_number stops at.
        assert found[0] == tuple(sorted(domination_number(g).witness))

    @given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_deepening_from_any_lower_bound(self, n, rng):
        g = random_graph(rng, n)
        gamma = brute_domination_number(g)
        start = rng.randint(0, gamma)
        k, sets = _deepen(g, start)
        assert k == gamma == domination_number(g, start=start).gamma
        assert sorted(tuple(sorted(d)) for d in sets) == brute_minimum_dominating_sets(g)

    def test_witness_deterministic(self):
        g = make_family("petersen")
        assert domination_number(g).witness == domination_number(g).witness

    @given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_never_decreases_under_edge_deletion(self, n, rng):
        g = random_graph(rng, n)
        if g.m == 0:
            return
        gamma = domination_number(g).gamma
        edge = g.edges()[rng.randrange(g.m)]
        assert domination_number(g.remove_edges([edge])).gamma >= gamma

    @given(st.integers(min_value=2, max_value=9), st.randoms(use_true_random=False))
    @settings(max_examples=75, deadline=None)
    def test_additive_over_components(self, n, rng):
        g = random_graph(rng, n, p=0.25)
        total = sum(domination_number(c).gamma for c in components(g))
        assert domination_number(g).gamma == total


class TestIsDominating:
    def test_single_vertex_of_triangle(self):
        assert is_dominating(make_family("kn", 3), [0])

    def test_c5_single_vertex_misses(self):
        assert not is_dominating(make_family("cn", 5), [0])

    def test_whole_vertex_set(self):
        g = make_family("petersen")
        assert is_dominating(g, range(g.n))

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            is_dominating(make_family("kn", 3), [3])
