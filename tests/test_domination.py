import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondlab.domination import (
    _deepen,
    _dominating_sets,
    _packing_bound,
    _search_order,
    domination_number,
    minimum_dominating_sets,
)
from bondlab.graphs import Graph, components_with_vertices, enumerate_connected_graphs, make_family

from conftest import (
    brute_domination_number,
    brute_minimum_dominating_sets,
    corona_path,
    is_dominating,
    mask_vertices,
    random_graph,
    reference_dominating_sets,
)


def every_graph(max_n):
    """One graph per isomorphism class on 1..max_n vertices.

    A graph or its complement is connected, so the connected classes and
    the complements of those with a disconnected complement cover them all.
    """
    for g in enumerate_connected_graphs(max_n):
        yield g
        full = (1 << g.n) - 1
        co = Graph(g.n, [full & ~(mask | 1 << v) for v, mask in enumerate(g.adjacency)])
        if not co.is_connected():
            yield co


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
        gamma, masks = minimum_dominating_sets(g)
        found = [mask_vertices(mask) for mask in masks]
        assert gamma == brute_domination_number(g)
        assert len(set(found)) == len(found)
        assert sorted(found) == brute_minimum_dominating_sets(g)
        # The listing starts with the witness domination_number stops at.
        assert found[0] == domination_number(g).witness

    @given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_deepening_from_its_own_lower_bounds(self, n, rng):
        g = random_graph(rng, n)
        k, sets = _deepen(g)
        assert k == brute_domination_number(g) == domination_number(g).gamma
        assert sorted(map(mask_vertices, sets)) == brute_minimum_dominating_sets(g)
        assert _deepen(g, first=True) == (k, sets[:1])

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
        total = sum(domination_number(c).gamma for c, _ in components_with_vertices(g))
        assert domination_number(g).gamma == total


class TestSearchOrder:
    """The search against the recursive search it replaced, level by level."""

    @staticmethod
    def listing(g, k, first=False):
        # The level's sets as sorted vertex tuples, in search order.
        closed = [g.closed_mask(v) for v in range(g.n)]
        max_cover = max(map(int.bit_count, closed))
        sets = _dominating_sets(closed, _search_order(closed), k, max_cover, first)
        return [mask_vertices(mask) for mask in sets]

    def check(self, g, top):
        closed = [g.closed_mask(v) for v in range(g.n)]
        full = (1 << g.n) - 1
        for k in range(top + 1):
            want = [tuple(sorted(d)) for d in reference_dominating_sets(closed, full, k)]
            assert self.listing(g, k) == want, (g.edges(), k)

    def test_every_graph_to_six_vertices(self):
        graphs = list(every_graph(6))
        assert len(graphs) == 1 + 2 + 4 + 11 + 34 + 156
        for g in graphs:
            # One level past gamma also lists sets that are not minimum.
            self.check(g, min(domination_number(g).gamma + 1, g.n))

    @given(st.integers(min_value=1, max_value=9), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_random_graphs(self, n, rng):
        g = random_graph(rng, n, p=rng.uniform(0.1, 0.7))
        self.check(g, min(brute_domination_number(g) + 1, g.n))

    def test_first_set_mode_lists_the_first_set(self):
        rng = random.Random(5)
        graphs = list(every_graph(6))
        graphs += [random_graph(rng, rng.randint(1, 9), p=rng.uniform(0.1, 0.7)) for _ in range(150)]
        for g in graphs:
            for k in range(g.n + 1):
                assert self.listing(g, k, first=True) == self.listing(g, k)[:1], (g.edges(), k)

    def test_corona_with_many_minimum_dominating_sets(self):
        self.check(corona_path(10), 10)

    @given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_packing_never_exceeds_gamma(self, n, rng):
        g = random_graph(rng, n, p=rng.uniform(0.1, 0.7))
        closed = [g.closed_mask(v) for v in range(g.n)]
        assert _packing_bound(closed, _search_order(closed)) <= brute_domination_number(g)


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
