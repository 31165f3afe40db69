import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondlab import bondage
from bondlab.bondage import (
    _bondage_connected,
    _at_least,
    _certified,
    _count,
    _covers,
    _edge_hits,
    _minus,
    bondage_number,
    compute_b_prime,
    hartnell_rall_bound,
)
from bondlab.domination import domination_number, minimum_dominating_sets
from bondlab.graphs import (
    Graph,
    degree_stats,
    emit_graph6,
    enumerate_connected_graphs,
    make_family,
    parse_graph6,
)

from conftest import (
    _breaker_families,
    _one_edge_breaker,
    brute_bondage_number,
    brute_domination_number,
    brute_one_edge_breakers,
    colex_bondage_number,
    common_neighbors,
    complete_tripartite,
    corona_path,
    random_connected_graph,
    random_graph,
    reference_bondage_connected,
    reference_cover_bound,
    relabelled,
    torus_triangulation,
)

DATA = Path(__file__).parent / "data"


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

    def test_witness_shape(self):
        g = make_family("petersen")
        r = bondage_number(g)
        assert r.b == 3 and len(r.witness_edges) == 3
        assert r.gamma_after == r.gamma_before + 1
        assert brute_domination_number(g.remove_edges(r.witness_edges)) == r.gamma_after

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


class TestCapAndCertificate:
    def test_later_component_with_limit_zero(self):
        # K2 gives b = 1 first, so the search on C4 runs with limit 0; gamma
        # still counts both components.
        g = Graph.from_edges(6, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)])
        r = bondage_number(g)
        assert (r.b, r.witness_edges, r.gamma_before, r.gamma_after) == (1, ((0, 1),), 3, 4)
        # With C4 first, K2 still wins under its limit min(1, 3 - 1).
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)])
        r = bondage_number(g)
        assert (r.b, r.witness_edges, r.gamma_before, r.gamma_after) == (1, ((4, 5),), 3, 4)

    def test_certificate_rejects_a_witness_that_keeps_gamma(self):
        # P6 = C6 - e still has a dominating pair.
        g = make_family("cn", 6)
        with pytest.raises(AssertionError, match="leaves gamma at 2"):
            _certified(g, 1, ((0, 1),), 2)

    @given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_gamma_after_matches_subset_enumeration(self, n, rng):
        g = random_graph(rng, n, p=rng.uniform(0.2, 0.8))
        if g.m == 0:
            return
        r = bondage_number(g)
        assert r.gamma_after == brute_domination_number(g.remove_edges(r.witness_edges))
        assert r.gamma_before == brute_domination_number(g)


class TestOneEdgeSweep:
    """The b = 1 sweep over the breaker masks against raw enumeration and the list scan."""

    @staticmethod
    def check(g):
        _, sets = minimum_dominating_sets(g)
        one = _one_edge_breaker(_breaker_families(g, sets))
        oracle = brute_one_edge_breakers(g)
        assert bool(one) == bool(oracle)
        if not one:
            assert _bondage_connected(g, sets, 1) is None
            assert reference_bondage_connected(g, sets, 1, sweep=False) is None
            return None
        edge = g.edges()[one.bit_length() - 1]
        assert edge in oracle
        # The sweep decides b = 1 before the branch and bound removes an edge,
        # which it does through _minus, and picks the witness the list scan's
        # own branch and bound takes.  It honours the limit.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bondage, "_minus", None)
            assert _bondage_connected(g, sets, 1) == (1, (edge,))
        assert reference_bondage_connected(g, sets, 1, sweep=False) == (1, (edge,))
        assert _bondage_connected(g, sets, 0) is None
        return edge

    def test_corpus6_against_colex(self):
        for g in enumerate_connected_graphs(6):
            if g.m:
                assert (self.check(g) is not None) == (colex_bondage_number(g) == 1), g.edges()

    @given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs_against_colex(self, n, rng):
        g = random_connected_graph(rng, n, extra=rng.uniform(0.0, 0.8))
        assert (self.check(g) is not None) == (colex_bondage_number(g) == 1)


class TestHittingSearch:
    """The search over minimum dominating sets against the colex oracle."""

    def test_matches_colex_search_on_small_corpus(self):
        graphs = [g for g in enumerate_connected_graphs(6) if g.m]
        assert len(graphs) == 142
        for g in graphs:
            assert bondage_number(g).b == colex_bondage_number(g), g.edges()

    def test_corona_with_many_minimum_dominating_sets(self):
        g = corona_path(10)
        gamma, sets = minimum_dominating_sets(g)
        assert (gamma, len(sets)) == (10, 1024)
        assert bondage_number(g).b == colex_bondage_number(g) == 2

    def test_stress_graphs(self):
        assert bondage_number(make_family("kmn", 5, 5)).b == 5
        assert bondage_number(make_family("qd", 4)).b == 4
        assert bondage_number(complete_tripartite(3)).b == 6

    @staticmethod
    def check_counts(reaches):
        # Each reach is a set with a single breaker, bit i; the search counts
        # an edge's sets as the live bits of its per-edge mask.
        contain = [
            sum(1 << i for i, reach in enumerate(reaches) if reach >> e & 1)
            for e in range(max(reaches).bit_length())
        ]
        hits = _edge_hits(contain, (1 << len(reaches)) - 1, 0)
        assert hits == [mask.bit_count() for mask in contain]
        assert _edge_hits(contain, (1 << len(reaches)) - 1, 1) == [0] + hits[1:]
        want = reference_cover_bound(reaches)
        for k in range(1, len(contain) + 1):
            assert _covers(hits, len(reaches), k) == (k >= want)
        # The bit-sliced counts are the reaches' sizes, and removing edge 0
        # takes one from every reach that holds it.
        levels = _count(contain)
        for c in range(1, max(r.bit_count() for r in reaches) + 2):
            assert _at_least(levels, c) == sum(
                1 << i for i, reach in enumerate(reaches) if reach.bit_count() >= c
            )
            assert _at_least(_minus(levels, contain[:1]), c) == sum(
                1 << i for i, reach in enumerate(reaches) if (reach >> 1 << 1).bit_count() >= c
            )

    @given(st.lists(st.integers(min_value=1, max_value=(1 << 80) - 1), min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_cover_bound_matches_per_bit_counting(self, reaches):
        self.check_counts(reaches)

    @given(st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_cover_bound_matches_on_few_edges(self, reaches):
        self.check_counts(reaches)
        # Few bits held by many masks: counts run deep into the carry chain.
        levels = _count(reaches)
        for c in range(1, len(reaches) + 2):
            assert _at_least(levels, c) == sum(
                1 << e for e in range(4) if sum(r >> e & 1 for r in reaches) >= c
            )


class TestBitmaskSearch:
    """The search on breaker bitmasks against the list scan it replaced."""

    @staticmethod
    def check(g, limits=None):
        _, sets = minimum_dominating_sets(g)
        stats = degree_stats(g)
        top = stats.max_degree + stats.min_degree - 1
        for limit in range(top + 1) if limits is None else limits:
            want = reference_bondage_connected(g, sets, limit)
            assert bondage._bondage_connected(g, sets, limit) == want, (g.edges(), limit)
        return want

    def test_corpus6_at_every_limit(self):
        for g in enumerate_connected_graphs(6):
            if g.m:
                self.check(g)

    @given(st.integers(min_value=2, max_value=9), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_random_graphs(self, n, rng):
        g = random_connected_graph(rng, n, extra=rng.uniform(0.0, 0.8))
        stats = degree_stats(g)
        top = stats.max_degree + stats.min_degree - 1
        self.check(g, [rng.randint(0, top), top])

    def test_corona_with_many_minimum_dominating_sets(self):
        assert self.check(corona_path(10), [1, 2, 3]) == (2, ((0, 1), (0, 10)))

    @pytest.mark.parametrize("seed", range(3))
    def test_stress_graphs_relabelled(self, seed):
        rng = random.Random(seed)
        for g in (make_family("kmn", 5, 5), make_family("qd", 4), complete_tripartite(3)):
            h = relabelled(g, rng)
            stats = degree_stats(h)
            b, _ = self.check(h, [stats.max_degree + stats.min_degree - 1])
            assert self.check(h, [b - 1]) is None


def test_corpus7_results_and_witnesses_match_golden():
    # bondage_corpus7.json holds (gamma_before, b, witness_edges, gamma_after)
    # for each graph of order 7, as the search returned them before it was
    # rebuilt around one domination pass; witnesses must not move.
    rows = json.loads((DATA / "bondage_corpus7.json").read_text())
    assert len(rows) == 853
    for row in rows:
        r = bondage_number(parse_graph6(row["graph6"]))
        got = (r.gamma_before, r.b, [list(e) for e in r.witness_edges], r.gamma_after)
        want = (row["gamma_before"], row["b"], row["witness_edges"], row["gamma_after"])
        assert got == want, row["graph6"]


NAMED_GRAPHS = {
    "K5,5": lambda: make_family("kmn", 5, 5),
    "Q4": lambda: make_family("qd", 4),
    "K3,3,3": lambda: complete_tripartite(3),
    "Q5": lambda: make_family("qd", 5),
    "T(4,4)": lambda: torus_triangulation(4, 4),
    "P10oK1": lambda: corona_path(10),
}


@pytest.mark.parametrize("name", list(NAMED_GRAPHS))
def test_named_results_and_witnesses_match_golden(name):
    # bondage_named.json holds the same fields for dense graphs whose
    # searches run deep (n = 7 searches are shallow), as the list-scan
    # search returned them; the graph6 key is what CI feeds the console script.
    rows = {row["name"]: row for row in json.loads((DATA / "bondage_named.json").read_text())}
    assert list(rows) == list(NAMED_GRAPHS)
    row = rows[name]
    g = NAMED_GRAPHS[name]()
    assert emit_graph6(g) == row["graph6"]
    r = bondage_number(g)
    got = (r.gamma_before, r.b, [list(e) for e in r.witness_edges], r.gamma_after)
    assert got == (row["gamma_before"], row["b"], row["witness_edges"], row["gamma_after"])


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
        assert hartnell_rall_bound(make_family("kn", 3)) == 2

    def test_c5(self):
        # Every edge of C5 has no common neighbour: 2 + 2 - 1 - 0.
        assert hartnell_rall_bound(make_family("cn", 5)) == 3

    def test_petersen_by_edge_loop(self):
        g = make_family("petersen")
        expected = min(
            g.degree(u) + g.degree(v) - 1 - len(set(g.neighbors(u)) & set(g.neighbors(v)))
            for u, v in g.edges()
        )
        assert hartnell_rall_bound(g) == expected == 5

    @staticmethod
    def _stated(g):
        # The bound as Hartnell and Rall state it.
        return min(
            g.degree(u) + g.degree(v) - 1 - common_neighbors(g, u, v) for u, v in g.edges()
        )

    def test_edge_bound_is_the_stated_formula_through_order_six(self):
        graphs = [g for g in enumerate_connected_graphs(6) if g.m > 0]
        assert len(graphs) == 142
        for g in graphs:
            assert hartnell_rall_bound(g) == self._stated(g), emit_graph6(g)

    @pytest.mark.parametrize("parts", [
        (("kn", 4), ("pn", 3)),
        (("cn", 5), ("kn", 1), ("kmn", 2, 3)),
        (("petersen",), ("kn", 2)),
        (("kn", 2), ("kn", 2), ("kn", 2)),
        (("qd", 3), ("wn", 5)),
    ])
    def test_edge_bound_is_the_stated_formula_on_disjoint_unions(self, parts):
        n, edges = 0, []
        for name, *params in parts:
            part = make_family(name, *params)
            edges += [(u + n, v + n) for u, v in part.edges()]
            n += part.n
        g = Graph.from_edges(n, edges)
        assert not g.is_connected()
        assert hartnell_rall_bound(g) == self._stated(g)

    def test_bound_dominates_bondage_on_small_graphs(self):
        import random

        from bondlab.graphs import degree_stats

        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 6))
            if g.m == 0:
                continue
            r = bondage_number(g)
            edge_bound = hartnell_rall_bound(g)
            assert r.b <= edge_bound
            # The degree form needs every vertex to have an edge; an isolated
            # vertex drags the minimum degree below any edge's endpoints.
            stats = degree_stats(g)
            if stats.min_degree >= 1:
                assert edge_bound <= stats.max_degree + stats.min_degree - 1
