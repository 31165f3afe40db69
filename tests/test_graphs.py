import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondlab.bondage import compute_b_prime
from bondlab.graphs import (
    Graph,
    GraphFormatError,
    canonical_code,
    components_with_vertices,
    degree_stats,
    emit_graph6,
    enumerate_connected_graphs,
    girth,
    graph_from_code,
    make_family,
    parse_graph6,
)

from conftest import (
    are_isomorphic,
    common_neighbors,
    oracle_girth,
    random_graph,
    reference_canonical_code,
)

DATA = Path(__file__).parent / "data"


def _relabelled(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


class TestGraphBasics:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph(2, [0b01, 0b01])  # vertex 0 adjacent to itself

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            Graph(2, [0b10, 0b00])

    def test_edge_count_is_half_degree_sum(self):
        g = make_family("kmn", 2, 3)
        assert g.m == 6
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m

    def test_remove_edges_roundtrip(self):
        g = make_family("cn", 5)
        h = g.remove_edges([(0, 1)])
        assert h.m == 4
        assert Graph.from_edges(5, h.edges() + [(0, 1)]) == g


class TestGraph6:
    def test_k2_emits_reference_value(self):
        # Hand-rolled reference: n=2 gives 'A'; the single upper-triangle bit
        # is 1, padded to 100000 = 32, and 32 + 63 = 95 = '_'.
        assert emit_graph6(make_family("kn", 2)) == "A_"

    def test_singleton_emits_at_sign(self):
        assert emit_graph6(Graph(1, [0])) == "@"

    def test_example_string_roundtrips(self):
        g = parse_graph6("D?{")
        assert g.n == 5
        assert emit_graph6(g) == "D?{"

    def test_header_tolerated_never_emitted(self):
        plain = parse_graph6("D?{")
        with_header = parse_graph6(">>graph6<<D?{")
        assert plain == with_header
        assert not emit_graph6(plain).startswith(">>")

    def test_empty_string_is_error(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("")

    def test_error_carries_byte_offset(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph6("D?{ ")
        assert err.value.offset is not None

    def test_trailing_garbage_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("A_A_")

    def test_nonzero_padding_rejected(self):
        # K_2 body with a stray low bit set: '_' is 0b100000, '`' is 0b100001.
        with pytest.raises(GraphFormatError):
            parse_graph6("A`")

    def test_oversized_graph_rejected_on_emit(self):
        g = Graph(63, [0] * 63)
        with pytest.raises(ValueError):
            emit_graph6(g)

    @given(st.integers(min_value=1, max_value=12), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_random_graphs(self, n, rng):
        g = random_graph(rng, n)
        assert parse_graph6(emit_graph6(g)) == g

    @given(st.integers(min_value=1, max_value=20), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_networkx(self, n, rng):
        g = random_graph(rng, n)
        ours = emit_graph6(g)
        reference = nx.Graph()
        reference.add_nodes_from(range(g.n))
        reference.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(reference, header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert back.number_of_nodes() == g.n
        assert {tuple(sorted(e)) for e in back.edges()} == set(g.edges())

    @pytest.mark.parametrize("n", range(2, 8))
    def test_each_padding_bit_refused_at_its_byte(self, n):
        # Every edge bit set, so only the stray padding bit is wrong; the
        # offset is the byte holding it, counted from the order byte.
        nbits = n * (n - 1) // 2
        nbytes = (nbits + 5) // 6
        for header in ("", ">>graph6<<"):
            for pad in range(nbits, 6 * nbytes):
                bits = "1" * nbits + "0" * (6 * nbytes - nbits)
                bits = bits[:pad] + "1" + bits[pad + 1:]
                body = "".join(chr(int(bits[i:i + 6], 2) + 63) for i in range(0, len(bits), 6))
                with pytest.raises(GraphFormatError) as err:
                    parse_graph6(header + chr(n + 63) + body)
                offset = len(header) + 1 + pad // 6
                assert err.value.offset == offset
                assert str(err.value) == f"nonzero padding bits (byte {offset})"

    @pytest.mark.parametrize("text, offset, code", [
        (" ?{", 0, 32),
        ("D {", 1, 32),
        ("D?\x7f", 2, 127),
        ("D?\u00e9", 2, 233),
        (">>graph6<<D? ", 12, 32),
        (">>graph6<<!?{", 10, 33),
    ])
    def test_byte_outside_alphabet_refused_at_its_position(self, text, offset, code):
        with pytest.raises(GraphFormatError) as err:
            parse_graph6(text)
        assert err.value.offset == offset
        assert str(err.value) == f"byte {code} outside graph6 alphabet (byte {offset})"

    @pytest.mark.parametrize("text, offset, message", [
        ("", 0, "empty graph6 string"),
        (">>graph6<<", 10, "empty graph6 string"),
        ("~?", 0, "long-form graph6 (n > 62) is not supported"),
        ("D?", 2, "truncated graph6 body: need 2 data bytes, got 1"),
        ("A", 1, "truncated graph6 body: need 1 data bytes, got 0"),
        (">>graph6<<F??", 13, "truncated graph6 body: need 4 data bytes, got 2"),
        ("D?{?", 3, "trailing garbage after graph6 body"),
        ("A_A_", 2, "trailing garbage after graph6 body"),
        ("@?", 1, "trailing garbage after graph6 body"),
        (">>graph6<<D?{??", 13, "trailing garbage after graph6 body"),
    ])
    def test_refusal_message_and_offset(self, text, offset, message):
        with pytest.raises(GraphFormatError) as err:
            parse_graph6(text)
        assert err.value.offset == offset
        assert str(err.value) == f"{message} (byte {offset})"

    @pytest.mark.parametrize("name, column", [
        ("enumerate_6.g6", False),
        ("verify_corpus7.csv", True),
        ("verify_sparse_pool.csv", True),
    ])
    def test_parse_agrees_with_networkx_on_goldens(self, name, column):
        lines = (DATA / name).read_text().splitlines()
        if column:
            lines = [line.split(",", 1)[0] for line in lines[1:]]
        assert len(lines) > 100
        for line in lines:
            g = parse_graph6(line)
            reference = nx.from_graph6_bytes(line.encode())
            assert g.n == reference.number_of_nodes(), line
            assert set(g.edges()) == {tuple(sorted(e)) for e in reference.edges()}, line

    def test_large_boundary_n62(self):
        g = Graph.from_edges(62, [(0, 61)])
        assert parse_graph6(emit_graph6(g)) == g

    def test_roundtrip_thousand_random_graphs(self):
        rng = random.Random(62)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(1, 62), p=rng.random())
            assert parse_graph6(emit_graph6(g)) == g


class TestFamilies:
    def test_k33_shape(self):
        g = make_family("kmn", 3, 3)
        assert (g.n, g.m) == (6, 9)
        assert all(g.degree(v) == 3 for v in range(6))
        assert girth(g) == 4  # bipartite, no triangles

    def test_c4(self):
        g = make_family("cn", 4)
        assert girth(g) == 4
        assert all(g.degree(v) == 2 for v in range(4))

    def test_petersen_matches_kneser_adjacency(self):
        g = make_family("petersen")
        pairs = list(combinations(range(5), 2))
        expected = {
            (i, j)
            for i, j in combinations(range(10), 2)
            if not set(pairs[i]) & set(pairs[j])
        }
        assert set(g.edges()) == expected
        assert (g.n, g.m) == (10, 15)
        assert all(g.degree(v) == 3 for v in range(10))
        assert girth(g) == 5

    def test_hypercube(self):
        g = make_family("qd", 3)
        assert (g.n, g.m) == (8, 12)
        assert girth(g) == 4

    def test_wheel(self):
        g = make_family("wn", 5)
        assert (g.n, g.m) == (6, 10)
        assert g.degree(5) == 5

    def test_bad_family(self):
        with pytest.raises(ValueError):
            make_family("moebius", 5)
        with pytest.raises(ValueError):
            make_family("kn", 0)
        with pytest.raises(ValueError):
            make_family("cn", 2)


class TestEnumeration:
    def test_counts_up_to_three(self):
        graphs = list(enumerate_connected_graphs(3))
        assert len(graphs) == 4  # K1, K2, P3, K3

    def test_counts_up_to_four(self):
        graphs = list(enumerate_connected_graphs(4))
        assert len(graphs) == 10
        assert sum(1 for g in graphs if g.n == 4) == 6

    def test_max_n_one(self):
        graphs = list(enumerate_connected_graphs(1))
        assert len(graphs) == 1
        assert graphs[0].n == 1

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            list(enumerate_connected_graphs(8))

    def test_order_seven_matches_the_networkx_atlas(self):
        # One to one up to isomorphism, by networkx's own isomorphism test
        # within buckets of graphs whose vertices have the same degrees and
        # neighbour degrees.
        def key(h):
            return tuple(sorted(
                (h.degree(v), tuple(sorted(h.degree(u) for u in h.neighbors(v))))
                for v in h
            ))

        buckets = {}
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() == 7 and nx.is_connected(h):
                buckets.setdefault(key(h), []).append(h)
        ours = [g for g in enumerate_connected_graphs(7) if g.n == 7]
        assert len(ours) == sum(map(len, buckets.values())) == 853
        matched = set()
        for g in ours:
            gx = nx.Graph(g.edges())
            hits = [id(h) for h in buckets[key(gx)] if nx.is_isomorphic(gx, h)]
            assert len(hits) == 1, emit_graph6(g)
            matched.add(hits[0])
        assert len(matched) == 853

    def test_matches_independent_dedup_at_small_n(self):
        # Independent oracle: enumerate labelled connected graphs and dedupe
        # with the permutation-search isomorphism test.
        for n in (2, 3, 4):
            reps = []
            for code in range(1 << (n * (n - 1) // 2)):
                edges = [
                    e for k, e in enumerate(
                        [(i, j) for j in range(1, n) for i in range(j)]
                    )
                    if code >> k & 1
                ]
                g = Graph.from_edges(n, edges)
                if not g.is_connected():
                    continue
                if not any(are_isomorphic(g, r) for r in reps):
                    reps.append(g)
            ours = [g for g in enumerate_connected_graphs(n) if g.n == n]
            assert len(ours) == len(reps)

    def test_no_two_isomorphic(self):
        graphs = list(enumerate_connected_graphs(5))
        by_key = {}
        for g in graphs:
            key = (g.n, g.m, tuple(sorted(g.degree(v) for v in range(g.n))))
            by_key.setdefault(key, []).append(g)
        for group in by_key.values():
            for a, b in combinations(group, 2):
                assert not are_isomorphic(a, b)

    def test_deterministic_order(self):
        first = [emit_graph6(g) for g in enumerate_connected_graphs(4)]
        second = [emit_graph6(g) for g in enumerate_connected_graphs(4)]
        assert first == second


class TestCanonicalCode:
    def test_every_labelled_graph_up_to_five_vertices(self):
        for n in range(1, 6):
            pairs = [(i, j) for j in range(1, n) for i in range(j)]
            for code in range(1 << len(pairs)):
                g = Graph.from_edges(n, [p for k, p in enumerate(pairs) if code >> k & 1])
                assert canonical_code(g) == reference_canonical_code(g), (n, code)

    def test_corpus6_under_seeded_relabellings(self):
        rng = random.Random(15)
        for g in enumerate_connected_graphs(6):
            want = reference_canonical_code(g)
            for _ in range(4):
                h = _relabelled(g, _shuffled(rng, g.n))
                assert canonical_code(h) == want, emit_graph6(g)

    @pytest.mark.parametrize("name, g", [
        ("K6", make_family("kn", 6)),
        ("K3,3", make_family("kmn", 3, 3)),
        ("K2,2,2", Graph.from_edges(6, [(u, v) for u, v in combinations(range(6), 2)
                                        if u // 2 != v // 2])),
        ("C6", make_family("cn", 6)),
    ])
    def test_symmetric_graphs(self, name, g):
        # Every vertex of K6, K3,3 and K2,2,2 has a twin in its cell, so one
        # branch stands for many; C6 has no twins, and its 12 automorphisms
        # leave ties that only the prefix cut resolves.
        want = reference_canonical_code(g)
        rng = random.Random(name)
        for _ in range(6):
            assert canonical_code(_relabelled(g, _shuffled(rng, g.n))) == want

    @given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_relabelling_invariance(self, n, rng):
        g = random_graph(rng, n, rng.random())
        code = canonical_code(g)
        assert canonical_code(_relabelled(g, _shuffled(rng, n))) == code
        own = sum(1 << (j * (j - 1) // 2 + i) for i, j in g.edges())
        assert code <= own
        rep = graph_from_code(n, code)
        assert rep.m == g.m and canonical_code(rep) == code


class TestInvariants:
    def test_girth_examples(self):
        assert girth(make_family("cn", 5)) == 5
        assert girth(make_family("petersen")) == 5
        assert girth(make_family("pn", 7)) == math.inf

    @given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_girth_matches_oracle(self, n, rng):
        g = random_graph(rng, n)
        assert girth(g) == oracle_girth(g)

    def test_girth_matches_oracle_through_order_seven(self):
        for g in enumerate_connected_graphs(7):
            assert girth(g) == oracle_girth(g), emit_graph6(g)

    def test_girth_three_iff_common_neighbor(self):
        rng = random.Random(7)
        for _ in range(100):
            g = random_graph(rng, 7)
            has_triangle_edge = any(
                common_neighbors(g, u, v) > 0 for u, v in g.edges()
            )
            assert (girth(g) == 3) == has_triangle_edge

    def test_degree_stats_examples(self):
        s = degree_stats(make_family("kmn", 4, 4))
        assert (s.max_degree, s.min_degree) == (4, 4)
        assert compute_b_prime(make_family("kmn", 4, 4)).ad_term == 2 * 4 - 1
        star = make_family("kmn", 1, 5)
        s = degree_stats(star)
        assert (s.max_degree, s.min_degree) == (5, 1)
        # 2m/n = 10/6 floors to 1.
        assert compute_b_prime(star).ad_term == 1

    def test_average_degree_floor_for_balanced_bipartite(self):
        for n in (2, 3, 4, 5):
            assert compute_b_prime(make_family("kmn", n, n)).ad_term == 2 * n - 1

    @given(st.integers(min_value=1, max_value=9), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_degree_sum_and_sandwich(self, n, rng):
        g = random_graph(rng, n)
        s = degree_stats(g)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m
        assert Fraction(s.min_degree) <= Fraction(2 * g.m, g.n) <= Fraction(s.max_degree)
        if g.m and g.is_connected():
            ad = Fraction(2 * g.m, g.n)
            assert compute_b_prime(g).ad_term == 2 * (ad.numerator // ad.denominator) - 1

    def test_common_neighbors_examples(self):
        assert common_neighbors(make_family("kn", 4), 0, 1) == 2
        assert common_neighbors(make_family("cn", 4), 0, 1) == 0
        assert common_neighbors(make_family("kmn", 3, 3), 0, 3) == 0

    def test_common_neighbors_requires_edge(self):
        with pytest.raises(ValueError):
            common_neighbors(make_family("cn", 4), 0, 2)


class TestComponents:
    def test_triangle_plus_edge(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        parts = [sub for sub, _ in components_with_vertices(g)]
        assert [p.n for p in parts] == [3, 2]
        assert parts[0].m == 3 and parts[1].m == 1

    def test_connected_graph_is_single_component(self):
        g = make_family("petersen")
        [(sub, verts)] = components_with_vertices(g)
        assert sub is g and verts == tuple(range(10))

    def test_empty_graph_splits_into_singletons(self):
        g = Graph(3, [0, 0, 0])
        assert [sub.n for sub, _ in components_with_vertices(g)] == [1, 1, 1]

    def test_reindexing_keeps_original_order(self):
        g = Graph.from_edges(6, [(1, 3), (3, 5), (0, 4)])
        parts = components_with_vertices(g)
        assert parts[0][1] == (0, 4)
        assert parts[1][1] == (1, 3, 5)
        assert parts[2][1] == (2,)
