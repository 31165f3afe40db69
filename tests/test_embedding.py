import dataclasses
import json
import random
import tracemalloc
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondlab import embedding
from bondlab.embedding import (
    RotationSystem,
    SideResult,
    max_euler_characteristic,
    ringel_chi,
    trace_faces,
)
from bondlab.graphs import Graph, enumerate_connected_graphs, make_family, parse_graph6

import conftest
from conftest import (
    SchemeSpace,
    complete_tripartite,
    curvature,
    edge_face_lengths,
    identity_rotation,
    random_connected_graph,
    random_rotation_system,
    reference_core,
    reference_is_planar,
    reference_sweep,
    reference_trace_faces,
    relabelled,
    rotation_system_from_json,
    subdivided_with_pendants,
)

DATA = Path(__file__).resolve().parent / "data"
PERFBENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def all_rotation_systems(g: Graph):
    per_vertex = []
    for v in range(g.n):
        nbrs = sorted(g.neighbors(v))
        if len(nbrs) <= 2:
            per_vertex.append([tuple(nbrs)])
        else:
            per_vertex.append([(nbrs[0], *p) for p in permutations(nbrs[1:])])
    for combo in product(*per_vertex):
        yield RotationSystem(tuple(combo))


class TestTraceFaces:
    def test_path_has_one_face_of_double_length(self):
        for n in (2, 3, 5, 8):
            g = make_family("pn", n)
            summary = trace_faces(g, identity_rotation(g))
            assert summary.face_lengths == (2 * (n - 1),)
            assert all(
                pair == (2 * (n - 1), 2 * (n - 1))
                for pair in edge_face_lengths(g, summary).values()
            )
            assert summary.chi == 2

    def test_triangle_on_the_sphere(self):
        g = make_family("cn", 3)
        summary = trace_faces(g, identity_rotation(g))
        assert sorted(summary.face_lengths) == [3, 3]
        assert summary.chi == 2
        assert summary.orientable

    def test_k4_brute_force_maximum_is_planar(self):
        g = make_family("kn", 4)
        best = max(
            (trace_faces(g, rs) for rs in all_rotation_systems(g)),
            key=lambda s: s.chi,
        )
        assert best.chi == 2
        assert sorted(best.face_lengths) == [3, 3, 3, 3]

    def test_one_negative_edge_on_triangle_gives_projective_plane(self):
        g = make_family("cn", 3)
        rs = RotationSystem(identity_rotation(g).rotations, frozenset({(0, 2)}))
        summary = trace_faces(g, rs)
        assert summary.face_lengths == (6,)
        assert summary.chi == 1
        assert not summary.orientable

    @pytest.mark.parametrize("graph, rotations, negative, message", [
        (("cn", 4), ((1, 3), (0, 2), (1, 3), (0, 0)), (), "rotation at vertex 3"),
        (("cn", 3), ((1, 2), (0, 2, 0), (0, 1)), (), "rotation at vertex 1"),
        (("cn", 3), ((1, -1), (0, 2), (0, 1)), (), "rotation at vertex 0"),
        (("cn", 3), ((1, 2), (0, 3), (0, 1)), (), "rotation at vertex 1"),
        (("cn", 4), ((1, 3), (0, 2), (1, 3), (0, 2)), ((-1, 2),), "negative sign"),
        (("pn", 3), ((1,), (0, 2), (1,)), ((0, 2),), "negative sign"),
        (("cn", 3), ((1, 2), (0, 2), (0, 1)), ((2, 0),), "negative sign"),
    ], ids=["bad rotation", "repeated neighbour", "entry -1", "entry n", "negative index", "non-edge",
            "unordered pair"])
    def test_validate_rejects(self, graph, rotations, negative, message):
        # -1 would index the last vertex, whose mask holds a neighbour in
        # each case; (2, 0) is an edge of C3, but sign() looks up (0, 2).
        g = make_family(*graph)
        rs = RotationSystem(rotations, frozenset(negative))
        with pytest.raises(ValueError, match=message):
            rs.validate(g)
        with pytest.raises(ValueError, match=message):
            trace_faces(g, rs)

    def test_rejects_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            trace_faces(g, identity_rotation(g))

    def test_dart_conservation_orientable(self):
        rng = random.Random(5)
        for _ in range(200):
            g = random_connected_graph(rng, rng.randint(2, 7))
            summary = trace_faces(g, random_rotation_system(rng, g))
            darts = [d for walk in summary.face_walks for d in walk]
            assert len(darts) == 2 * g.m
            assert len(set(darts)) == 2 * g.m  # each dart exactly once

    def test_edge_slots_conserved_signed(self):
        rng = random.Random(6)
        for _ in range(200):
            g = random_connected_graph(rng, rng.randint(2, 7))
            summary = trace_faces(g, random_rotation_system(rng, g, signed=True))
            assert sum(summary.face_lengths) == 2 * g.m
            counts = {e: 0 for e in g.edges()}
            for walk in summary.face_walks:
                for u, v in walk:
                    counts[(u, v) if u < v else (v, u)] += 1
            assert all(c == 2 for c in counts.values())

    def test_euler_identity_and_orientable_parity(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_connected_graph(rng, rng.randint(2, 7))
            signed = rng.random() < 0.5
            summary = trace_faces(g, random_rotation_system(rng, g, signed=signed))
            assert summary.chi == g.n - g.m + len(summary.face_walks)
            if summary.orientable:
                assert summary.chi % 2 == 0

    def test_json_roundtrip(self):
        g = make_family("petersen")
        rng = random.Random(1)
        rs = random_rotation_system(rng, g, signed=True)
        again = rotation_system_from_json(rs.to_json_dict())
        assert again == rs


def _assert_trace_matches_reference(g, rs):
    got, want = trace_faces(g, rs), reference_trace_faces(g, rs)
    assert got.face_walks == want.face_walks, (g.edges(), rs)
    assert (got.face_lengths, got.chi, got.orientable) == (
        want.face_lengths, want.chi, want.orientable), (g.edges(), rs)
    assert edge_face_lengths(g, got) == want.edge_face_lengths, (g.edges(), rs)


class TestTraceFacesAgainstReference:
    """``trace_faces`` walks the faces of the int-state reference tracer, in its order."""

    def test_every_signed_system_up_to_four_vertices(self):
        checked = 0
        for g in enumerate_connected_graphs(4):
            if g.m == 0:
                continue
            edges = g.edges()
            for rs in all_rotation_systems(g):
                for mask in range(1 << g.m):
                    negative = frozenset(e for i, e in enumerate(edges) if mask >> i & 1)
                    _assert_trace_matches_reference(g, RotationSystem(rs.rotations, negative))
                    checked += 1
        assert checked == 1238

    def test_seeded_random_systems(self):
        rng = random.Random(30)
        signed_count = 0
        for _ in range(2000):
            g = random_connected_graph(rng, rng.randint(2, 8))
            signed = rng.random() < 0.5
            signed_count += signed
            _assert_trace_matches_reference(g, random_rotation_system(rng, g, signed=signed))
        assert 900 < signed_count < 1100

    def test_every_chi_golden_witness(self):
        rows = json.loads((DATA / "chi_golden.json").read_text())
        for row in rows:
            g = parse_graph6(row["graph6"])
            _assert_trace_matches_reference(g, rotation_system_from_json(row["output"]["witness"]))
        assert len(rows) == 156


class TestCurvature:
    def test_triangle_weights_vanish(self):
        g = make_family("cn", 3)
        summary = trace_faces(g, identity_rotation(g))
        ledger = curvature(g, summary)
        assert all(abs(w) < 1e-12 for w in ledger.weights.values())
        assert abs(ledger.total) < 1e-12

    def test_single_edge(self):
        g = make_family("pn", 2)
        summary = trace_faces(g, identity_rotation(g))
        ledger = curvature(g, summary)
        assert ledger.weights[(0, 1)] == pytest.approx(0, abs=1e-12)

    def test_total_vanishes_for_random_embeddings(self):
        rng = random.Random(8)
        for _ in range(500):
            g = random_connected_graph(rng, rng.randint(2, 8))
            rs = random_rotation_system(rng, g, signed=rng.random() < 0.5)
            summary = trace_faces(g, rs)
            assert abs(curvature(g, summary).total) < 1e-12


class TestCore:
    @staticmethod
    def _nx(g):
        import networkx as nx

        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    def _assert_core(self, g):
        import networkx as nx

        core, labels, ops = embedding._core(g)
        assert nx.is_isomorphic(self._nx(core), self._nx(reference_core(g))), g.edges()
        assert len(labels) == core.n == g.n - len(ops)
        for v in range(core.n):
            nbrs = list(core.neighbors(v))
            assert core.n == 1 or len(nbrs) >= 2
            assert len(nbrs) != 2 or core.adjacency[nbrs[0]] >> nbrs[1] & 1, (g.edges(), v)

    def test_isomorphic_to_the_pass_by_pass_reduction(self, corpus6):
        for g in corpus6:
            self._assert_core(g)

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=6),
           st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_sparse_graphs(self, n, cycles, rng):
        cycles = min(cycles, n * (n - 1) // 2 - (n - 1))
        self._assert_core(_sparse_graph(rng, n, cycles))


class TestRingelOracle:
    def test_values(self):
        assert ringel_chi("kmn", 4, 4) == 0
        assert ringel_chi("kn", 5) == 1
        assert ringel_chi("kn", 6) == 1
        assert ringel_chi("kmn", 3, 3) == 1
        assert ringel_chi("kn", 4) == 2
        assert ringel_chi("kn", 7) == 0  # the exceptional non-orientable genus 3

    def test_sides(self):
        assert ringel_chi("kn", 6, side="orientable") == 0
        assert ringel_chi("kn", 6, side="nonorientable") == 1
        assert ringel_chi("kmn", 4, 4, side="orientable") == 0
        assert ringel_chi("kn", 7, side="nonorientable") == -1

    def test_range_checks(self):
        with pytest.raises(ValueError):
            ringel_chi("kn", 2)
        with pytest.raises(ValueError):
            ringel_chi("kmn", 1, 5)
        with pytest.raises(ValueError):
            ringel_chi("cn", 5)


class TestMaxChi:
    def test_small_planar_families(self):
        for g in (make_family("kn", 4), make_family("cn", 6), make_family("qd", 3)):
            result = max_euler_characteristic(g)
            assert result.chi == 2 and result.certified
            assert result.nonorientable.chi == 1 and result.nonorientable.certified

    def test_trees_are_spherical(self):
        result = max_euler_characteristic(make_family("pn", 6))
        assert result.chi == 2 and result.certified
        assert trace_faces(make_family("pn", 6), result.witness).chi == 2

    TREES = pytest.mark.parametrize(
        "g", [make_family("kn", 2), make_family("kmn", 1, 5), make_family("pn", 6),
              make_family("kn", 1)],
        ids=["K2", "K1,5", "P6", "K1"])

    @TREES
    def test_tree_cores_are_certified_without_a_step(self, g):
        # A tree's core is a point, certified at 2 as it stands; the planar
        # identity then settles the non-orientable side at 1.
        result = max_euler_characteristic(g, budget=0)
        assert result.chi == 2 and result.certified and result.steps_used == 0
        assert result.orientable.chi == 2 and result.orientable.certified
        assert result.nonorientable.chi == 1 and result.nonorientable.certified
        if g.m > 0:
            traced = trace_faces(g, result.witness)
            assert traced.chi == 2 and traced.orientable

    @TREES
    def test_tree_cores_orientable_only(self, g):
        result = max_euler_characteristic(g, budget=0, orientable_only=True)
        assert result.chi == 2 and result.certified and result.steps_used == 0
        assert result.nonorientable is None

    def test_k5(self):
        result = max_euler_characteristic(make_family("kn", 5))
        assert result.chi == 1 and result.certified
        assert result.orientable.chi == 0 and result.orientable.certified

    def test_k33(self):
        result = max_euler_characteristic(make_family("kmn", 3, 3))
        assert result.chi == 1 and result.certified
        assert result.orientable.chi == 0

    def test_k44_orientable(self):
        result = max_euler_characteristic(make_family("kmn", 4, 4), orientable_only=True)
        assert result.orientable.chi == 0 and result.orientable.certified

    def test_petersen(self):
        result = max_euler_characteristic(make_family("petersen"))
        assert result.chi == 1 and result.certified
        assert result.orientable.chi == 0

    @pytest.mark.parametrize("family, negatives", [
        (("kn", 5), 3), (("kmn", 3, 3), 3), (("kn", 6), 5),
    ], ids=["K5", "K3,3", "K6"])
    def test_signed_witnesses_survive_the_lift(self, family, negatives):
        # The core is the nonplanar graph itself, so both witnesses are
        # lifted through every pendant and every suppressed vertex, and each
        # negative core edge x-y must come back as (x, v) at its
        # subdivision vertex v.
        base = make_family(*family)
        g = subdivided_with_pendants(base)
        result = max_euler_characteristic(g)
        orientable = trace_faces(g, result.orientable.witness)
        assert orientable.chi == 0 and orientable.orientable
        signed = result.nonorientable.witness
        traced = trace_faces(g, signed)
        assert traced.chi == 1 and not traced.orientable
        assert len(signed.negative_edges) == negatives
        assert all(base.n <= v < base.n + base.m for _, v in signed.negative_edges)

    def test_witness_traces_to_reported_chi(self):
        rng = random.Random(9)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 6))
            result = max_euler_characteristic(g)
            if result.witness is not None:
                assert trace_faces(g, result.witness).chi == result.chi

    def test_oracle_agreement_where_certified(self):
        cases = [
            ("kn", (4,)),
            ("kn", (5,)),
            ("kmn", (3, 3)),
            ("kmn", (2, 4)),
        ]
        for family, params in cases:
            g = make_family(family, *params)
            result = max_euler_characteristic(g)
            assert result.certified
            assert result.chi == ringel_chi(family, *params)

    def test_adding_edge_never_raises_chi(self):
        pairs = [
            (make_family("cn", 4), (0, 2)),
            (make_family("kmn", 2, 3), (0, 1)),
            (make_family("pn", 4), (0, 3)),
        ]
        for g, edge in pairs:
            before = max_euler_characteristic(g)
            after = max_euler_characteristic(Graph.from_edges(g.n, g.edges() + [edge]))
            assert before.certified and after.certified
            assert after.chi <= before.chi

    def test_quotient_matches_unquotiented_brute_force(self):
        # Every rotation system and every sign subset is traced, with no
        # reflection quotient, no pivot fixing and no reductions.  The
        # quotiented oracle sweep agrees with it, and so does the search.
        # K4 is the one case whose pivot rotation is fixed.
        from itertools import combinations

        cases = [
            Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),  # paw
            Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),  # bowtie
            make_family("kmn", 2, 3),
            Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
            make_family("kn", 4),
        ]
        for g in cases:
            best_or = -(10**9)
            best_any = -(10**9)
            for rs in all_rotation_systems(g):
                best_or = max(best_or, trace_faces(g, rs).chi)
                for r in range(1, g.m + 1):
                    for neg in combinations(g.edges(), r):
                        signed = RotationSystem(rs.rotations, frozenset(neg))
                        best_any = max(best_any, trace_faces(g, signed).chi)
            best_any = max(best_any, best_or)
            swept = [reference_sweep(space, space.total)[0]
                     for space in (SchemeSpace(g, False), SchemeSpace(g, True))]
            assert swept[0] == best_or and max(swept) == best_any, g.edges()
            result = max_euler_characteristic(g)
            assert result.orientable.chi == best_or, g.edges()
            assert result.chi == best_any and result.certified, g.edges()

    def test_budget_permissive_flags_incomplete(self):
        # K3,3 is decided in 18 orientable and 21 signed nodes.
        g = make_family("kmn", 3, 3)
        result = max_euler_characteristic(g, budget=38)
        assert not result.certified
        assert result.steps_used == 38

    @pytest.mark.parametrize("budget, orientable_chi", [(50, None), (100, 0)])
    def test_a_stopped_side_returns_uncertified(self, budget, orientable_chi):
        # K6 is decided in 67 orientable and 55 signed nodes, so a budget
        # of 50 stops its orientable side and one of 100 its signed side.
        result = max_euler_characteristic(make_family("kn", 6), budget=budget)
        assert not result.certified
        assert result.steps_used == budget
        assert result.orientable.chi == orientable_chi
        assert result.orientable.certified == (orientable_chi is not None)
        assert result.nonorientable.chi is None and not result.nonorientable.certified

    @pytest.mark.parametrize("family", [("kn", 5), ("petersen",)])
    def test_default_budget_certifies_projective_planar_graphs(self, family):
        result = max_euler_characteristic(make_family(*family))
        assert result.chi == 1 and result.certified

    @given(
        st.one_of(
            # Nonplanar graphs, so that the signed side is searched too.
            st.sampled_from([make_family("kn", 5), make_family("kmn", 3, 3),
                             make_family("petersen"), parse_graph6("D~{"), parse_graph6("Evz_")]),
            st.builds(random_connected_graph, st.randoms(use_true_random=False),
                      st.integers(min_value=2, max_value=7), st.just(0.5)),
        ),
        st.integers(min_value=-100, max_value=2 * 10**5),
    )
    @settings(max_examples=60, deadline=None)
    def test_steps_used_counts_states_of_searched_schemes(self, g, budget):
        result = max_euler_characteristic(g, budget=budget)
        orientable, nonor = result.orientable, result.nonorientable
        signed = nonor.nodes if nonor else 0
        assert result.steps_used == orientable.nodes + signed <= max(0, budget)
        # A side the budget stopped could not pay for one more node.
        if not orientable.certified or (nonor is not None and not nonor.certified):
            assert budget - result.steps_used < 1

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            max_euler_characteristic(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_searched_is_a_class_constant(self):
        # Read only by the benchmark's counters; it takes no part in
        # construction, comparison or repr.
        side = max_euler_characteristic(make_family("kn", 5)).orientable
        assert [f.name for f in dataclasses.fields(SideResult)] == [
            "chi", "certified", "nodes", "build"]
        assert SideResult.searched == side.searched == 0
        assert side == SideResult(side.chi, side.certified, side.nodes)
        assert "searched" not in repr(side)

    def test_determinism(self):
        g = make_family("kmn", 3, 3)
        a = max_euler_characteristic(g)
        b = max_euler_characteristic(g)
        assert a.chi == b.chi and a.witness == b.witness

    @pytest.mark.parametrize("family, budget", [
        (("kn", 6), 100),  # orientable side decided in 67 nodes, signed side stopped
        (("kmn", 5, 5), 1500),  # orientable side stopped short of its 1,989 nodes
        (("kmn", 3, 3), 30),  # 18 orientable nodes, then the signed side stopped
    ])
    def test_budget_is_a_hard_cap(self, family, budget):
        g = make_family(*family)
        full = max_euler_characteristic(g)
        assert full.certified and full.steps_used > budget
        result = max_euler_characteristic(g, budget=budget)
        assert not result.certified
        assert result.steps_used == budget

    def test_corpus6_and_c5_are_certified(self, corpus6):
        for g in corpus6 + [make_family("cn", 5)]:
            result = max_euler_characteristic(g)
            assert result.certified, g.edges()

    def test_a_larger_budget_changes_no_decided_side(self, corpus6):
        # A side decided within a budget never sees what is left of it, so
        # a larger budget repeats the side exactly, node count included.
        stopped = 0
        for g in corpus6 + [make_family("kn", 6), make_family("kmn", 5, 5)]:
            for small, large in ((100, 1000), (1000, 10**5)):
                a = max_euler_characteristic(g, budget=small)
                b = max_euler_characteristic(g, budget=large)
                stopped += not a.certified
                # Sides compare by value; their witnesses, built on request,
                # are compared on their own.
                for x, y in ((a.orientable, b.orientable), (a.nonorientable, b.nonorientable)):
                    if x is not None and x.certified:
                        assert x == y and x.witness == y.witness, (g.edges(), small)
                if a.certified:
                    assert a == dataclasses.replace(b, budget=small), (g.edges(), small)
                    assert a.witness == b.witness, (g.edges(), small)
        assert stopped == 12  # 11 searches at 100 steps, K5,5 at 1000


@pytest.fixture(scope="module")
def corpus6():
    return [g for g in enumerate_connected_graphs(6) if g.m > 0]


def _distinct_cores(graphs):
    cores = {}
    for g in graphs:
        core = embedding._core(g)[0]
        if core.m:
            cores.setdefault((core.n, tuple(core.edges())), core)
    return list(cores.values())


_SWEPT: dict = {}


def _swept_chi(core, signed):
    """The oracle's best chi over the whole quotient of one side of ``core``.

    None when the quotient holds more than 3e6 states' worth of schemes: a
    full sweep of corpus6's largest cores takes tens of seconds.  Values
    are cached by labelled core, so tests on the same cores sweep once.
    """
    key = (core.n, tuple(core.edges()), signed)
    if key not in _SWEPT:
        space = SchemeSpace(core, signed)
        fits = space.total * space.states <= 3 * 10**6
        _SWEPT[key] = reference_sweep(space, space.total)[0] if fits else None
    return _SWEPT[key]


def _stress_graphs():
    return [make_family("kmn", 5, 5), make_family("qd", 4), complete_tripartite(3)]


def _assert_window_matches_trace_faces(core, signed, lo, hi, monkeypatch=None, blocks=()):
    """The oracle sweep of schemes ``lo..hi-1`` against :func:`trace_faces` on each.

    The sweep runs once in its own blocks and once more in each size of
    ``blocks``, which ``monkeypatch`` sets.
    """
    space = SchemeSpace(core, signed)
    chis = [trace_faces(core, space.scheme(i)).chi for i in range(lo, hi)]
    best = max(chis)
    assert reference_sweep(space, hi, lo) == (best, lo + chis.index(best)), (core.edges(), lo)
    for block in blocks:
        monkeypatch.setattr(conftest, "_VECTOR_BLOCK", block)
        assert reference_sweep(space, hi, lo) == (best, lo + chis.index(best)), (
            core.edges(), lo, block)
        monkeypatch.undo()
    return space, chis


class TestReferenceSweeps:
    """The oracle sweep the branch-and-bound is held to.

    It traces every scheme of a side's quotient in full.  It must agree
    scheme by scheme with :func:`trace_faces` in any block size, and over
    whole quotients with known genus and crosscap numbers here and with
    the unquotiented brute force of ``TestMaxChi``.
    """

    def test_corpus6_cores(self, corpus6, monkeypatch):
        # Each side cut where 3e3 states' worth of schemes ends: 47 of the
        # 126 sides are swept whole, the rest stop early.  Blocks of 7
        # schemes move the first best into later blocks and leave a short
        # last one.
        for core in _distinct_cores(corpus6):
            for signed in (False, True):
                space = SchemeSpace(core, signed)
                _assert_window_matches_trace_faces(
                    core, signed, 0, min(space.total, 3000 // space.states), monkeypatch, (7,))

    @pytest.mark.parametrize("g", _stress_graphs(), ids=["K5,5", "Q4", "K3,3,3"])
    def test_stress_graphs(self, g, monkeypatch):
        # Five blocks from scheme 0, the last one short.  The first best
        # lies past the first block on K3,3,3's sides and Q4's signed one.
        core = embedding._core(g)[0]
        for signed in (False, True):
            _assert_window_matches_trace_faces(core, signed, 0, 300, monkeypatch, (64,))

    def test_whole_quotients_reach_genus_and_crosscap_number(self):
        # K3,3 has genus 1 and crosscap number 1; K4 and Q3 are planar, and
        # every planar graph with a cycle embeds in the projective plane.
        for g, chis in ((make_family("kmn", 3, 3), (0, 1)),
                        (make_family("kn", 4), (2, 1)),
                        (make_family("qd", 3), (2, 1))):
            core = embedding._core(g)[0]
            for signed, chi in zip((False, True), chis):
                space = SchemeSpace(core, signed)
                best, index = reference_sweep(space, space.total)
                assert best == chi, (g.edges(), signed)
                assert trace_faces(core, space.scheme(index)).chi == chi

    @given(st.integers(min_value=3, max_value=7), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_each_scheme_matches_trace_faces(self, n, signed, rng):
        core = embedding._core(random_connected_graph(rng, n, extra=0.5))[0]
        if core.m == 0:
            return
        total = SchemeSpace(core, signed).total
        lo = rng.randrange(total)
        hi = min(total, lo + rng.randint(1, 200))
        space, chis = _assert_window_matches_trace_faces(core, signed, lo, hi)
        for i in range(lo, min(hi, lo + 20)):
            assert reference_sweep(space, i + 1, i)[0] == chis[i - lo]

    @pytest.mark.parametrize("g", [
        make_family("kmn", 5, 5),
        make_family("qd", 4),
        make_family("kn", 6),
    ], ids=["K5,5", "Q4", "K6"])
    @pytest.mark.parametrize("signed", [False, True])
    def test_each_scheme_matches_trace_faces_deep_in_the_space(self, g, signed):
        core = embedding._core(g)[0]
        lo = min(SchemeSpace(core, signed).total, 1 << 62) * 3 // 7
        _assert_window_matches_trace_faces(core, signed, lo, lo + 300)

    @given(st.integers(min_value=3, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_random_connected_graphs(self, n, rng):
        # The search as a whole against a full sweep of each side, where
        # the quotient holds at most 2e5 states' worth of schemes.  Such a
        # side takes well under 100 nodes; a dense core on eight vertices
        # can take more than 1e6, so the rest are not held to a value.
        g = random_connected_graph(rng, n, extra=0.5)
        result = max_euler_characteristic(g, budget=10**5)
        core = embedding._core(g)[0]
        if core.m == 0:
            return
        spaces = [SchemeSpace(core, signed) for signed in (False, True)]
        orientable, signed = (reference_sweep(space, space.total)[0]
                              if space.total * space.states <= 2 * 10**5 else None
                              for space in spaces)
        if orientable is not None:
            assert result.orientable.chi == orientable, g.edges()
        nonor = result.nonorientable
        if signed is not None:
            if result.orientable.chi == 2 or nonor is None:
                # Planar, or skipped as unable to raise chi.
                assert signed <= result.chi, g.edges()
            else:
                assert nonor.chi == signed, g.edges()

    @pytest.mark.parametrize("graph6", ["E~~w", "E~~o", "E}~o", "E~~_"])
    def test_peak_memory_no_higher_than_full_tracing(self, graph6):
        # The search at a budget against the numpy sweep of the signed side
        # over as many states.
        g = parse_graph6(graph6)
        space = SchemeSpace(embedding._core(g)[0], True)
        budget = 3 * 10**5

        def peak(run):
            run()  # numpy imported and warm
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        search = peak(lambda: max_euler_characteristic(g, budget=budget))
        assert search <= peak(lambda: reference_sweep(space, budget // space.states))


# ---------------------------------------------------------------------------
# The branch-and-bound on either side, and the search as a whole
# ---------------------------------------------------------------------------


def _sparse_graph(rng, n, cycles):
    """A random spanning tree plus ``cycles`` further edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + cycles:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def _assert_witnesses_retrace(g, result):
    sides = [result, result.orientable]
    if result.nonorientable is not None:
        sides.append(result.nonorientable)
    for side in sides:
        if side.witness is not None:
            traced = trace_faces(g, side.witness)
            assert traced.chi == side.chi, (g.edges(), side)
    if result.orientable.witness is not None:
        assert trace_faces(g, result.orientable.witness).orientable
    nonor = result.nonorientable
    if nonor is not None and nonor.witness is not None:
        assert not trace_faces(g, nonor.witness).orientable


class TestBranchAndBoundSearch:
    """The branch-and-bound search as a whole: where it runs and what it costs."""

    def test_corpus6_certifies_at_the_benchmark_budget(self, corpus6):
        for g in corpus6:
            result = max_euler_characteristic(g, budget=3 * 10**7)
            assert result.certified, g.edges()
            assert result.orientable.certified and result.nonorientable.certified
            _assert_witnesses_retrace(g, result)

    @given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_certified_witnesses_retrace(self, n, rng):
        # Derandomized: a fresh dense n = 8 draw can spend the whole budget
        # and take seconds, so every run draws the same graphs.
        g = random_connected_graph(rng, n, extra=0.5)
        _assert_witnesses_retrace(g, max_euler_characteristic(g, budget=10**6))

    def test_agrees_with_the_sweep_alone_where_it_certifies(self, corpus6):
        # The oracle sweeps each side's whole quotient where it is small
        # enough, with no planarity step or branch-and-bound.  A relabelled
        # graph is held to the values of its original.
        rng = random.Random(7)
        named = [make_family("kmn", 4, 4), make_family("petersen")]
        pairs = [(g, g) for g in corpus6 + named]
        pairs += [(relabelled(g, rng), g) for g in corpus6[-40:]]
        compared = 0
        for g, original in pairs:
            result = max_euler_characteristic(g, budget=3 * 10**6)
            assert result.certified and result.steps_used <= 3 * 10**6, g.edges()
            core = embedding._core(original)[0]
            if core.m == 0:
                continue
            orientable, signed = _swept_chi(core, False), _swept_chi(core, True)
            if orientable is not None:
                assert result.orientable.chi == orientable, g.edges()
                compared += 1
            if signed is None:
                continue
            nonor = result.nonorientable
            if result.orientable.chi == 2 or nonor is None:
                # Planar, or skipped as unable to raise chi.
                assert signed <= result.chi, g.edges()
            else:
                assert nonor.chi == signed, g.edges()
            if orientable is not None:
                assert result.chi == max(orientable, signed), g.edges()
            compared += 1
        assert compared == 296  # sides, of 2 * 184 graphs

    def test_results_do_not_depend_on_the_hash_seed(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "from bondlab.embedding import max_euler_characteristic as f\n"
            "from bondlab.graphs import parse_graph6, make_family\n"
            "for g in (parse_graph6('E~~w'), parse_graph6('E~~o'), make_family('kmn', 4, 4)):\n"
            "    print(f(g, budget=3 * 10**7))\n"
        )
        src = str(Path(embedding.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                  capture_output=True, text=True)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1] and outputs[0].count("certified=True") >= 3

    def test_relabelling_keeps_every_side_on_corpus6(self, corpus6):
        # Chi is a graph invariant, so a relabelled graph is certified at
        # the values of its original on each side, whatever the nodes spent.
        rng = random.Random(2024)
        for g in corpus6:
            h = relabelled(g, rng)
            a, b = (max_euler_characteristic(x, budget=3 * 10**7) for x in (g, h))
            assert a.certified and b.certified, g.edges()
            assert (a.chi, a.orientable.chi) == (b.chi, b.orientable.chi), g.edges()
            assert (a.nonorientable is None) == (b.nonorientable is None), g.edges()
            if a.nonorientable is not None:
                assert a.nonorientable.chi == b.nonorientable.chi, g.edges()
            _assert_witnesses_retrace(h, b)

    def test_every_witness_read_retraces_on_the_chi_golden(self):
        # The golden's unnamed rows are corpus6's graphs with an edge, its
        # named rows K5-K7, K5,5, Q4, Petersen and more.  Witnesses are built
        # when first read, so each is re-traced to its side's chi and
        # orientability as it is read, and is the one the golden holds.
        rows = json.loads((DATA / "chi_golden.json").read_text())
        for row in rows:
            g = parse_graph6(row["graph6"])
            result = max_euler_characteristic(g)
            assert result.orientable.witness is not None, row["graph6"]
            _assert_witnesses_retrace(g, result)
            want = rotation_system_from_json(row["output"]["witness"])
            assert result.witness == want, row["graph6"]
        assert len(rows) == 156

    def test_traces_only_its_witnesses(self, corpus6, monkeypatch):
        # No side is swept: trace_faces runs once for each side the
        # branch-and-bound certifies, on the witness it found, and once on
        # the plane witness of a core that the branch-vertex count leaves to
        # the planarity test and that the test embeds.  It never runs for a
        # side the budget stopped.  A counted core's plane witness is traced
        # when it is first read, and never again.
        calls = []
        trace = embedding.trace_faces

        def counted(g, rs):
            calls.append(rs)
            return trace(g, rs)

        monkeypatch.setattr(embedding, "trace_faces", counted)
        rng = random.Random(11)
        graphs = _stress_graphs() + corpus6
        graphs += [_sparse_graph(rng, rng.randint(8, 14), rng.randint(2, 5)) for _ in range(100)]
        searched = planes = lazy = 0
        for g in graphs:
            core = embedding._core(g)[0]
            counted = core.m > 0 and embedding._planar_by_count(core)
            tested = core.m > 0 and not counted
            for budget in (300, 10**6):
                calls.clear()
                result = max_euler_characteristic(g, budget=budget)
                sides = [s for s in (result.orientable, result.nonorientable)
                         if s is not None and s.nodes > 0 and s.certified]
                plane = tested and result.chi == 2 and result.orientable.nodes == 0
                assert len(calls) == len(sides) + plane, (g.edges(), budget)
                for _ in range(2):
                    result.witness
                    assert len(calls) == len(sides) + plane + counted, (g.edges(), budget)
                searched += len(sides)
                planes += plane
                lazy += counted
        assert (searched, planes, lazy) == (66, 34, 394)

    def test_stress_graphs_spend_their_leftover_steps_as_nodes(self):
        # Both sides are searched node by node, and every stress graph is
        # certified well inside the benchmark's budget.  Q4 and K3,3,3 reach
        # their cap 0 orientably, so their signed side, which could not raise
        # chi, is skipped; K5,5 is -4 orientably and -3 signed, decided in
        # 1,989 and 290 nodes (3,155 and 519 without the walk back to the
        # open face's start in the cut).
        for g, chi in zip(_stress_graphs(), (-3, 0, 0)):
            result = max_euler_characteristic(g, budget=10**6)
            orientable, nonor = result.orientable, result.nonorientable
            assert (result.chi, result.certified) == (chi, True)
            assert orientable.certified and orientable.nodes > 0
            signed = 0 if nonor is None else nonor.nodes
            assert result.steps_used == orientable.nodes + signed < 10**5
            if chi == 0:
                assert orientable.chi == 0 and nonor is None
            else:
                assert (orientable.chi, nonor.chi, nonor.certified) == (-4, -3, True)
                assert orientable.nodes <= 2500 and 0 < nonor.nodes <= 400
            _assert_witnesses_retrace(g, result)

    def test_node_counts_on_the_sparse_pool(self):
        # The benchmark's stored pool: 16 nonplanar signed sides, the worst
        # (MHE?QDG?G_o`_??a?) at 147 nodes.  Without the walk back to the
        # open face's start in the cut it took 205.
        pool = json.loads((PERFBENCH_DATA / "sparse_pool.json").read_text())["rows"]
        searched = 0
        for row in pool:
            side = max_euler_characteristic(parse_graph6(row[1])).nonorientable
            assert side is not None and side.certified and side.nodes <= 200, (row[1], side)
            searched += side.nodes > 0
        assert searched == 16

    def test_node_counts_on_relabelled_corpus6(self, corpus6):
        # With vertices numbered by descending degree the worst signed side
        # over the relabellings of seeds 1, 3 and 6 takes 151 nodes, and over
        # seeds 0-39 248 (Ev~_).  Numbered by label instead, seeds 3 and 6
        # take 298 and 224; without the walk back to the open face's start in
        # the cut, the worst of seeds 1, 3 and 6 takes 252.
        for seed in (1, 3, 6):
            rng = random.Random(seed)
            for g in corpus6:
                side = max_euler_characteristic(relabelled(g, rng), budget=3 * 10**7).nonorientable
                assert side.nodes <= 200, (seed, g.edges(), side.nodes)

    def test_k44_signed_side_reaches_its_cap(self):
        # Inside max_euler_characteristic the orientable side reaches the
        # cap 0, so the signed side is skipped; called directly it reaches 0.
        g = make_family("kmn", 4, 4)
        result = max_euler_characteristic(g)
        assert (result.chi, result.certified, result.nonorientable) == (0, True, None)
        core = embedding._core(g)[0]
        witness, nodes, decided = embedding._branch_and_bound(core, 0, 10**7, True)
        assert decided and witness is not None and nodes < 10**7
        traced = trace_faces(core, witness)
        assert traced.chi == 0 and not traced.orientable

    def test_budget_stopped(self):
        # K6 is decided in 67 orientable and 55 signed nodes.
        assert max_euler_characteristic(make_family("kn", 6), budget=122).certified
        for budget in (50, 100):
            assert not max_euler_characteristic(make_family("kn", 6), budget=budget).certified
        assert max_euler_characteristic(make_family("kn", 5)).certified


def _k1222():
    part = (0, 1, 1, 2, 2, 3, 3)
    return Graph.from_edges(7, [(u, v) for u in range(7) for v in range(u + 1, 7)
                                if part[u] != part[v]])


class TestSignedBranchAndBound:
    def _decide(self, core, t, allowance=10**6):
        """The search's verdict on chi >= t, with its witness checked by re-tracing."""
        witness, nodes, decided = embedding._branch_and_bound(core, t, allowance, True)
        assert decided and nodes <= allowance
        if witness is not None:
            traced = trace_faces(core, witness)
            assert traced.chi >= t and not traced.orientable
        return witness is not None

    def test_matches_the_exhaustive_signed_sweep_on_corpus6(self, corpus6):
        checked = 0
        for core in _distinct_cores(corpus6):
            best = _swept_chi(core, True)
            if best is None:
                continue
            cap = min(1, embedding._face_length_upper_bound(core))
            for t in range(cap, best - 1, -1):
                assert self._decide(core, t) == (t <= best), (core.edges(), t, best)
            checked += 1
        assert checked == 46

    def test_refutes_the_projective_plane_for_k1222(self):
        # K1,2,2,2 is one of the projective plane's forbidden minors
        # (Archdeacon 1981).  Called directly, one t at a time.
        core = embedding._core(_k1222())[0]
        assert embedding._face_length_upper_bound(core) == 1
        assert not self._decide(core, 1)
        assert self._decide(core, 0)

    @pytest.mark.parametrize("family", [("kn", 7), ("kmn", 4, 5), ("kmn", 5, 5)])
    def test_signed_values_of_complete_graphs(self, family):
        # Refuting K7 at 0 is Franklin's theorem: K7 is not in the Klein bottle.
        core = embedding._core(make_family(*family))[0]
        truth = ringel_chi(*family, side="nonorientable")
        for t in range(min(1, embedding._face_length_upper_bound(core)), truth - 1, -1):
            assert self._decide(core, t) == (t == truth), t

    def test_certifies_a_signed_value_below_the_cap(self):
        # Two K3,3 joined by an edge: signed cap 1, signed chi 0.
        k33 = [(u, v) for u in range(3) for v in range(3, 6)]
        g = Graph.from_edges(12, k33 + [(u + 6, v + 6) for u, v in k33] + [(0, 6)])
        result = max_euler_characteristic(g)
        assert (result.chi, result.certified) == (0, True)
        assert (result.nonorientable.chi, result.nonorientable.certified) == (0, True)
        _assert_witnesses_retrace(g, result)

    def test_budget_is_a_hard_cap(self):
        # K5: 20 orientable nodes reach its orientable cap 0, then 34 signed
        # nodes reach the signed cap 1.
        g = make_family("kn", 5)
        full = max_euler_characteristic(g)
        orientable, side = full.orientable.nodes, full.nonorientable
        assert orientable > 0 and side.nodes > 0
        assert side.certified and full.certified
        assert full.steps_used == orientable + side.nodes
        exact = max_euler_characteristic(g, budget=full.steps_used)
        assert exact.certified and exact.steps_used == full.steps_used
        for budget in (0, orientable // 2, orientable, orientable + side.nodes // 2,
                       full.steps_used - 1):
            result = max_euler_characteristic(g, budget=budget)
            assert result.steps_used == budget
            assert result.orientable.nodes == min(budget, orientable)
            assert result.orientable.certified == (budget >= orientable)
            assert result.nonorientable.nodes == max(0, budget - orientable)
            assert not result.nonorientable.certified and not result.certified
        core = embedding._core(g)[0]
        assert embedding._branch_and_bound(core, 1, side.nodes - 1, True) == (
            None, side.nodes - 1, False)
        assert embedding._branch_and_bound(core, 0, orientable - 1, False) == (
            None, orientable - 1, False)

    def test_no_node_at_an_allowance_of_zero_or_below(self):
        core = embedding._core(make_family("kn", 5))[0]
        for allowance in (-1, 0):
            assert embedding._branch_and_bound(core, 1, allowance, True) == (None, 0, False)


def _torus_grid(a, b):
    """C_a x C_b: the a x b grid with wrap-around, a quadrangulation of the torus."""
    edges = set()
    for i in range(a):
        for j in range(b):
            v = i * b + j
            for w in (((i + 1) % a) * b + j, i * b + (j + 1) % b):
                edges.add((min(v, w), max(v, w)))
    return Graph.from_edges(a * b, sorted(edges))


class TestOrientableBranchAndBound:
    def _decide(self, core, t, allowance=10**6):
        """The search's verdict on orientable chi >= t, its witness re-traced."""
        witness, nodes, decided = embedding._branch_and_bound(core, t, allowance, False)
        assert decided and nodes <= allowance
        if witness is not None:
            assert not witness.negative_edges
            traced = trace_faces(core, witness)
            assert traced.chi >= t and traced.orientable
        return witness is not None

    def _assert_matches(self, core, best):
        cap = embedding._face_length_upper_bound(core)
        for t in range(cap - cap % 2, core.n - core.m, -2):
            assert self._decide(core, t) == (t <= best), (core.edges(), t, best)

    def test_matches_the_exhaustive_orientable_sweep_on_corpus6(self, corpus6):
        checked = 0
        for core in _distinct_cores(corpus6):
            best = _swept_chi(core, False)
            if best is not None:
                self._assert_matches(core, best)
                checked += 1
        assert checked == 59  # of 63; the other four have 13-15 edges, K6 among them

    @pytest.mark.parametrize("family", [("kn", 5), ("kmn", 3, 3), ("kmn", 4, 4),
                                        ("petersen",), ("qd", 3)])
    def test_matches_the_exhaustive_orientable_sweep_on_named_graphs(self, family):
        core = embedding._core(make_family(*family))[0]
        space = SchemeSpace(core, False)
        self._assert_matches(core, reference_sweep(space, space.total)[0])

    def test_odd_t_is_decided_as_the_even_t_above_it(self):
        # Orientable chi is even, so chi >= -3 and chi >= -2 are one question
        # and so are -5 and -4.  K5,5's orientable chi is -4.
        core = embedding._core(make_family("kmn", 5, 5))[0]
        for t, holds in ((-2, False), (-3, False), (-4, True), (-5, True)):
            witness, nodes, decided = embedding._branch_and_bound(core, t, 10**4, False)
            assert decided and (witness is not None) == holds and nodes < 10**4, t

    def test_sphere_agrees_with_networkx_on_the_atlas(self):
        import networkx as nx

        count = 0
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() == 0 or not nx.is_connected(h):
                continue
            g = Graph.from_edges(h.number_of_nodes(), [tuple(sorted(e)) for e in h.edges()])
            core = embedding._core(g)[0]
            if core.m:
                assert self._decide(core, 2) == reference_is_planar(g), g.edges()
                count += 1
        assert count == 996 - 25  # less the trees on 1..7 vertices (OEIS A000055)

    @pytest.mark.parametrize("g, chi, orientable, ringel", [
        (make_family("kmn", 4, 4), 0, 0, ("kmn", 4, 4)),
        (make_family("kmn", 3, 5), 0, 0, ("kmn", 3, 5)),
        (make_family("kn", 7), 0, 0, ("kn", 7)),
        (_k1222(), 0, 0, None),
        (_stress_graphs()[2], 0, 0, None),
        (make_family("qd", 4), 0, 0, None),
        (_torus_grid(4, 4), 0, 0, None),
        (_torus_grid(4, 5), 0, 0, None),
        (make_family("kmn", 5, 5), -3, -4, ("kmn", 5, 5)),
    ], ids=["K4,4", "K3,5", "K7", "K1,2,2,2", "K3,3,3", "Q4", "C4xC4", "C4xC5", "K5,5"])
    def test_graphs_the_theorem_is_about_are_certified(self, g, chi, orientable, ringel):
        result = max_euler_characteristic(g)
        assert (result.chi, result.certified) == (chi, True)
        assert (result.orientable.chi, result.orientable.certified) == (orientable, True)
        assert result.steps_used < 10**5
        if ringel is not None:
            assert chi == ringel_chi(*ringel)
            assert orientable == ringel_chi(*ringel, side="orientable")
        nonor = result.nonorientable
        if orientable >= min(1, embedding._face_length_upper_bound(embedding._core(g)[0])):
            assert nonor is None  # the signed side could not raise chi
        else:
            assert nonor.certified and nonor.chi == chi
        _assert_witnesses_retrace(g, result)

    def test_orientable_side_steps_by_two(self, monkeypatch):
        # Two K3,3 joined by an edge: orientable genus 2, so orientable chi
        # -2 below the planarity step's cap 0, and signed chi 0 below 1.
        k33 = [(u, v) for u in range(3) for v in range(3, 6)]
        g = Graph.from_edges(12, k33 + [(u + 6, v + 6) for u, v in k33] + [(0, 6)])
        calls = []
        search = embedding._branch_and_bound

        def recorded(core, t, allowance, signed):
            calls.append((signed, t))
            return search(core, t, allowance, signed)

        monkeypatch.setattr(embedding, "_branch_and_bound", recorded)
        result = max_euler_characteristic(g)
        assert (result.orientable.chi, result.nonorientable.chi, result.certified) == (-2, 0, True)
        assert calls == [(False, 0), (False, -2), (True, 1), (True, 0)]

    def test_budget_is_a_hard_cap(self):
        # K6's orientable side is decided in 67 nodes; every budget short
        # of that stops it, uncertified, having spent exactly the budget.
        g = make_family("kn", 6)
        full = max_euler_characteristic(g, orientable_only=True)
        nodes = full.orientable.nodes
        assert full.certified and full.steps_used == nodes and 0 < nodes < 1000
        exact = max_euler_characteristic(g, budget=nodes, orientable_only=True)
        assert exact.certified
        for budget in range(-1, nodes):
            result = max_euler_characteristic(g, budget=budget, orientable_only=True)
            assert result.steps_used == result.orientable.nodes == max(0, budget)
            assert not result.certified and result.chi is None
