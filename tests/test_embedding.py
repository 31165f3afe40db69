import random
import tracemalloc
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondlab import embedding
from bondlab.embedding import (
    BudgetExceededError,
    RotationSystem,
    curvature,
    max_euler_characteristic,
    ringel_chi,
    trace_faces,
)
from bondlab.graphs import Graph, enumerate_connected_graphs, make_family, parse_graph6

from conftest import random_connected_graph, random_rotation_system, reference_sweep_vector


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
            summary = trace_faces(g, RotationSystem.identity(g))
            assert summary.face_lengths == (2 * (n - 1),)
            assert all(
                pair == (2 * (n - 1), 2 * (n - 1))
                for pair in summary.edge_face_lengths.values()
            )
            assert summary.chi == 2

    def test_triangle_on_the_sphere(self):
        g = make_family("cn", 3)
        summary = trace_faces(g, RotationSystem.identity(g))
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
        rs = RotationSystem(RotationSystem.identity(g).rotations, frozenset({(0, 2)}))
        summary = trace_faces(g, rs)
        assert summary.face_lengths == (6,)
        assert summary.chi == 1
        assert not summary.orientable

    def test_rejects_bad_rotation(self):
        g = make_family("cn", 4)
        rs = RotationSystem(((1, 3), (0, 2), (1, 3), (0, 0)))
        with pytest.raises(ValueError):
            trace_faces(g, rs)

    def test_rejects_sign_on_non_edge(self):
        g = make_family("pn", 3)
        rs = RotationSystem(RotationSystem.identity(g).rotations, frozenset({(0, 2)}))
        with pytest.raises(ValueError):
            trace_faces(g, rs)

    def test_rejects_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            trace_faces(g, RotationSystem.identity(g))

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
        again = RotationSystem.from_json_dict(rs.to_json_dict())
        assert again == rs


class TestCurvature:
    def test_triangle_weights_vanish(self):
        g = make_family("cn", 3)
        summary = trace_faces(g, RotationSystem.identity(g))
        ledger = curvature(g, summary)
        assert all(abs(w) < 1e-12 for w in ledger.weights.values())
        assert abs(ledger.total) < 1e-12

    def test_single_edge(self):
        g = make_family("pn", 2)
        summary = trace_faces(g, RotationSystem.identity(g))
        ledger = curvature(g, summary)
        assert ledger.weights[(0, 1)] == pytest.approx(0, abs=1e-12)

    def test_total_vanishes_for_random_embeddings(self):
        rng = random.Random(8)
        for _ in range(500):
            g = random_connected_graph(rng, rng.randint(2, 8))
            rs = random_rotation_system(rng, g, signed=rng.random() < 0.5)
            summary = trace_faces(g, rs)
            assert abs(curvature(g, summary).total) < 1e-12


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
        assert result.chi == 2 and result.certified and result.exhaustive
        assert trace_faces(make_family("pn", 6), result.witness).chi == 2

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
            after = max_euler_characteristic(g.add_edge(*edge))
            assert before.certified and after.certified
            assert after.chi <= before.chi

    def test_quotient_matches_unquotiented_brute_force(self):
        # Independent oracle: no reflection quotient, no pivot fixing, no
        # reductions; every rotation system and every sign subset is traced.
        from itertools import combinations

        cases = [
            Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),  # paw
            Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),  # bowtie
            make_family("kmn", 2, 3),
            Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
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
            result = max_euler_characteristic(g, early_exit=False)
            assert result.orientable.chi == best_or, g.edges()
            assert result.chi == best_any, g.edges()

    def test_scalar_and_vector_paths_agree(self):
        from bondlab import embedding

        g = make_family("kmn", 3, 3)
        result_scalar = max_euler_characteristic(g, early_exit=False)
        original = embedding._VECTOR_THRESHOLD
        embedding._VECTOR_THRESHOLD = 0  # force the numpy path
        try:
            result_vector = max_euler_characteristic(g, early_exit=False)
        finally:
            embedding._VECTOR_THRESHOLD = original
        assert result_scalar.chi == result_vector.chi
        assert result_scalar.witness == result_vector.witness
        assert result_scalar.orientable.chi == result_vector.orientable.chi
        assert result_scalar.nonorientable.chi == result_vector.nonorientable.chi

    def test_budget_strict_raises(self):
        g = make_family("kmn", 3, 3)
        with pytest.raises(BudgetExceededError):
            max_euler_characteristic(g, budget=10, strict=True, early_exit=False)

    def test_budget_permissive_flags_incomplete(self):
        g = make_family("kmn", 3, 3)
        result = max_euler_characteristic(g, budget=50, early_exit=False)
        assert not result.exhaustive
        assert result.steps_used <= 50

    @pytest.mark.parametrize("family, budget, path", [
        (("kn", 6), 10**6, "_sweep_vector"),
        (("kmn", 5, 5), 10**6, "_sweep_vector"),
        (("kmn", 3, 3), 50, "_sweep_scalar"),
    ])
    def test_budget_is_a_hard_cap(self, monkeypatch, family, budget, path):
        from bondlab import embedding

        used = []
        original = getattr(embedding, path)

        def counted(*args):
            used.append(path)
            return original(*args)

        monkeypatch.setattr(embedding, path, counted)
        result = max_euler_characteristic(make_family(*family), budget=budget, early_exit=False)
        assert used and not result.exhaustive
        assert result.steps_used <= budget

    def test_paths_stop_at_the_same_scheme(self, monkeypatch):
        # The numpy sweep's last block shrinks to what the budget covers.
        from bondlab import embedding

        g = make_family("kmn", 3, 3)
        scalar = max_euler_characteristic(g, budget=1000, early_exit=False)
        monkeypatch.setattr(embedding, "_VECTOR_THRESHOLD", 0)
        vector = max_euler_characteristic(g, budget=1000, early_exit=False)
        assert scalar == vector
        assert 1000 - 4 * g.m < scalar.steps_used <= 1000

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            max_euler_characteristic(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_determinism(self):
        g = make_family("kmn", 3, 3)
        a = max_euler_characteristic(g)
        b = max_euler_characteristic(g)
        assert a.chi == b.chi and a.witness == b.witness

    def test_exhaustive_flag_earned_without_early_exit(self):
        g = make_family("cn", 5)
        result = max_euler_characteristic(g, early_exit=False)
        assert result.exhaustive and result.certified


# ---------------------------------------------------------------------------
# The contracted numpy sweep against the full-tracing one
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus6():
    return [g for g in enumerate_connected_graphs(6) if g.m > 0]


def _sweep_both(core, signed, target, budget):
    """(best, best_index, reached) and the budget left, from each numpy kernel."""
    outcomes = []
    for kernel in (embedding._sweep_vector, reference_sweep_vector):
        left = embedding._Budget(budget, strict=False)
        outcomes.append((kernel(embedding._SchemeSpace(core, signed), target, left),
                         left.remaining))
    return outcomes


def _assert_sweeps_agree(g, budget, early_exit_off=True):
    core = embedding._core(g)[0]
    if core.m == 0:
        return
    cap = embedding._face_length_upper_bound(core)
    for signed, side_cap in ((False, cap - cap % 2), (True, min(1, cap))):
        for target in (side_cap, 10**9) if early_exit_off else (side_cap,):
            new, old = _sweep_both(core, signed, target, budget)
            assert new == old, (g.edges(), signed, budget, target)


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestContractedSweep:
    """``_sweep_vector`` must reproduce the full trace of every scheme exactly."""

    def test_corpus6_cores(self, corpus6):
        # Budgets that cut the sweep inside a block, early and late.
        for g in corpus6:
            _assert_sweeps_agree(g, 10**5)
            _assert_sweeps_agree(g, 10**6, early_exit_off=False)

    @pytest.mark.parametrize("g", [
        make_family("kmn", 5, 5),
        make_family("qd", 4),
        Graph.from_edges(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if u // 3 != v // 3]),
    ], ids=["K5,5", "Q4", "K3,3,3"])
    def test_stress_graphs(self, g):
        _assert_sweeps_agree(g, 10**6)

    @given(st.integers(min_value=3, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_random_connected_graphs(self, n, rng):
        _assert_sweeps_agree(random_connected_graph(rng, n, extra=0.5), 2 * 10**5)

    @given(st.integers(min_value=3, max_value=7), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_each_scheme_matches_trace_faces(self, n, signed, rng):
        core = embedding._core(random_connected_graph(rng, n, extra=0.5))[0]
        if core.m == 0:
            return
        space = embedding._SchemeSpace(core, signed)
        window_chi, _ = embedding._contracted_tracer(space)
        lo = rng.randrange(space.total)
        hi = min(space.total, lo + rng.randint(1, 200))
        expected = [trace_faces(core, space.scheme(i)).chi for i in range(lo, hi)]
        assert window_chi(lo, hi).tolist() == expected

    @pytest.mark.parametrize("g", [
        make_family("kmn", 5, 5),
        make_family("qd", 4),
        make_family("kn", 6),
    ], ids=["K5,5", "Q4", "K6"])
    @pytest.mark.parametrize("signed", [False, True])
    def test_each_scheme_matches_trace_faces_deep_in_the_space(self, g, signed):
        core = embedding._core(g)[0]
        space = embedding._SchemeSpace(core, signed)
        window_chi, _ = embedding._contracted_tracer(space)
        lo = min(space.total, 1 << 62) * 3 // 7
        expected = [trace_faces(core, space.scheme(i)).chi for i in range(lo, lo + 300)]
        assert window_chi(lo, lo + 300).tolist() == expected

    def test_max_euler_characteristic_on_corpus6(self, corpus6, monkeypatch):
        rng = random.Random(2024)
        graphs = [_relabelled(g, rng) for g in corpus6]
        new = [max_euler_characteristic(g, budget=3 * 10**5) for g in graphs]
        monkeypatch.setattr(embedding, "_sweep_vector", reference_sweep_vector)
        old = [max_euler_characteristic(g, budget=3 * 10**5) for g in graphs]
        assert new == old

    @pytest.mark.parametrize("graph6", ["E~~w", "E~~o", "E}~o", "E~~_"])
    def test_peak_memory_no_higher_than_full_tracing(self, graph6, monkeypatch):
        g = parse_graph6(graph6)
        max_euler_characteristic(g, budget=10**5)  # numpy imported and warm

        def peak():
            tracemalloc.start()
            try:
                max_euler_characteristic(g, budget=3_000_000)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        new = peak()
        monkeypatch.setattr(embedding, "_sweep_vector", reference_sweep_vector)
        assert new <= peak()
