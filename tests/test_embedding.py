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
    BudgetExceededError,
    RotationSystem,
    curvature,
    max_euler_characteristic,
    ringel_chi,
    trace_faces,
)
from bondlab.graphs import Graph, enumerate_connected_graphs, make_family, parse_graph6

from conftest import (
    random_connected_graph,
    random_rotation_system,
    reference_core,
    reference_is_planar,
    reference_sweep,
    reference_sweep_scalar,
)

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
            assert len(nbrs) != 2 or core.has_edge(*nbrs), (g.edges(), v)

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

    def test_scalar_and_vector_paths_agree(self, monkeypatch):
        g = make_family("kmn", 3, 3)
        result_vector = max_euler_characteristic(g, early_exit=False)
        monkeypatch.setattr(embedding, "_sweep_vector", reference_sweep_scalar)
        result_scalar = max_euler_characteristic(g, early_exit=False)
        assert result_scalar.chi == result_vector.chi
        assert result_scalar.witness == result_vector.witness
        assert result_scalar.orientable.chi == result_vector.orientable.chi
        assert result_scalar.nonorientable.chi == result_vector.nonorientable.chi
        assert result_scalar == result_vector

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
        # "_sweep_scalar" runs the pure-Python oracle in the numpy sweep's place.
        used = []
        original = reference_sweep_scalar if path == "_sweep_scalar" else embedding._sweep_vector

        def counted(*args):
            used.append(path)
            return original(*args)

        monkeypatch.setattr(embedding, "_sweep_vector", counted)
        result = max_euler_characteristic(make_family(*family), budget=budget, early_exit=False)
        assert used and not result.exhaustive
        assert result.steps_used <= budget

    def test_paths_stop_at_the_same_scheme(self, corpus6, monkeypatch):
        # The numpy sweep and the pure-Python oracle trace exactly the
        # schemes the budget pays for, so swapping them changes no field of
        # the result.
        def search_all():
            return [
                max_euler_characteristic(g, budget=budget, early_exit=early_exit)
                for g in corpus6
                for budget in (10**4, 10**5)
                for early_exit in (True, False)
            ]

        vector = search_all()
        monkeypatch.setattr(embedding, "_sweep_vector", reference_sweep_scalar)
        assert search_all() == vector
        g = make_family("kmn", 3, 3)
        result = max_euler_characteristic(g, budget=1000, early_exit=False)
        assert 1000 - 4 * g.m < result.steps_used <= 1000

    @given(
        st.one_of(
            # Nonplanar graphs, so that the signed side is searched too.
            st.sampled_from([make_family("kn", 5), make_family("kmn", 3, 3),
                             make_family("petersen"), parse_graph6("D~{"), parse_graph6("Evz_")]),
            st.builds(random_connected_graph, st.randoms(use_true_random=False),
                      st.integers(min_value=2, max_value=7), st.just(0.5)),
        ),
        st.integers(min_value=-100, max_value=2 * 10**5),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_steps_used_counts_states_of_searched_schemes(self, g, budget, early_exit):
        result = max_euler_characteristic(g, budget=budget, early_exit=early_exit)
        m = embedding._core(g)[0].m
        orientable, nonor = result.orientable, result.nonorientable
        signed = 4 * m * nonor.searched + nonor.nodes if nonor else 0
        assert result.steps_used == 2 * m * orientable.searched + orientable.nodes + signed
        assert result.steps_used <= max(0, budget)
        if early_exit:
            assert orientable.searched == 0 and (nonor is None or nonor.searched == 0)
        else:
            assert orientable.nodes == 0 and (nonor is None or nonor.nodes == 0)
        # A side the budget stopped could not pay for one more scheme, or
        # under early exit for one more node.
        if not orientable.certified:
            assert budget - result.steps_used < (1 if early_exit else 2 * m)
        if nonor is not None and not nonor.certified:
            assert budget - result.steps_used < (1 if early_exit else 4 * m)

    def test_strict_on_the_numpy_path(self):
        with pytest.raises(BudgetExceededError):
            max_euler_characteristic(make_family("kn", 6), budget=10**5, strict=True,
                                     early_exit=False)
        for g in (make_family("kn", 5), make_family("petersen")):
            result = max_euler_characteristic(g, strict=True)
            assert result.chi == 1 and result.certified

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


def _assert_sweeps_agree(g, budget):
    """Each side's numpy sweep and full tracing agree on what ``budget`` pays for."""
    core = embedding._core(g)[0]
    if core.m == 0:
        return
    for signed in (False, True):
        space = embedding._SchemeSpace(core, signed)
        limit = min(space.total, budget // space.states)
        new = embedding._sweep_vector(space, limit)
        assert new == reference_sweep(space, limit), (g.edges(), signed, budget)


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
            _assert_sweeps_agree(g, 10**6)

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
        # Without early exit, the only path that sweeps.
        new = [max_euler_characteristic(g, budget=3 * 10**5, early_exit=False) for g in graphs]
        monkeypatch.setattr(embedding, "_sweep_vector", reference_sweep)
        old = [max_euler_characteristic(g, budget=3 * 10**5, early_exit=False) for g in graphs]
        assert new == old

    @pytest.mark.parametrize("graph6", ["E~~w", "E~~o", "E}~o", "E~~_"])
    def test_peak_memory_no_higher_than_full_tracing(self, graph6, monkeypatch):
        g = parse_graph6(graph6)
        max_euler_characteristic(g, budget=10**5, early_exit=False)  # numpy imported and warm

        def peak():
            tracemalloc.start()
            try:
                max_euler_characteristic(g, budget=3_000_000, early_exit=False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        new = peak()
        monkeypatch.setattr(embedding, "_sweep_vector", reference_sweep)
        assert new <= peak()


# ---------------------------------------------------------------------------
# The signed side: the branch-and-bound alone under early exit
# ---------------------------------------------------------------------------


def _stress_graphs():
    k333 = Graph.from_edges(9, [(u, v) for u in range(9) for v in range(u + 1, 9)
                                if u // 3 != v // 3])
    return [make_family("kmn", 5, 5), make_family("qd", 4), k333]


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


class TestLocalSearchRace:
    """Guards on the early-exit search as a whole: where it runs and what it costs."""

    def test_corpus6_certifies_at_the_benchmark_budget(self, corpus6):
        for g in corpus6:
            result = max_euler_characteristic(g, budget=3 * 10**7)
            assert result.certified, g.edges()
            assert result.orientable.certified and result.nonorientable.certified
            assert not result.budget_stopped
            _assert_witnesses_retrace(g, result)

    @given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_certified_witnesses_retrace(self, n, rng):
        g = random_connected_graph(rng, n, extra=0.5)
        _assert_witnesses_retrace(g, max_euler_characteristic(g, budget=10**6))

    def test_agrees_with_the_sweep_alone_where_it_certifies(self, corpus6):
        # Without early exit there is no planarity step or branch-and-bound:
        # a side is certified by sweeping its whole space.
        rng = random.Random(7)
        graphs = corpus6 + [_relabelled(g, rng) for g in corpus6[-40:]]
        graphs += [make_family("kmn", 4, 4), make_family("petersen")]
        for g in graphs:
            new = max_euler_characteristic(g, budget=3 * 10**6)
            old = max_euler_characteristic(g, budget=3 * 10**6, early_exit=False)
            assert new.steps_used <= 3 * 10**6
            pairs = [(new, old), (new.orientable, old.orientable),
                     (new.nonorientable, old.nonorientable)]
            for a, b in pairs:
                if b is not None and b.certified:
                    assert (a.chi, a.certified) == (b.chi, b.certified), g.edges()

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

    def test_no_signed_sweep_under_early_exit(self, corpus6, monkeypatch):
        # Neither side is swept under early exit, so no scheme space is built.
        def refuse(space, core, signed):
            raise AssertionError(f"scheme space built (signed={signed})")

        monkeypatch.setattr(embedding._SchemeSpace, "__init__", refuse)
        for g in _stress_graphs():
            max_euler_characteristic(g, budget=10**6)
        rng = random.Random(11)
        for _ in range(200):
            max_euler_characteristic(_sparse_graph(rng, rng.randint(8, 14), rng.randint(2, 5)))
        for g in corpus6:
            max_euler_characteristic(g, budget=3 * 10**7)

    def test_stress_graphs_spend_their_leftover_steps_as_nodes(self):
        # Both sides are searched node by node, and every stress graph is
        # certified well inside the benchmark's budget.  Q4 and K3,3,3 reach
        # their cap 0 orientably, so their signed side, which could not raise
        # chi, is skipped; K5,5 is -4 orientably and -3 signed.
        for g, chi in zip(_stress_graphs(), (-3, 0, 0)):
            result = max_euler_characteristic(g, budget=10**6)
            orientable, nonor = result.orientable, result.nonorientable
            assert (result.chi, result.certified, result.budget_stopped) == (chi, True, False)
            assert orientable.certified and orientable.searched == 0 and orientable.nodes > 0
            signed = 0 if nonor is None else nonor.nodes
            assert result.steps_used == orientable.nodes + signed < 10**5
            if chi == 0:
                assert orientable.chi == 0 and nonor is None
            else:
                assert (orientable.chi, nonor.chi, nonor.certified) == (-4, -3, True)
                assert nonor.searched == 0 and nonor.nodes > 0
            _assert_witnesses_retrace(g, result)

    def test_node_counts_on_the_sparse_pool(self):
        # The benchmark's stored pool: 16 nonplanar signed sides, the worst
        # at 302 nodes.
        pool = json.loads((PERFBENCH_DATA / "sparse_pool.json").read_text())["rows"]
        searched = 0
        for row in pool:
            side = max_euler_characteristic(parse_graph6(row[1])).nonorientable
            assert side is not None and side.certified and side.nodes <= 700, (row[1], side)
            searched += side.nodes > 0
        assert searched == 16

    def test_node_counts_on_relabelled_corpus6(self, corpus6):
        # With vertices numbered by descending degree the worst signed side
        # over the relabellings of seeds 0-39 took 722 nodes (E~~W).
        # Numbered by label instead, seeds 3 and 6 took 1,547 and 1,692.
        for seed in (1, 3, 6):
            rng = random.Random(seed)
            for g in corpus6:
                side = max_euler_characteristic(_relabelled(g, rng), budget=3 * 10**7).nonorientable
                assert side.nodes <= 1400, (seed, g.edges(), side.nodes)

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
        # K6 is decided in 220 orientable and 242 signed nodes.
        assert not max_euler_characteristic(make_family("kn", 6), budget=462).budget_stopped
        for budget in (100, 400):
            assert max_euler_characteristic(make_family("kn", 6), budget=budget).budget_stopped
        assert not max_euler_characteristic(make_family("kn", 5)).budget_stopped
        # Exhausting the space is not a stop, with or without early exit.
        assert not max_euler_characteristic(make_family("cn", 5), early_exit=False).budget_stopped
        assert max_euler_characteristic(make_family("kmn", 3, 3), budget=50,
                                        early_exit=False).budget_stopped
        # Without early exit a side that attains its cap sweeps on, so the
        # budget stops K5's certified signed side short of its space.
        k5 = max_euler_characteristic(make_family("kn", 5), budget=10**6, early_exit=False)
        assert k5.nonorientable.certified and k5.budget_stopped


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
        cores = {}
        for g in corpus6:
            core = embedding._core(g)[0]
            if core.m:
                cores.setdefault((core.n, tuple(core.edges())), core)
        checked = 0
        for core in cores.values():
            space = embedding._SchemeSpace(core, True)
            if space.total * space.states > 3 * 10**6:
                continue
            best = reference_sweep(space, space.total)[0]
            cap = min(1, embedding._face_length_upper_bound(core))
            for t in range(cap, best - 1, -1):
                assert self._decide(core, t) == (t <= best), (core.edges(), t, best)
            checked += 1
        assert checked == 46

    def test_refutes_the_projective_plane_for_k1222(self):
        # K1,2,2,2 is one of the projective plane's forbidden minors
        # (Archdeacon 1981).  Called directly: in max_euler_characteristic
        # its orientable sweep spends the whole default budget first.
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
        # K5: 20 orientable nodes reach its orientable cap 0, then 78 signed
        # nodes reach the signed cap 1.
        g = make_family("kn", 5)
        full = max_euler_characteristic(g)
        orientable, side = full.orientable.nodes, full.nonorientable
        assert orientable > 0 and side.nodes > 0
        assert full.orientable.searched == side.searched == 0
        assert side.certified and not full.budget_stopped
        assert full.steps_used == orientable + side.nodes
        exact = max_euler_characteristic(g, budget=full.steps_used, strict=True)
        assert exact.certified and exact.steps_used == full.steps_used
        for budget in (0, orientable // 2, orientable, orientable + side.nodes // 2,
                       full.steps_used - 1):
            result = max_euler_characteristic(g, budget=budget)
            assert result.steps_used == budget
            assert result.orientable.nodes == min(budget, orientable)
            assert result.orientable.certified == (budget >= orientable)
            assert result.nonorientable.nodes == max(0, budget - orientable)
            assert not result.nonorientable.certified and not result.certified
            assert result.budget_stopped
            with pytest.raises(BudgetExceededError):
                max_euler_characteristic(g, budget=budget, strict=True)
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
        cores = {}
        for g in corpus6:
            core = embedding._core(g)[0]
            if core.m:
                cores.setdefault((core.n, tuple(core.edges())), core)
        checked = 0
        for core in cores.values():
            space = embedding._SchemeSpace(core, False)
            if space.total * space.states > 3 * 10**6:
                continue
            self._assert_matches(core, reference_sweep(space, space.total)[0])
            checked += 1
        assert checked == 59  # of 63; the other four have 13-15 edges, K6 among them

    @pytest.mark.parametrize("family", [("kn", 5), ("kmn", 3, 3), ("kmn", 4, 4),
                                        ("petersen",), ("qd", 3)])
    def test_matches_the_exhaustive_orientable_sweep_on_named_graphs(self, family):
        g = make_family(*family)
        swept = max_euler_characteristic(g, budget=10**9, orientable_only=True,
                                         early_exit=False).orientable
        assert swept.exhaustive
        self._assert_matches(embedding._core(g)[0], swept.chi)

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
        assert (result.chi, result.certified, result.budget_stopped) == (chi, True, False)
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
        # K6's orientable side is decided in 220 nodes; every budget short
        # of that stops it, uncertified, having spent exactly the budget.
        g = make_family("kn", 6)
        full = max_euler_characteristic(g, orientable_only=True)
        nodes = full.orientable.nodes
        assert full.certified and full.steps_used == nodes and 0 < nodes < 1000
        exact = max_euler_characteristic(g, budget=nodes, orientable_only=True, strict=True)
        assert exact.certified and not exact.budget_stopped
        for budget in range(-1, nodes):
            result = max_euler_characteristic(g, budget=budget, orientable_only=True)
            assert result.steps_used == result.orientable.nodes == max(0, budget)
            assert not result.certified and result.chi is None and result.budget_stopped
            with pytest.raises(BudgetExceededError):
                max_euler_characteristic(g, budget=budget, orientable_only=True, strict=True)
