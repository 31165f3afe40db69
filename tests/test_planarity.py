import json
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondlab import embedding
from bondlab.embedding import RotationSystem, max_euler_characteristic, trace_faces
from bondlab.graphs import Graph, enumerate_connected_graphs, make_family, parse_graph6
from bondlab.planarity import planar_rotations

from conftest import SchemeSpace, random_connected_graph, reference_is_planar, reference_sweep

DATA = Path(__file__).parent / "data"
PERFBENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


@pytest.fixture(scope="module")
def corpus6():
    return [g for g in enumerate_connected_graphs(6) if g.m > 0]


def _subdivided_with_path(g: Graph) -> Graph:
    """``g`` with its first edge subdivided and a 2-edge path hung on the new vertex."""
    (u, v), rest = g.edges()[0], g.edges()[1:]
    w = g.n
    return Graph.from_edges(g.n + 3, rest + [(u, w), (w, v), (w, w + 1), (w + 1, w + 2)])


def _minus_first_edge(g: Graph) -> Graph:
    return Graph.from_edges(g.n, g.edges()[1:])


# Two triangles joined by a perfect matching: planar, all six vertices of degree 3.
PRISM = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                             (0, 3), (1, 4), (2, 5)])


def _assert_verdict(g: Graph):
    rotations = planar_rotations(g)
    assert (rotations is not None) == reference_is_planar(g), g.edges()
    if rotations is not None and g.m > 0:
        witness = RotationSystem(rotations)
        witness.validate(g)
        summary = trace_faces(g, witness)
        assert summary.chi == 2 and summary.orientable, g.edges()


class TestPlanarRotations:
    def test_every_connected_atlas_graph(self):
        count = 0
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() == 0 or not nx.is_connected(h):
                continue
            _assert_verdict(Graph.from_edges(h.number_of_nodes(), [tuple(sorted(e)) for e in h.edges()]))
            count += 1
        assert count == 996  # connected graphs on 1..7 vertices (OEIS A001349)

    @given(st.integers(min_value=1, max_value=14), st.floats(min_value=0.0, max_value=0.6),
           st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_connected_graphs(self, n, extra, rng):
        _assert_verdict(random_connected_graph(rng, n, extra))

    @pytest.mark.parametrize("g, planar", [
        (make_family("kn", 4), True),
        (make_family("qd", 3), True),
        (make_family("kn", 5), False),
        (make_family("kmn", 3, 3), False),
        (make_family("petersen"), False),
        # Two K4 sharing a cut vertex, joined to a triangle by a bridge.
        (Graph.from_edges(10, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                               (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
                               (6, 7), (7, 8), (7, 9), (8, 9)]), True),
    ], ids=["K4", "Q3", "K5", "K3,3", "Petersen", "blocks"])
    def test_named_graphs(self, g, planar):
        assert (planar_rotations(g) is not None) == planar
        _assert_verdict(g)

    def test_refuses_a_disconnected_graph(self):
        # K5 on vertices 1-5 beside an isolated vertex 0: the search from
        # vertex 0 would see no block, and so no obstruction.
        g = Graph.from_edges(6, [(u + 1, v + 1) for u, v in make_family("kn", 5).edges()])
        with pytest.raises(ValueError, match="connected"):
            planar_rotations(g)


class TestPlanarityStep:
    def test_agrees_with_the_exhaustive_orientable_sweep(self, corpus6):
        # The oracle sweep decides whether chi 2 is reached over the whole
        # quotient, where that holds at most 3e6 states' worth of schemes.
        # A full sweep of the four 13-15-edge cores above that takes tens of
        # seconds each, so networkx decides those.
        networkx_only = 0
        for g in corpus6:
            core = embedding._core(g)[0]
            if core.m == 0:
                continue
            space = SchemeSpace(core, False)
            if space.total * space.states <= 3 * 10**6:
                planar = reference_sweep(space, space.total)[0] == 2
            else:
                planar = reference_is_planar(core)
                networkx_only += 1
            assert (planar_rotations(core) is not None) == planar, g.edges()
            side = max_euler_characteristic(g, orientable_only=True).orientable
            assert side.certified and (side.chi == 2) == planar, g.edges()
        assert networkx_only == 4

    def test_runs_once_where_the_cap_allows_the_sphere(self, corpus6, monkeypatch):
        # The search tests a core for planarity only when the branch-vertex
        # count does not decide it and its face-length cap is 2 (K5, K6 and
        # Petersen have caps below 2; a tree has no core to test).  A core
        # with an edge that the count decides is planar, so it is tested
        # once, when its witness is first read, and never again.
        calls = []
        step = embedding.planar_rotations

        def recorded(core):
            calls.append(core)
            return step(core)

        monkeypatch.setattr(embedding, "planar_rotations", recorded)
        kinds = {"tested": 0, "counted": 0, "skipped": 0}
        for g in corpus6[::7] + [make_family("qd", 3), make_family("kn", 5),
                                 make_family("kn", 6), make_family("petersen"),
                                 make_family("pn", 5), PRISM,
                                 _minus_first_edge(make_family("kn", 5)),
                                 _minus_first_edge(make_family("kmn", 3, 3))]:
            calls.clear()
            result = max_euler_characteristic(g, budget=10**5)
            core = embedding._core(g)[0]
            counted = core.m > 0 and embedding._planar_by_count(core)
            tested = not counted and core.m > 0 and embedding._face_length_upper_bound(core) == 2
            assert calls == ([core] if tested else []), g.edges()
            witness = result.orientable.witness
            assert trace_faces(g, witness).chi == result.orientable.chi, g.edges()
            assert result.orientable.witness is witness, g.edges()
            assert calls == ([core] if tested or counted else []), g.edges()
            kinds["tested" if tested else "counted" if counted else "skipped"] += 1
        assert kinds == {"tested": 4, "counted": 19, "skipped": 6}

    @pytest.mark.parametrize("family", [("qd", 3), ("kn", 4)], ids=["Q3 tested", "K4 counted"])
    def test_a_plane_witness_must_retrace_to_the_sphere(self, family, monkeypatch):
        # A rotation system from the planarity test counts only once
        # trace_faces re-traces it to chi 2: Q3's core is tested at once,
        # K4's when its witness is read.  Both graphs are their own core.
        g = make_family(*family)
        rotations = list(planar_rotations(g))
        rotations[0] = rotations[0][::-1]
        assert trace_faces(g, RotationSystem(tuple(rotations))).chi < 2
        monkeypatch.setattr(embedding, "planar_rotations", lambda core: tuple(rotations))
        with pytest.raises(AssertionError, match="does not re-trace to chi 2"):
            max_euler_characteristic(g).witness

    @pytest.mark.parametrize("name", ["corpus6", "verify_corpus7.csv", "verify_sparse_pool.csv"])
    def test_cores_with_few_branch_vertices_are_planar(self, corpus6, name):
        # The counting rule the search certifies the sphere by, checked
        # against networkx and the planarity test on every core it counts.
        # It counts every core of at most 8 edges, as its docstring proves.
        if name == "corpus6":
            graphs = corpus6
        else:
            lines = (DATA / name).read_text().splitlines()[1:]
            graphs = [parse_graph6(line.split(",", 1)[0]) for line in lines]
        counted = 0
        for g in graphs:
            core = embedding._core(g)[0]
            if core.m > 0 and embedding._planar_by_count(core):
                assert reference_is_planar(core), g.edges()
                assert planar_rotations(core) is not None, g.edges()
                counted += 1
            else:
                assert core.m == 0 or core.m >= 9, g.edges()
        assert counted == {"corpus6": 106, "verify_corpus7.csv": 482,
                           "verify_sparse_pool.csv": 1777}[name]

    @pytest.mark.parametrize("g, counted", [
        (make_family("kn", 5), False),
        (make_family("kmn", 3, 3), False),
        (_subdivided_with_path(make_family("kn", 5)), False),
        (_subdivided_with_path(make_family("kmn", 3, 3)), False),
        (_minus_first_edge(make_family("kn", 5)), True),
        (_minus_first_edge(make_family("kmn", 3, 3)), True),
        (PRISM, False),
    ], ids=["K5", "K3,3", "K5 subdivided", "K3,3 subdivided", "K5 - e", "K3,3 - e", "prism"])
    def test_the_count_stops_at_five_and_six_branch_vertices(self, g, counted):
        # A subdivided K5 has five vertices of degree 4 and a subdivided
        # K3,3 six of degree 3, so neither is counted, on the graph or on
        # its core; one edge fewer and they are.  The prism has six
        # vertices of degree 3 and is planar, so the planarity test decides
        # it (test_runs_once_where_the_cap_allows_the_sphere).
        core = embedding._core(g)[0]
        assert embedding._planar_by_count(core) == embedding._planar_by_count(g) == counted
        assert reference_is_planar(g) == counted or g is PRISM

    @pytest.mark.parametrize("graph6", ["E~z_", "Ev~_", "E~~?"])
    def test_nonplanar_cores_stop_at_genus_one(self, graph6):
        result = max_euler_characteristic(parse_graph6(graph6))
        side = result.orientable
        assert side.chi == 0 and side.certified
        assert 0 < side.nodes < 1000

    @pytest.mark.parametrize("g", [make_family("kn", 4), make_family("qd", 3),
                                   make_family("cn", 6), parse_graph6("E~v_"),
                                   parse_graph6("E]~o")],
                             ids=["K4", "Q3", "C6", "E~v_", "E]~o"])
    def test_planar_record_costs_no_steps(self, g):
        result = max_euler_characteristic(g, budget=0)
        assert result.chi == 2 and result.certified
        assert result.steps_used == 0
        assert result.nonorientable.chi == 1 and result.nonorientable.certified
        assert trace_faces(g, result.witness).chi == 2


class TestPlanarByRank:
    """A connected graph with ``m - n <= 2`` is planar before its core is built."""

    @staticmethod
    def cores_built(monkeypatch):
        calls = []
        core = embedding._core

        def counted(g):
            calls.append(g)
            return core(g)

        monkeypatch.setattr(embedding, "_core", counted)
        return calls

    def test_order_seven_and_the_pool(self, monkeypatch):
        # Cycle rank at most 3 holds no subdivided K3,3 (rank 4) or K5
        # (rank 6): chi 2 and 1 with no step, and the core is built only
        # for the witness, which re-traces to the sphere.
        pool = json.loads((PERFBENCH_DATA / "sparse_pool.json").read_text())["rows"]
        small = [g for g in enumerate_connected_graphs(7) if g.m <= g.n + 2]
        sparse = [g for g in (parse_graph6(row[1]) for row in pool) if g.m <= g.n + 2]
        assert (len(small), len(sparse)) == (305, 950)
        calls = self.cores_built(monkeypatch)
        for g in small + sparse:
            result = max_euler_characteristic(g, budget=0)
            assert (result.chi, result.certified, result.steps_used) == (2, True, 0)
            nonor = result.nonorientable
            assert (nonor.chi, nonor.certified) == (1, True)
            assert calls == [], g.edges()
            witness = result.witness
            assert calls == [g], g.edges()
            if g.m:  # K1 has no faces to trace
                traced = trace_faces(g, witness)
                assert traced.chi == 2 and traced.orientable, g.edges()
            calls.clear()

    def test_cycle_rank_four_builds_the_core(self, monkeypatch):
        graphs = [g for g in enumerate_connected_graphs(6) if g.m == g.n + 3]
        assert make_family("kmn", 3, 3) in graphs
        calls = self.cores_built(monkeypatch)
        for g in graphs:
            calls.clear()
            max_euler_characteristic(g)
            assert calls == [g], g.edges()
