import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondlab import embedding
from bondlab.embedding import RotationSystem, max_euler_characteristic, trace_faces
from bondlab.graphs import Graph, enumerate_connected_graphs, make_family, parse_graph6
from bondlab.planarity import planar_rotations

from conftest import SchemeSpace, random_connected_graph, reference_is_planar, reference_sweep


@pytest.fixture(scope="module")
def corpus6():
    return [g for g in enumerate_connected_graphs(6) if g.m > 0]


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
        # A core whose face-length cap is below 2 (K5, K6, Petersen) is not
        # tested for planarity; a tree has no core to test.
        calls = []
        step = embedding.planar_rotations

        def recorded(core):
            calls.append(core)
            return step(core)

        monkeypatch.setattr(embedding, "planar_rotations", recorded)
        skipped = 0
        for g in corpus6[::7] + [make_family("qd", 3), make_family("kn", 5),
                                 make_family("kn", 6), make_family("petersen"),
                                 make_family("pn", 5)]:
            calls.clear()
            max_euler_characteristic(g, budget=10**5)
            core = embedding._core(g)[0]
            allows = core.m > 0 and embedding._face_length_upper_bound(core) == 2
            assert calls == ([core] if allows else []), g.edges()
            skipped += not allows
        assert skipped >= 4

    @pytest.mark.parametrize("graph6", ["E~z_", "Ev~_", "E~~?"])
    def test_nonplanar_cores_stop_at_genus_one(self, graph6):
        result = max_euler_characteristic(parse_graph6(graph6))
        side = result.orientable
        assert side.chi == 0 and side.certified
        assert side.searched == 0 and 0 < side.nodes < 1000

    @pytest.mark.parametrize("g", [make_family("kn", 4), make_family("qd", 3),
                                   make_family("cn", 6), parse_graph6("E~v_"),
                                   parse_graph6("E]~o")],
                             ids=["K4", "Q3", "C6", "E~v_", "E]~o"])
    def test_planar_record_costs_no_steps(self, g):
        result = max_euler_characteristic(g, budget=0, strict=True)
        assert result.chi == 2 and result.certified
        assert result.orientable.searched == 0 and result.steps_used == 0
        assert result.nonorientable.chi == 1 and result.nonorientable.certified
        assert trace_faces(g, result.witness).chi == 2
