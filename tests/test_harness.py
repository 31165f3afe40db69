import csv
import io
import json
import pickle
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondlab import bondage, cli, domination, embedding, graphs, harness
from bondlab.graphs import (
    GRAPH6_HEADER,
    Graph,
    emit_graph6,
    enumerate_connected_graphs,
    make_family,
    parse_graph6,
)
from bondlab.harness import (
    CHECK_NAMES,
    CSV_COLUMNS,
    REPORT_JSON_SCHEMA,
    VerificationRecord,
    emit_comparison_table,
    emit_report,
    verify_corpus,
    verify_graph,
)

from conftest import random_connected_graph

DATA = Path(__file__).parent / "data"


class TestVerifyGraph:
    def test_two_domination_solves_per_connected_record(self, monkeypatch):
        # One on G inside bondage_number, which lists every minimum
        # dominating set and whose gamma the record reuses, and one on G - S
        # to certify the witness.
        calls = []
        original = domination._deepen

        def counted(g, first=False):
            calls.append(g)
            return original(g, first)

        monkeypatch.setattr(domination, "_deepen", counted)
        g = make_family("kmn", 3, 3)
        rec = verify_graph(g)
        assert len(calls) == 2
        assert calls[0] == g
        assert calls[1].m == g.m - rec.b

    @pytest.mark.parametrize("pendants", [0, 1])
    def test_graph_invariants_once_per_connected_record(self, monkeypatch, pendants):
        # The record's own graph gets one connectivity closure, one edge
        # listing, one degree scan and one girth search, however many layers
        # read them.  K3,3 is its own core; with a pendant vertex its core is
        # another graph, whose two searched sides take its girth once.
        # Graphs are told apart by their mask tuple, which each graph owns.
        k33 = make_family("kmn", 3, 3)
        g = Graph.from_edges(6 + pendants, k33.edges() + [(0, 6)] * pendants)
        calls = []
        for name in ("_closure", "_edge_list", "_shortest_cycle"):
            original = getattr(graphs, name)

            def counted(adjacency, *rest, name=name, original=original):
                calls.append((name, adjacency))
                return original(adjacency, *rest)

            monkeypatch.setattr(graphs, name, counted)
        stats = graphs.DegreeStats

        def counted_stats(**kwargs):
            calls.append(("DegreeStats", None))
            return stats(**kwargs)

        monkeypatch.setattr(graphs, "DegreeStats", counted_stats)
        rec = verify_graph(g)
        assert rec.chi == 1 and rec.connected and rec.girth == 4

        def count(name):
            return sum(1 for called, adjacency in calls if called == name and adjacency is g.adjacency)

        assert [count(name) for name in ("_closure", "_edge_list", "_shortest_cycle")] == [1, 1, 1]
        assert calls.count(("DegreeStats", None)) == 1
        searched = [adjacency for called, adjacency in calls if called == "_shortest_cycle"]
        assert sorted(searched) == sorted([g.adjacency, k33.adjacency][:1 + pendants])

    def test_hartnell_rall_bound_once_per_record(self, monkeypatch):
        # Connected records read the edge bound off the b' proxy.
        calls = []
        for module in (harness, bondage):
            original = module.hartnell_rall_bound

            def counted(g, original=original):
                calls.append(g)
                return original(g)

            monkeypatch.setattr(module, "hartnell_rall_bound", counted)
        triangle_and_edge = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        for g in (make_family("kmn", 3, 3), triangle_and_edge):
            calls.clear()
            verify_graph(g)
            assert calls == [g]

    def test_balanced_bipartite_four(self):
        rec = verify_graph(make_family("kmn", 4, 4))
        assert (rec.chi, rec.delta, rec.b, rec.b_prime, rec.gamma) == (0, 4, 4, 7, 2)
        cubic = rec.check("cubic")
        assert cubic.bound_value == 7 and cubic.satisfied
        tf = rec.check("triangle_free")
        assert tf.bound_value == 7 and tf.satisfied
        # The proxy meets the cubic bound with equality: slack zero.
        assert rec.check("cubic_bprime").slack == 0
        assert not rec.failures

    def test_k6_uses_certified_orientable_genus(self):
        rec = verify_graph(make_family("kn", 6))
        genus = rec.check("genus")
        assert rec.chi_orientable == 0 and rec.chi_nonorientable == 1
        assert genus.hypothesis_met and genus.satisfied
        # Orientable genus 1 gives delta + h + 2 = 5 + 1 + 2; non-orientable
        # genus 1 gives delta + k + 1 = 5 + 1 + 1, the smaller.
        assert genus.bound_value == 7 and rec.b == 3
        # chi = 1 is certified, and the chi <= 0 bounds are skipped.
        assert rec.chi_certified and rec.chi == 1
        assert rec.check("cubic").satisfied is None

    def test_tree_gets_acyclic_rule(self):
        rec = verify_graph(make_family("pn", 6))
        acyclic = rec.check("acyclic")
        assert acyclic.hypothesis_met and acyclic.satisfied
        assert rec.girth is None
        assert rec.check("girth").satisfied is None

    def test_bprime_audit_flags_path_four(self):
        rec = verify_graph(make_family("pn", 4))
        assert rec.b == 2 and rec.b_prime == 1
        assert rec.b_exceeds_bprime is True
        assert not rec.failures  # the audit is not a theorem failure

    def test_disconnected_graph_skips_connected_only_checks(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        rec = verify_graph(g)
        assert not rec.connected
        assert rec.b == 1  # the K_2 component
        assert rec.b_prime is None
        assert rec.check("average_degree").satisfied is None
        assert rec.check("hartnell_rall").satisfied is True

    def test_requires_an_edge(self):
        with pytest.raises(ValueError):
            verify_graph(Graph(2, [0, 0]))

    def test_satisfied_never_false_on_families(self):
        for family in [("kn", 5), ("kmn", 3, 3), ("cn", 7), ("qd", 3), ("wn", 4)]:
            rec = verify_graph(make_family(*family))
            assert not rec.failures, family

    def test_slack_nonnegative_when_satisfied(self):
        rec = verify_graph(make_family("petersen"))
        for check in rec.checks:
            if check.satisfied:
                assert check.slack is None or check.slack >= 0

    def test_records_reproducible_run_to_run(self):
        g = make_family("kmn", 3, 3)
        assert verify_graph(g) == verify_graph(g)


def _certified_search(chi):
    """A chi search result that certifies ``chi`` on both sides."""

    def side(value):
        return SimpleNamespace(chi=value, certified=True)

    return SimpleNamespace(chi=chi, certified=True,
                           orientable=side(chi - chi % 2), nonorientable=side(chi))


class TestForcedChi:
    """Every check decided, FAIL verdicts included, under a stubbed chi search.

    No graph of the benchmark corpora has a certified chi <= 0, so this is
    what exercises the chi-dependent checks end to end.  The golden file
    was written by the registry-free verifier that preceded the registry.
    """

    FAMILIES = [("kmn", 3, 3), ("qd", 3), ("petersen",), ("kn", 5), ("wn", 5),
                ("cn", 6), ("kmn", 4, 4), ("pn", 5)]

    def test_matches_golden_csv(self, monkeypatch):
        records = []
        for chi in (0, -1, -3, -6):
            monkeypatch.setattr(
                harness, "max_euler_characteristic",
                lambda g, budget, chi=chi: _certified_search(chi),
            )
            records += [verify_graph(make_family(*f)) for f in self.FAMILIES]
        golden = (DATA / "verify_forced_chi.csv").read_text()
        assert emit_report(records, "csv") == golden
        assert "FAIL" in golden

    @pytest.mark.parametrize("fmt, golden", [("json", "verify_forced_chi.json"),
                                             ("text", "verify_forced_chi.txt")])
    def test_matches_golden_json_and_text(self, monkeypatch, fmt, golden):
        # Written by the verifier that listed every report key by hand.
        records = []
        for chi in (0, -1, -3, -6):
            monkeypatch.setattr(
                harness, "max_euler_characteristic",
                lambda g, budget, chi=chi: _certified_search(chi),
            )
            records += [verify_graph(make_family(*f)) for f in self.FAMILIES]
        assert emit_report(records, fmt) == (DATA / golden).read_text()

    def test_cubic_rows_share_one_value(self, monkeypatch):
        # cubic and cubic_bprime are two targets of one value.
        monkeypatch.setattr(
            harness, "max_euler_characteristic",
            lambda g, budget: _certified_search(-3),
        )
        rec = verify_graph(make_family("petersen"))
        assert rec.check("cubic").bound_value == rec.check("cubic_bprime").bound_value == 7


class TestVerifyCorpus:
    def test_cli_csv_on_corpus6_matches_golden(self, capsys, monkeypatch):
        # The real chi search, end to end: stdout of
        # `bondlab enumerate --max-n 6 | bondlab verify --format csv`.
        assert cli.main(["enumerate", "--max-n", "6"]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        assert cli.main(["verify", "--format", "csv"]) == 0
        assert capsys.readouterr().out == (DATA / "verify_corpus6.csv").read_text()

    def test_builds_no_witness(self, monkeypatch):
        # verify reads chi values only, so no witness is lifted to the graph,
        # though the search certifies every corpus6 graph.
        lifted = []
        lift = embedding._lift_witness

        def counted(*args, **kwargs):
            lifted.append(args)
            return lift(*args, **kwargs)

        monkeypatch.setattr(embedding, "_lift_witness", counted)
        lines = (DATA / "enumerate_6.g6").read_text().splitlines()
        records, _ = verify_corpus(lines)
        assert all(r.chi_certified for r in records if r.error is None)
        assert lifted == []
        assert embedding.max_euler_characteristic(parse_graph6(lines[-1])).witness is not None
        assert len(lifted) == 1

    @pytest.mark.parametrize("name", ["verify_corpus6.csv", "verify_corpus7.csv",
                                      "verify_sparse_pool.csv"])
    def test_record_graph6_is_the_parsed_line(self, monkeypatch, name):
        # A verified record keeps the line it parsed, header dropped, as its
        # graph6; on every corpus line, with and without the header, that is
        # what emit_graph6 writes of the parsed graph.  (Records with an
        # error drop the header too; see the test below.)  Only the text is
        # checked here, so the rest is left unbuilt.
        monkeypatch.setattr(harness, "_verify",
                            lambda g, graph6, budget: VerificationRecord(graph6=graph6))
        lines = [line.split(",", 1)[0] for line in (DATA / name).read_text().splitlines()[1:]]
        want = [emit_graph6(parse_graph6(line)) for line in lines if parse_graph6(line).m]
        assert len(want) >= len(lines) - 1
        for prefix in ("", GRAPH6_HEADER):
            records, _ = verify_corpus([prefix + line for line in lines])
            assert [r.graph6 for r in records if r.error is None] == want

    def test_header_lines_give_the_records_of_bare_lines(self):
        # A record's graph6 is its line without the header, whether it is
        # verified, skipped or malformed.  A refusal's byte offset counts
        # into the line as given, so it moves by the header's length.
        lines = ["@", "B~~", "A_x", "A_\x01", emit_graph6(make_family("pn", 41)), "C~"]
        bare, _ = verify_corpus(lines)
        headed, _ = verify_corpus([GRAPH6_HEADER + line for line in lines])
        assert [r.error is None for r in bare] == [False] * 5 + [True]
        for plain, prefixed in zip(bare, headed):
            error = plain.error
            if error is not None and error.startswith("malformed graph6:"):
                head, offset = error.rstrip(")").rsplit(" (byte ", 1)
                error = f"{head} (byte {int(offset) + len(GRAPH6_HEADER)})"
            assert prefixed == replace(plain, error=error)

    def test_header_lines_give_the_golden_report(self):
        # What CI pipes through the console script: the sparse pool's lines
        # with the graph6 header give its golden report.
        lines = (DATA / "verify_sparse_pool.csv").read_text().splitlines(keepends=True)
        records, _ = verify_corpus([GRAPH6_HEADER + line.split(",", 1)[0] for line in lines[1:]])
        assert emit_report(records, "csv") == "".join(lines)

    def test_malformed_lines_do_not_abort(self):
        records, summary = verify_corpus(["A_", "not-a-graph\x01", "", "Bw"])
        assert summary.graphs == 3  # blank line dropped
        assert summary.malformed == 1
        assert summary.failures == 0
        assert records[1].error is not None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_graph_above_the_vertex_limit_does_not_abort(self, jobs):
        lines = [emit_graph6(make_family("pn", 41)), emit_graph6(make_family("cn", 5))]
        records, summary = verify_corpus(lines, jobs=jobs)
        assert records[0].error == "instance-size guard: n=41 exceeds limit 40"
        assert records[1].error is None and records[1].chi == 2
        # Its graph6 line is valid, so it is skipped, not malformed.
        assert summary.graphs == 2 and summary.malformed == 0

    def test_empty_corpus(self):
        records, summary = verify_corpus([])
        assert records == [] and summary.graphs == 0 and summary.failures == 0

    def test_thread_count_does_not_change_records(self):
        lines = [emit_graph6(make_family("cn", k)) for k in range(3, 7)]
        serial, _ = verify_corpus(lines)
        parallel, _ = verify_corpus(lines, jobs=3)
        assert serial == parallel

    @pytest.mark.parametrize("lines, jobs, pools", [
        (0, 10**6, []),
        (1, 10**6, []),
        (2, 10**6, [2]),
        (3, 10**6, [3]),
        (4, 4, [4]),
        (5, 2, [2]),
        (5, 1, []),
    ])
    def test_workers_never_outnumber_lines(self, monkeypatch, lines, jobs, pools):
        # The fake pool records the worker count it is asked for and maps
        # serially, so no process starts however many jobs are asked for.
        # A corpus of one line, or none, builds no pool at all.
        asked = []

        class FakePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        corpus = [emit_graph6(make_family("cn", k)) for k in range(3, 3 + lines)]
        serial, _ = verify_corpus(corpus)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        records, _ = verify_corpus(corpus, jobs=jobs)
        assert asked == pools and records == serial

    def test_blank_lines_start_no_worker(self, monkeypatch):
        asked = []
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            lambda max_workers: asked.append(max_workers))
        records, _ = verify_corpus(["", "C~", " ", "\t"], jobs=10**6)
        assert asked == [] and records == verify_corpus(["C~"])[0]

    def test_counterexample_collection(self):
        _, summary = verify_corpus([emit_graph6(make_family("pn", 7))])
        assert summary.bprime_counterexamples == (emit_graph6(make_family("pn", 7)),)

    def test_family_corpus_has_zero_failures(self):
        families = (
            [("kn", 4), ("kn", 5), ("kn", 6), ("kmn", 3, 3), ("kmn", 4, 4), ("petersen",)]
            + [("cn", k) for k in range(3, 9)]
            + [("pn", k) for k in range(2, 9)]
            + [("qd", 3)]
        )
        lines = [emit_graph6(make_family(*f)) for f in families]
        _, summary = verify_corpus(lines)
        assert summary.failures == 0
        assert summary.malformed == 0
        # The floored-proxy audit trips exactly on the two known paths.
        assert set(summary.bprime_counterexamples) == {
            emit_graph6(make_family("pn", 4)),
            emit_graph6(make_family("pn", 7)),
        }


class TestCorpus7Golden:
    """``verify_corpus7.csv``: `verify --format csv` over the 853 graphs of order 7.

    It was written by `bondlab enumerate --max-n 7 | grep '^F' | bondlab
    verify --format csv`; CI compares the whole file through the console
    script, and these tests read what it says about the paper's theorem.
    """

    @pytest.fixture(scope="class")
    def lines(self):
        return (DATA / "verify_corpus7.csv").read_text().splitlines(keepends=True)

    @pytest.fixture(scope="class")
    def rows(self, lines):
        return list(csv.DictReader(lines))

    def test_every_graph_is_certified(self, rows):
        assert len(rows) == len({r["graph6"] for r in rows}) == 853
        for r in rows:
            assert (r["n"], r["connected"], r["chi_certified"], r["error"]) == ("7", "True", "True", ""), r

    def test_seven_graphs_have_chi_zero_and_the_cubic_bound_holds_on_them(self, rows):
        zero = [r for r in rows if r["chi"] == "0"]
        assert len(zero) == 7
        assert {r["chi"] for r in rows} == {"0", "1", "2"}
        for r in zero:
            # At chi = 0 the cubic bound is Delta + 3.
            assert r["cubic_bound"] == str(int(r["delta"]) + 3), r["graph6"]
            assert r["cubic_ok"] == "ok" and int(r["b"]) <= int(r["cubic_bound"]), r["graph6"]

    def test_every_eighth_row_is_reproduced(self, lines):
        picked = lines[1::8]
        records, _ = verify_corpus([line.split(",", 1)[0] for line in picked])
        assert emit_report(records, "csv") == lines[0] + "".join(picked)


@pytest.fixture(scope="module")
def sparse_pool():
    """The lines of verify_sparse_pool.csv and the records of its graphs."""
    lines = (DATA / "verify_sparse_pool.csv").read_text().splitlines(keepends=True)
    return lines, verify_corpus([line.split(",", 1)[0] for line in lines[1:]])


def test_sparse_pool_report_matches_golden(sparse_pool):
    # verify_sparse_pool.csv is `verify --format csv` over the graph6 lines of
    # perfbench/data/sparse_pool.json, 2,000 connected graphs with n 8-14 on
    # which bondage and its domination solves are most of the cost; CI
    # compares it through the console script as well.  Its JSON report, where
    # the same checks repeat by the thousand, must be what json.dumps writes.
    lines, (records, summary) = sparse_pool
    assert len(lines) == 2001
    assert emit_report(records, "csv") == "".join(lines)
    assert emit_report(records, "json", summary) == TestEmitReport._dumps(records, summary)


def test_disconnected_report_matches_golden():
    # verify_disconnected.csv is `verify --format csv` over every disjoint
    # union G + H of connected graphs on at most 6 vertices, G listed no
    # later than H, with n(G) + n(H) <= 7 and an edge: the records that take
    # bondage_number's componentwise path.  CI compares it through the
    # console script as well.  Each b is the least b of a component with an
    # edge, as verify_corpus6.csv gives it.
    lines = (DATA / "verify_disconnected.csv").read_text().splitlines(keepends=True)
    graphs = list(enumerate_connected_graphs(6))
    pairs = [(g, h) for i, g in enumerate(graphs) for h in graphs[i:]
             if g.n + h.n <= 7 and g.m + h.m]
    unions = [Graph.from_edges(g.n + h.n, g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()])
              for g, h in pairs]
    assert [line.split(",", 1)[0] for line in lines[1:]] == [emit_graph6(u) for u in unions]
    assert len(unions) == 187
    records, _ = verify_corpus([emit_graph6(u) for u in unions])
    assert emit_report(records, "csv") == "".join(lines)
    b = {r["graph6"]: r["b"] for r in csv.DictReader((DATA / "verify_corpus6.csv").read_text().splitlines())}
    for (g, h), rec in zip(pairs, records):
        assert rec.connected is False and rec.error is None
        assert rec.b == min(int(b[emit_graph6(c)]) for c in (g, h) if c.m), rec.graph6


@pytest.fixture(scope="module")
def sample():
    lines = ["A_", "Ch", "bogus(", "D?{"]
    return verify_corpus(lines)


class TestEmitReport:

    def test_csv_header_prefix_and_shape(self, sample):
        records, summary = sample
        out = emit_report(records, "csv", summary)
        lines = out.splitlines()
        assert lines[0].startswith("graph6,n,m,delta,gamma,b,bprime,chi")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(records)

    def test_csv_is_rfc4180_parseable(self, sample):
        import csv
        import io

        records, summary = sample
        rows = list(csv.reader(io.StringIO(emit_report(records, "csv", summary))))
        assert all(len(row) == len(CSV_COLUMNS) for row in rows)

    def test_json_roundtrips_schema(self, sample):
        records, summary = sample
        payload = json.loads(emit_report(records, "json", summary))
        jsonschema.validate(payload, REPORT_JSON_SCHEMA)
        assert payload["summary"]["graphs"] == summary.graphs
        assert [r["graph6"] for r in payload["records"]] == [r.graph6 for r in records]

    def test_json_keys_are_the_schema_properties(self, sample):
        records, summary = sample
        payload = json.loads(emit_report(records, "json", summary))
        schema = REPORT_JSON_SCHEMA["properties"]
        record_schema = schema["records"]["items"]
        check_schema = record_schema["properties"]["checks"]["items"]
        assert list(payload["summary"]) == list(schema["summary"]["properties"])
        checks = [c for r in payload["records"] for c in r["checks"]]
        assert checks and any(r["error"] for r in payload["records"])
        for record in payload["records"]:
            assert list(record) == list(record_schema["properties"])
        for check in checks:
            assert list(check) == list(check_schema["properties"])

    def test_csv_header_is_the_record_keys_in_csv_order(self, sample):
        records, summary = sample
        keys = json.loads(emit_report(records, "json", summary))["records"][0]
        lead = ["graph6", "n", "m", "delta", "gamma", "b", "bprime", "chi"]
        rest = [key for key in keys if key not in lead and key != "checks"]
        assert CSV_COLUMNS[:len(CSV_COLUMNS) - 2 * len(CHECK_NAMES)] == lead + rest

    def test_unknown_field_annotation_rejected(self):
        @dataclass
        class Scored:
            score: "float"  # the report dataclasses postpone annotations to strings

        with pytest.raises(KeyError, match="float"):
            harness._object_schema(Scored)

    @staticmethod
    def _dumps(records, summary):
        """The report as ``json.dumps`` writes a payload built by ``asdict``."""
        def report_dict(rec):
            out = {("bprime" if k == "b_prime" else k): v for k, v in asdict(rec).items()}
            out["checks"] = [asdict(c) for c in rec.checks]
            return out

        payload = {
            "records": [report_dict(r) for r in records],
            "summary": {
                "graphs": summary.graphs,
                "malformed": summary.malformed,
                "failures": summary.failures,
                "per_check": summary.per_check,
                "bprime_counterexamples": list(summary.bprime_counterexamples),
            },
        }
        return json.dumps(payload, indent=2) + "\n"

    def _assert_json_as_dumps(self, records):
        summary = harness._summarize(records)
        want = self._dumps(records, summary)
        assert emit_report(records, "json", summary) == want
        assert emit_report(records, "json") == want

    def test_json_as_dumps_on_corpus6(self):
        lines = [emit_graph6(g) for g in enumerate_connected_graphs(6) if g.m > 0]
        self._assert_json_as_dumps(verify_corpus(lines)[0])

    def test_json_as_dumps_on_empty_and_malformed_records(self, sample):
        self._assert_json_as_dumps([])
        malformed, _ = verify_corpus(['a"b\\c', "\\\\", "\u00e9x"])
        quoted = [VerificationRecord(graph6='D\\"{', error='malformed graph6: "\\" \u00e9 \t'),
                  VerificationRecord(graph6="", error="")]
        self._assert_json_as_dumps(malformed + quoted + sample[0])

    def test_json_as_dumps_on_records_that_share_no_checks(self, sparse_pool):
        # Verified records share their checks, but the report must not rely
        # on it: records pickled back one by one, as from --threads workers,
        # or whose checks dataclasses.replace rebuilds share none, and must
        # give the same report.
        records = sparse_pool[1][0]
        pickled = [pickle.loads(pickle.dumps(r)) for r in records]
        rebuilt = [replace(r, checks=tuple(replace(c) for c in r.checks)) for r in records]
        first = {}
        i, j = next((first[r.checks], k) for k, r in enumerate(records)
                    if first.setdefault(r.checks, k) != k)
        assert records[i].checks is records[j].checks
        for copy in (pickled, rebuilt):
            assert copy[i].checks == copy[j].checks
            assert not any(a is b for a, b in zip(copy[i].checks, copy[j].checks))
            self._assert_json_as_dumps(copy)

    @given(st.integers(min_value=2, max_value=7), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_json_as_dumps_on_random_graphs(self, n, rng):
        g = random_connected_graph(rng, n, extra=rng.random())
        self._assert_json_as_dumps([verify_graph(g, budget=10**5)])

    def test_json_key_order_stable(self, sample):
        records, summary = sample
        first = emit_report(records, "json", summary)
        second = emit_report(records, "json", summary)
        assert first == second

    def test_text_mentions_failure_free_status(self, sample):
        records, summary = sample
        text = emit_report(records, "text", summary)
        assert "ok" in text and "graph6" in text

    def test_unknown_format_rejected(self, sample):
        records, summary = sample
        with pytest.raises(ValueError):
            emit_report(records, "yaml", summary)


class TestComparisonTable:
    def test_text_matches_golden_file(self):
        golden = (DATA / "comparison_table_chi_-21_0.txt").read_text()
        assert emit_comparison_table(-21, 0, "text") == golden

    def test_csv_form(self):
        out = emit_comparison_table(-2, 0, "csv")
        assert out.splitlines() == [
            "chi,baseline_term,improved_term",
            "-2,4,4",
            "-1,3,3",
            "0,3,3",
        ]
