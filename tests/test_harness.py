import io
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondlab import bondage, cli, harness
from bondlab import bounds as bnd
from bondlab.graphs import Graph, emit_graph6, enumerate_connected_graphs, make_family
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
        # One on G inside bondage_number, whose gamma the record reuses, and
        # one on G - S to certify the witness.
        graphs = []
        for module in (harness, bondage):
            original = module.domination_number

            def counted(g, original=original):
                graphs.append(g)
                return original(g)

            monkeypatch.setattr(module, "domination_number", counted)
        g = make_family("kmn", 3, 3)
        rec = verify_graph(g)
        assert graphs[0] == g and len(graphs) == 2
        assert graphs[1].m == g.m - rec.b
        assert rec.gamma == 2

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
                lambda g, budget, strict, chi=chi: _certified_search(chi),
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
                lambda g, budget, strict, chi=chi: _certified_search(chi),
            )
            records += [verify_graph(make_family(*f)) for f in self.FAMILIES]
        assert emit_report(records, fmt) == (DATA / golden).read_text()

    def test_cubic_bound_evaluated_once_per_record(self, monkeypatch):
        # cubic and cubic_bprime share one value.
        calls = []
        original = bnd.bound_cubic

        def counted(delta, chi):
            calls.append((delta, chi))
            return original(delta, chi)

        monkeypatch.setattr(bnd, "bound_cubic", counted)
        monkeypatch.setattr(
            harness, "max_euler_characteristic",
            lambda g, budget, strict: _certified_search(-3),
        )
        rec = verify_graph(make_family("petersen"))
        assert calls == [(3, -3)]
        assert rec.check("cubic").bound_value == rec.check("cubic_bprime").bound_value == 7


class TestVerifyCorpus:
    def test_cli_csv_on_corpus6_matches_golden(self, capsys, monkeypatch):
        # The real chi search, end to end: stdout of
        # `bondlab enumerate --max-n 6 | bondlab verify --format csv`.
        assert cli.main(["enumerate", "--max-n", "6"]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        assert cli.main(["verify", "--format", "csv"]) == 0
        assert capsys.readouterr().out == (DATA / "verify_corpus6.csv").read_text()

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
        assert records == [] and summary.graphs == 0 and summary.ok

    def test_thread_count_does_not_change_records(self):
        lines = [emit_graph6(make_family("cn", k)) for k in range(3, 7)]
        serial, _ = verify_corpus(lines)
        parallel, _ = verify_corpus(lines, jobs=3)
        assert serial == parallel

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
        assert emit_report(records, "json", summary) == self._dumps(records, summary)
        assert emit_report(records, "json") == self._dumps(records, summary)

    def test_json_as_dumps_on_corpus6(self):
        lines = [emit_graph6(g) for g in enumerate_connected_graphs(6) if g.m > 0]
        self._assert_json_as_dumps(verify_corpus(lines)[0])

    def test_json_as_dumps_on_empty_and_malformed_records(self, sample):
        self._assert_json_as_dumps([])
        malformed, _ = verify_corpus(['a"b\\c', "\\\\", "\u00e9x"])
        quoted = [VerificationRecord(graph6='D\\"{', error='malformed graph6: "\\" \u00e9 \t'),
                  VerificationRecord(graph6="", error="")]
        self._assert_json_as_dumps(malformed + quoted + sample[0])

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
