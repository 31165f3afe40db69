import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bondlab import cli
from bondlab.graphs import enumerate_connected_graphs, make_family, emit_graph6, parse_graph6

from conftest import complete_tripartite, rotation_system_from_json, subdivided_with_pendants

DATA = Path(__file__).parent / "data"

# The named rows of chi_golden.json, in file order.
CHI_NAMED = {
    "K5": lambda: make_family("kn", 5),
    "K6": lambda: make_family("kn", 6),
    "K7": lambda: make_family("kn", 7),
    "K3,3": lambda: make_family("kmn", 3, 3),
    "K4,4": lambda: make_family("kmn", 4, 4),
    "K5,5": lambda: make_family("kmn", 5, 5),
    "Q3": lambda: make_family("qd", 3),
    "Q4": lambda: make_family("qd", 4),
    "K3,3,3": lambda: complete_tripartite(3),
    "Petersen": lambda: make_family("petersen"),
    "P6": lambda: make_family("pn", 6),
    "K5 subdivided, pendants": lambda: subdivided_with_pendants(make_family("kn", 5)),
    "projective, order 7": lambda: parse_graph6("F~zf?"),
    "not projective, order 8": lambda: parse_graph6("G~{x}?"),
}

# One member of each family: its `families` arguments, order and size.
FAMILY_ROWS = [
    (("kn", "5"), 5, 10),
    (("kmn", "2", "3"), 5, 6),
    (("cn", "5"), 5, 5),
    (("pn", "4"), 4, 3),
    (("petersen",), 10, 15),
    (("qd", "3"), 8, 12),
    (("wn", "5"), 6, 10),
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_matches_golden_file(self, capsys):
        code, out, _ = run(capsys, "table", "--chi-from", "-21", "--chi-to", "0")
        assert code == 0
        assert out == (DATA / "comparison_table_chi_-21_0.txt").read_text()

    def test_csv_matches_golden_file_to_minus_2000(self, capsys):
        code, out, _ = run(capsys, "table", "--chi-from", "-2000", "--chi-to", "0",
                           "--format", "csv")
        assert code == 0
        assert out == (DATA / "comparison_table_chi_-2000_0.csv").read_text()

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "table", "--chi-from", "-1", "--chi-to", "0", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "chi,baseline_term,improved_term"

    def test_bad_range_exits_one(self, capsys):
        code, _, err = run(capsys, "table", "--chi-from", "0", "--chi-to", "2")
        assert code == 1
        assert err.startswith("bondlab: error:")


class TestInvariants:
    def test_k33_values(self, capsys):
        g6 = emit_graph6(make_family("kmn", 3, 3))
        code, out, _ = run(capsys, "invariants", g6, "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert (data["gamma"], data["b"], data["bprime"]) == (2, 3, 5)

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
        code, out, _ = run(capsys, "invariants", "-")
        assert code == 0
        assert "b: 1" in out

    @pytest.mark.parametrize("command, graph", [("invariants", "A_"), ("verify", "-")])
    def test_bondage_cap_is_not_an_option(self, capsys, command, graph):
        # The witness search always runs to its proven limit.
        with pytest.raises(SystemExit) as exc:
            run(capsys, command, graph, "--bondage-cap=1")
        assert exc.value.code == 2
        assert "--bondage-cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["invariants", "chi"])
    def test_stdin_without_a_graph_exits_one(self, capsys, monkeypatch, command):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n  \n"))
        code, out, err = run(capsys, command)
        assert (code, out) == (1, "")
        assert err == "bondlab: error: no graph6 line on stdin\n"

    def test_text_output_shows_infinite_girth(self, capsys):
        code, out, _ = run(capsys, "invariants", emit_graph6(make_family("pn", 4)))
        lines = out.splitlines()
        assert code == 0
        assert "girth: inf" in lines and "connected: True" in lines

    def test_malformed_graph_exits_one(self, capsys):
        code, _, err = run(capsys, "invariants", "!!!")
        assert code == 1
        assert "bondlab: error:" in err


class TestChi:
    def test_k33_with_witness(self, capsys):
        g6 = emit_graph6(make_family("kmn", 3, 3))
        code, out, _ = run(capsys, "chi", g6, "--witness", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["chi"] == 1 and data["certified"]
        assert data["orientable"]["chi"] == 0
        from bondlab.embedding import trace_faces
        from bondlab.graphs import parse_graph6

        rs = rotation_system_from_json(data["witness"])
        assert trace_faces(parse_graph6(g6), rs).chi == 1

    def test_strict_budget_exit_three(self, capsys):
        g6 = emit_graph6(make_family("kmn", 3, 3))
        code, _, err = run(capsys, "chi", g6, "--budget", "10", "--strict")
        assert code == 3
        assert "budget" in err
        # K6 is decided in 67 orientable and 55 signed nodes, so a budget
        # of 50 stops its orientable side and one of 100 its signed side.
        for budget in ("50", "100"):
            code, out, err = run(capsys, "chi", "E~~w", "--budget", budget, "--strict")
            assert code == 3 and out == ""
            assert err == "bondlab: error: face-tracing budget exhausted in strict mode\n"

    def test_no_exhaustive_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "chi", "E~~w", "--exhaustive")
        assert exc.value.code == 2

    def test_negative_budget_uses_no_steps(self, capsys):
        code, out, _ = run(capsys, "chi", "E~~w", "--budget=-5", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["steps_used"] == 0 and data["chi"] is None

    def test_json_keys(self, capsys):
        code, out, _ = run(capsys, "chi", "E~~w", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert list(data) == ["graph6", "chi", "certified", "steps_used",
                              "orientable", "nonorientable"]
        assert list(data["orientable"]) == list(data["nonorientable"]) == ["chi", "certified"]

    def test_results_and_witnesses_match_golden(self, capsys):
        # chi_golden.json holds the parsed output of `chi --format json
        # --witness`, witness and steps_used included, for every graph with
        # an edge of order at most 6 (name null) and for named graphs; CI
        # feeds every row's graph6 to the console script.
        rows = json.loads((DATA / "chi_golden.json").read_text())
        corpus = [row["graph6"] for row in rows if row["name"] is None]
        assert corpus == [emit_graph6(g) for g in enumerate_connected_graphs(6) if g.m]
        named = {row["name"]: row["graph6"] for row in rows if row["name"] is not None}
        assert named == {name: emit_graph6(build()) for name, build in CHI_NAMED.items()}
        for row in rows:
            code, out, _ = run(capsys, "chi", row["graph6"], "--format", "json", "--witness")
            assert code == 0
            assert json.loads(out) == row["output"], row["name"] or row["graph6"]

    def test_orientable_only(self, capsys):
        g6 = emit_graph6(make_family("kn", 5))
        code, out, _ = run(capsys, "chi", g6, "--orientable-only", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["orientable"]["chi"] == 0
        assert data["nonorientable"] is None


class TestBounds:
    def test_explicit_parameters(self, capsys):
        code, out, _ = run(capsys, "bounds", "--delta", "4", "--chi", "-4", "--format", "json")
        data = json.loads(out)
        assert code == 0
        entries = {e["name"]: e for e in data["entries"]}
        assert entries["cubic"]["bound"] == 8
        assert entries["sqrt"]["bound"] == 9
        assert all("provenance" in e for e in data["entries"])

    def test_from_graph(self, capsys):
        g6 = emit_graph6(make_family("kmn", 4, 4))
        code, out, _ = run(capsys, "bounds", "--graph6", g6, "--format", "json")
        data = json.loads(out)
        assert code == 0
        entries = {e["name"]: e for e in data["entries"]}
        assert data["chi"] == 0
        assert entries["triangle_free"]["bound"] == 7
        assert entries["genus"]["applicable"]

    def test_json_matches_golden(self, capsys):
        # bounds_golden.json holds the parsed output of `bounds ... --format
        # json` for each argument list; CI feeds the same rows to the
        # console script.  Every value is exact, so none is a float.
        def values(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                return [leaf for child in node for leaf in values(child)]
            return [node]

        for row in json.loads((DATA / "bounds_golden.json").read_text()):
            code, out, _ = run(capsys, "bounds", *row["args"], "--format", "json")
            assert code == 0
            payload = json.loads(out)
            assert payload == row["output"], row["args"]
            assert not any(isinstance(v, float) for v in values(payload)), row["args"]

    def test_missing_parameters_exit_two(self, capsys):
        code, _, err = run(capsys, "bounds")
        assert code == 2
        assert "delta" in err

    def test_uncertified_chi_exit_three(self, capsys):
        # K6 needs 122 search nodes to certify its chi, 67 orientable and 55
        # signed, so a budget of 100 stops its signed side.
        code, out, err = run(capsys, "bounds", "--graph6", "E~~w", "--budget", "100")
        assert code == 3
        assert out == ""
        assert err.startswith("bondlab: error:") and "certify" in err

    def test_no_strict_flag(self, capsys):
        # bounds --graph6 exits 3 on any uncertified chi, so it has no --strict.
        with pytest.raises(SystemExit) as exc:
            run(capsys, "bounds", "--graph6", "E~~w", "--strict")
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--delta", "-1"], "maximum degree must be >= 0, got -1"),
        (["--girth", "2"], "girth must be >= 3 or infinite, got 2"),
        (["--n", "0"], "order must be positive, got 0"),
        (["--m", "-3"], "size must be >= 0, got -3"),
        (["--chi", "5"], "Euler characteristic must be <= 2, got 5"),
        (["--n", "3"], "maximum degree 3 exceeds n - 1 = 2"),
    ], ids=["delta", "girth", "n", "m", "chi", "delta-above-n"])
    def test_out_of_range_parameter_exits_one(self, capsys, flags, message):
        # chi 1 makes every chi row inapplicable, so no row reads the value:
        # the parameter alone is refused, not the formula it would feed.
        argv = ["bounds", "--delta", "3", "--chi", "1", *flags]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"bondlab: error: {message}\n"

    def test_huge_girth_reports_the_exact_bound(self, capsys):
        # The girth bound is exact at any size, far beyond the float range.
        code, out, err = run(capsys, "bounds", "--delta", "3", "--chi", "-1",
                             "--girth", str(10**200))
        assert code == 0 and err == ""
        girth = next(line for line in out.splitlines() if line.startswith("girth "))
        assert girth.split()[1:3] == ["bound=4", "term=1"]
        assert not any(line.startswith("detail") for line in out.splitlines())
        code, out, _ = run(capsys, "bounds", "--delta", "3", "--chi", "-1",
                           "--girth", str(10**200), "--format", "json")
        payload = json.loads(out)
        assert code == 0 and "details" not in payload
        assert {e["name"]: e["bound"] for e in payload["entries"]}["girth"] == 4

    @pytest.mark.parametrize("flag", [
        "--delta", "--chi", "--girth", "--n", "--m", "--genus-h", "--genus-k",
    ])
    def test_graph6_with_a_parameter_exits_two(self, capsys, flag):
        # --graph6 derives every parameter from K5; a given one would be
        # ignored, so it is a usage error.
        code, out, err = run(capsys, "bounds", "--graph6", emit_graph6(make_family("kn", 5)),
                             flag, "4")
        assert code == 2 and out == ""
        assert err == f"bondlab: error: --graph6 derives every parameter; drop {flag}\n"


class TestVerify:
    def test_family_file(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(
            "\n".join(
                emit_graph6(make_family(*family))
                for family in [("kn", 4), ("cn", 5), ("kmn", 2, 3)]
            )
            + "\n"
        )
        code, out, err = run(capsys, "verify", str(corpus), "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("graph6,n,m,delta,gamma,b,bprime,chi")
        assert len(out.splitlines()) == 4

    def test_warning_for_bprime_counterexample(self, capsys, tmp_path):
        corpus = tmp_path / "paths.g6"
        corpus.write_text(emit_graph6(make_family("pn", 4)) + "\n")
        code, _, err = run(capsys, "verify", str(corpus))
        assert code == 0
        assert "warning" in err and "b'" in err

    def test_exit_one_on_failure(self, capsys, monkeypatch, tmp_path):
        from bondlab.harness import CorpusSummary, TheoremCheck, VerificationRecord

        record = VerificationRecord(
            graph6="A_",
            checks=(TheoremCheck("cubic", True, 0, False, -1),),
        )
        summary = CorpusSummary(graphs=1, malformed=0, failures=1, per_check={})

        monkeypatch.setattr(cli, "verify_corpus", lambda *a, **k: ([record], summary))
        corpus = tmp_path / "one.g6"
        corpus.write_text("A_\n")
        code, _, _ = run(capsys, "verify", str(corpus), "--format", "csv")
        assert code == 1

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_skipped_graphs_are_not_malformed(self, capsys, tmp_path, fmt):
        # P41 is above the instance-size guard and "B?" has no edges; both
        # parse, so only the unparseable line counts as malformed.
        p41 = emit_graph6(make_family("pn", 41))
        corpus = tmp_path / "mixed.g6"
        corpus.write_text("\n".join([p41, emit_graph6(make_family("cn", 5)), "B?", "B~~"]) + "\n")
        code, out, _ = run(capsys, "verify", str(corpus), "--format", fmt)
        assert code == 0
        guard = "instance-size guard: n=41 exceeds limit 40"
        if fmt == "text":
            lines = out.splitlines()
            assert f"{p41:<12} skipped: {guard}" in lines
            assert f"{'B?':<12} skipped: graph has no edges" in lines
            assert any(line.startswith(f"{'B~~':<12} malformed: malformed graph6:")
                       for line in lines)
            assert "graphs=4 malformed=1 failures=0" in lines
        elif fmt == "csv":
            rows = list(csv.DictReader(io.StringIO(out)))
            assert [r["error"] for r in rows[:3]] == [guard, "", "graph has no edges"]
            assert rows[3]["error"].startswith("malformed graph6:")
        else:
            data = json.loads(out)
            assert [r["error"] for r in data["records"][:3]] == [guard, None, "graph has no edges"]
            assert data["summary"]["graphs"] == 4 and data["summary"]["malformed"] == 1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_strict_exits_three_on_an_uncertified_chi(self, capsys, tmp_path, threads):
        # K4 is certified planar without a step; K6 needs 122 search nodes.
        corpus = tmp_path / "k4k6.g6"
        corpus.write_text("C~\nE~~w\n")
        code, out, err = run(capsys, "verify", str(corpus), "--strict", "--budget", "100",
                             "--threads", threads)
        assert code == 3 and out == ""
        assert err == "bondlab: error: face-tracing budget exhausted in strict mode\n"
        code, out, _ = run(capsys, "verify", str(corpus), "--strict", "--threads", threads)
        assert code == 0 and "graphs=2 malformed=0 failures=0" in out

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_a_usage_error(self, capsys, tmp_path, threads):
        corpus = tmp_path / "k4.g6"
        corpus.write_text("C~\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", str(corpus), "--threads", threads])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"argument --threads: needs at least 1 worker, not {threads}" in captured.err

    @pytest.mark.parametrize("threads", ["two", "1.5", ""])
    def test_threads_not_a_whole_number_is_a_usage_error(self, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "-", "--threads", threads])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"argument --threads: invalid positive_int value: {threads!r}" in captured.err

    def test_stdin_corpus_matches_the_file(self, capsys, monkeypatch, tmp_path):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("C~\nB~~\n\nD~{\n")
        from_file = run(capsys, "verify", str(corpus), "--format", "csv")
        monkeypatch.setattr("sys.stdin", io.StringIO(corpus.read_text()))
        assert run(capsys, "verify", "--format", "csv") == from_file
        assert from_file[0] == 0 and len(from_file[1].splitlines()) == 4

    def test_empty_corpus_exits_zero(self, capsys, tmp_path):
        corpus = tmp_path / "empty.g6"
        corpus.write_text("")
        code, out, _ = run(capsys, "verify", str(corpus), "--format", "text")
        assert code == 0

    @pytest.mark.parametrize("name", ["missing.g6", ""], ids=["missing file", "directory"])
    def test_unreadable_corpus_is_one_error_line(self, capsys, tmp_path, name):
        # FileNotFoundError and IsADirectoryError are reported, not raised.
        code, out, err = run(capsys, "verify", str(tmp_path / name))
        assert (code, out) == (1, "")
        assert err.startswith("bondlab: error:") and err.count("\n") == 1


class TestEnumerateAndFamilies:
    def test_enumerate_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-n", "4")
        assert code == 0
        assert len(out.splitlines()) == 10

    def test_enumerate_matches_golden_file(self, capsys):
        # enumerate_6.g6 was written by the n!-permutation min-code
        # enumerator; perfbench's corpus6 references are keyed by its lines.
        code, out, _ = run(capsys, "enumerate", "--max-n", "6")
        assert code == 0
        assert out == (DATA / "enumerate_6.g6").read_text()

    def test_order_seven_extends_the_golden_file(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-n", "7")
        lines = out.splitlines(keepends=True)
        assert code == 0
        assert len(lines) == 996 and sum(line.startswith("F") for line in lines) == 853
        assert "".join(lines[:143]) == (DATA / "enumerate_6.g6").read_text()

    def test_enumerate_and_verify_import_no_numpy(self, tmp_path):
        corpus = tmp_path / "k33.g6"
        corpus.write_text(emit_graph6(make_family("kmn", 3, 3)) + "\n")
        script = (
            "import sys\n"
            "from bondlab import cli\n"
            "assert cli.main(['enumerate', '--max-n', '6']) == 0\n"
            f"assert cli.main(['verify', {str(corpus)!r}, '--threads', '1']) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
            "assert 'fractions' not in sys.modules, 'fractions was imported'\n"
            "assert 'cmath' not in sys.modules, 'cmath was imported'\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_enumerate_budget_exit_one(self, capsys):
        code, _, err = run(capsys, "enumerate", "--max-n", "9")
        assert code == 1
        assert "budget" in err

    def test_families_output_parses(self, capsys):
        from bondlab.graphs import parse_graph6

        code, out, _ = run(capsys, "families", "petersen")
        assert code == 0
        g = parse_graph6(out.strip())
        assert (g.n, g.m) == (10, 15)

    def test_families_bad_params(self, capsys):
        code, _, err = run(capsys, "families", "kn")  # missing parameter
        assert code == 1
        assert "parameter" in err

    @pytest.mark.parametrize("params, order, size", FAMILY_ROWS,
                             ids=[row[0][0] for row in FAMILY_ROWS])
    def test_every_family_emits_its_graph(self, capsys, params, order, size):
        code, out, err = run(capsys, "families", *params)
        g = parse_graph6(out.strip())
        assert code == 0 and err == ""
        assert (g.n, g.m) == (order, size)
        assert out == emit_graph6(make_family(params[0], *map(int, params[1:]))) + "\n"

    def test_family_rows_cover_every_family(self):
        from bondlab.graphs import FAMILY_NAMES

        assert sorted(row[0][0] for row in FAMILY_ROWS) == sorted(FAMILY_NAMES)

    @pytest.mark.parametrize("params", [("qd", "40"), ("kn", "100000"), ("pn", str(10**12))])
    def test_families_refuse_large_orders_before_building(self, capsys, params):
        # The order comes from the parameters alone; building Q40's edge
        # list, or even P(10^12)'s, would not finish.
        code, out, err = run(capsys, "families", *params)
        assert (code, out) == (1, "")
        assert err.startswith("bondlab: error: ") and "62 vertices" in err


class TestHelpAndEnvironment:
    def test_verify_help_documents_bound_columns(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("hartnell_rall", "cubic", "triangle_free", "order", "size"):
            assert name in out
        assert "largest root" in out

    @pytest.mark.parametrize("command", ["verify", "bounds"])
    def test_help_names_exactly_the_registry_rows(self, capsys, command):
        from bondlab import bounds
        from bondlab.harness import CHECK_NAMES

        expected = {"verify": list(CHECK_NAMES), "bounds": [r.name for r in bounds.REPORTED]}
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        out = capsys.readouterr().out
        epilog = out[out.index("and their formulas"):].splitlines()[1:]
        named = [line.split()[0] for line in epilog if line.startswith("  ")]
        assert named == expected[command]

    def test_environment_sets_no_worker_count(self, monkeypatch):
        monkeypatch.setenv("BONDLAB_THREADS", "3")
        assert cli.build_parser().parse_args(["verify", "x"]).threads == 1

    @pytest.mark.parametrize("argv", [
        ["--config", "x", "table", "--chi-from", "-1", "--chi-to", "0"],
        ["--config=x", "verify"],
        ["--conf=x", "verify"],
        ["invariants", "A_", "--config=x"],
        ["chi", "A_", "--config=x"],
        ["bounds", "--delta", "3", "--chi", "-1", "--config=x"],
        ["table", "--chi-from", "-1", "--chi-to", "0", "--config=x"],
        ["verify", "-", "--config=x"],
        ["enumerate", "--max-n", "3", "--config=x"],
        ["families", "kn", "3", "--config=x"],
    ], ids=["top-level", "top-level-equals", "abbreviated", "invariants", "chi", "bounds",
            "table", "verify", "enumerate", "families"])
    def test_config_is_an_unknown_option(self, capsys, argv):
        # No parser level reads a settings file, so argparse refuses the
        # line before any command runs.  Before a command, "x" is then read
        # as the command name.
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("usage: bondlab")
        assert ("invalid choice: 'x'" if argv[0] == "--config" else "--conf") in captured.err

    def test_a_command_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "the following arguments are required: command" in captured.err


class TestDeterminism:
    def test_verify_output_independent_of_threads(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(
            "\n".join(emit_graph6(make_family("cn", k)) for k in (3, 4, 5)) + "\n"
        )
        outputs = []
        for threads in ("1", "2"):
            code, out, _ = run(
                capsys, "verify", str(corpus), "--format", "csv", "--threads", threads
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
