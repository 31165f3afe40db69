"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They check that the effort counters and ratios repeat exactly for one seed,
that relabelling leaves every exact value unchanged, that the output check
rejects wrong values, and that the benchmark refuses to run without the
sources.  Inputs are trimmed so the file runs in about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

from bondlab.harness import verify_graph  # noqa: E402

TRIM = {"corpus6": 40, "bondage-stress": 3, "sparse-random": 150, "bounds-grid": 1500}


def traced_counts(name: str, seed: int) -> dict:
    work = run.Workload(name, seed)
    inputs = work.build()[0]
    if work.is_graph:
        keep = TRIM[name]
        inputs = dataclasses.replace(inputs, keys=inputs.keys[:keep],
                                     lines=inputs.lines[:keep], graph_list=inputs.graph_list[:keep])
    else:
        inputs = dataclasses.replace(inputs, sets=inputs.sets[:TRIM[name]])
    tracer = Tracer()
    counters = run.EmbeddingCounters()
    run.install_tracer(tracer, counters, run.ReportBytes())
    try:
        p = work.one_pass(inputs, tracer)
    finally:
        tracer.unwrap()
    work.check_pass(inputs, p)
    assert work.failures == []
    return {
        "steps": counters.steps,
        "or_schemes": counters.or_schemes,
        "nonor_schemes": counters.nonor_schemes,
        "domination.calls": tracer.calls("domination.domination_number"),
        "remove_edges_calls": tracer.calls("graphs.remove_edges"),
        "bounds.calls": tracer.layer_outer("bounds")[0],
        "ratios": work.ratios(p),
        "failed": len(work.failures),
    }


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counters_repeat_for_one_seed(name):
    first = traced_counts(name, 3)
    assert first == traced_counts(name, 3)
    busy = {"corpus6": "steps", "bondage-stress": "remove_edges_calls",
            "sparse-random": "domination.calls", "bounds-grid": "bounds.calls"}[name]
    assert first[busy] > 0


def test_tracer_restores_functions():
    from bondlab import harness
    from bondlab.graphs import Graph

    before = (harness.verify_corpus, Graph.remove_edges)
    tracer = Tracer()
    run.install_tracer(tracer, run.EmbeddingCounters(), run.ReportBytes())
    assert harness.verify_corpus is not before[0]
    tracer.unwrap()
    assert (harness.verify_corpus, Graph.remove_edges) == before


def test_relabelling_keeps_exact_values_on_corpus6():
    data = W.load_json("corpus6.json")
    refs = check.graph_refs(data)
    enumerated = W.corpus6_graphs()
    identity = W.corpus6(0, enumerated)[1]
    moved = W.corpus6(11, enumerated)[1]
    before = dict(zip(identity.keys, identity.lines))
    after = dict(zip(moved.keys, moved.lines))
    assert sorted(after) == sorted(before) and len(after) == 142
    assert before == {key: key for key in before}  # seed 0 keeps the labels
    assert sum(after[key] != key for key in after) > 100
    for key, g in zip(moved.keys, moved.graph_list):
        rec = verify_graph(g, budget=200_000)
        ref = refs[key]
        assert (rec.gamma, rec.b) == (ref.gamma, ref.b), key
        for got, want in ((rec.chi, ref.chi), (rec.chi_orientable, ref.chi_orientable),
                          (rec.chi_nonorientable, ref.chi_nonorientable)):
            assert got is None or got == want, key


def test_check_rejects_wrong_values():
    data = W.load_json("bondage_stress.json")
    refs = check.graph_refs(data)
    g = W.stress_graph("Q4")
    rec = verify_graph(g, budget=W.BUDGETS["bondage-stress"])
    assert check.check_record(rec, refs["Q4"], data["checks"], g, 1000) is None
    assert check.check_record(dataclasses.replace(rec, b=rec.b + 1), refs["Q4"],
                              data["checks"], g, 1000)
    # A chi the reference leaves open needs a witness from a fresh search.
    claimed = dataclasses.replace(rec, chi_orientable=-2)
    assert "not reproduced" in check.check_record(claimed, refs["Q4"], data["checks"], g, 1000)

    terms = {chi: (base, imp) for chi, base, imp in W.load_json("cubic_terms.json")["rows"]}
    from bondlab import bounds

    params = (7, -40, 5, 50, 200)
    report = bounds.build_bound_report(7, -40, girth=5, n=50, m=200)
    assert check.check_bound_report(report, params, terms) is None
    wrong = dict(terms)
    wrong[-40] = (terms[-40][0], terms[-40][1] + 1)
    assert check.check_bound_report(report, params, wrong)


def test_speed_gauge_rescales_and_skips_kernel_time():
    gauge = speed.SpeedGauge()
    gauge.starts = [0.0, 1.0, 2.0]
    gauge.ends = [t + speed.REF_KERNEL_S for t in gauge.starts]
    # At the reference speed only the kernel runs are taken out.
    assert gauge.scaled(0.0, 2.0 + speed.REF_KERNEL_S) == pytest.approx(2.0 - 2 * speed.REF_KERNEL_S)
    assert gauge.scaled(0.5, 0.75) == pytest.approx(0.25)
    # A machine at half the speed takes twice as long for the same work.
    slow = speed.SpeedGauge()
    slow.starts = [0.0, 1.0, 2.0]
    slow.ends = [t + 2 * speed.REF_KERNEL_S for t in slow.starts]
    assert slow.scaled(0.5, 0.75) == pytest.approx(0.125)
    assert slow.scaled(3.0, 4.0) == pytest.approx(0.5)  # after the last run

    live = speed.SpeedGauge()
    live.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 3.5 * speed.PERIOD:
        pass
    t1 = time.perf_counter()
    live.stop()
    assert len(live.starts) >= 4
    assert 0 < live.scaled(t0, t1)


def test_tail_percentile():
    assert run.tail_percentile([float(i) for i in range(142)])[::2] == (92, 11)
    assert run.tail_percentile([float(i) for i in range(12)]) == (16, 1.0, 10)
    assert run.tail_percentile([float(i) for i in range(5000)])[0] == 99


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    command = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "bounds-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
