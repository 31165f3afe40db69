"""bondlab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload corpus6 --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``bondlab`` from its
``src`` directory.  Every request runs in this process, one after another
(``verify_corpus(..., jobs=1)``), which is a closed loop with one client.
A run repeats whole passes over the seed's inputs until the next pass would
end after ``--seconds`` (graph workloads alternate between relabellings and
always run each at least once) and checks every output against the stored
reference.  Times are medians over the passes; the item percentiles are
taken within each pass, so they do not depend on how many passes fit.
With ``--trace 0`` every time is at a fixed reference speed: a calibration
kernel runs every 0.1 s during the timed passes and the set-up, and its
times rescale the program's (see ``speed.py``); the raw pass times are in
the detail line.  It prints a detail line and then the result line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with every layer boundary wrapped (see
``tracer.py``), and reports the per-layer metrics, the tracing overhead and
the span coverage.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from speed import REF_KERNEL_S, SpeedGauge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("corpus6", "bondage-stress", "sparse-random", "bounds-grid")

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile
TRACE_DIR = os.path.join(ROOT, ".perfbench")

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import numpy, bondlab, bondlab.cli\n"
    "print(repr(time.perf_counter() - t))\n"
    "print(bondlab.__file__)\n"
)


def load_bondlab():
    """Import bondlab from this checkout's ``src``, never from elsewhere."""
    init = os.path.join(SRC, "bondlab", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no bondlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import bondlab

    if os.path.realpath(bondlab.__file__) != os.path.realpath(init):
        sys.exit(f"perfbench: imported bondlab from {bondlab.__file__}, not {init}")
    return bondlab


def import_seconds() -> float:
    """Import time of numpy and bondlab in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split("\n")
    if os.path.realpath(out[1]) != os.path.realpath(os.path.join(SRC, "bondlab", "__init__.py")):
        raise RuntimeError(f"import probe loaded bondlab from {out[1]}")
    return float(out[0])


def timed_setup(work, gauge=None) -> tuple[float, float, list]:
    """One set-up: (seconds, import seconds, the inputs of each variant).

    With a gauge both parts are at the reference speed.  The import runs in
    a child process with the timer off, so it takes the speed of the kernel
    runs just before and after it.
    """
    if gauge is None:
        imp = import_seconds()
        t0 = perf_counter()
        variants = work.build()
        return imp + perf_counter() - t0, imp, variants
    gauge.sample()
    t0 = perf_counter()
    imp = import_seconds()
    t1 = perf_counter()
    gauge.start()
    t2 = perf_counter()
    variants = work.build()
    t3 = perf_counter()
    gauge.stop()
    imp *= gauge.scaled(t0, t1) / (t1 - t0)
    return imp + gauge.scaled(t2, t3), imp, variants


# -- passes ------------------------------------------------------------------


class Pass:
    """One timed pass: its time span, each item's span, and the outputs.

    ``wall`` and ``item_seconds`` are at the reference speed when a speed
    gauge ran during the pass (see ``speed.py``), raw seconds otherwise;
    ``raw_wall`` is always raw.
    """

    def __init__(self, start, end, item_spans, outputs, extra, gauge=None):
        self.raw_wall = end - start
        if gauge is None:
            self.wall = self.raw_wall
            self.item_seconds = [t1 - t0 for t0, t1 in item_spans]
        else:
            self.wall = gauge.scaled(start, end)
            self.item_seconds = [gauge.scaled(t0, t1) for t0, t1 in item_spans]
        self.outputs = outputs
        self.extra = extra


class PassStats:
    """What a run keeps of a pass once its outputs are checked."""

    def __init__(self, p: Pass, ratios: dict):
        self.wall = p.wall
        self.raw_wall = p.raw_wall
        self.p50 = statistics.median(p.item_seconds)
        self.tail_pct, self.tail, self.beyond = tail_percentile(p.item_seconds)
        self.ratios = ratios


def graph_pass(harness, inputs, tracer=None, gauge=None) -> Pass:
    records = []
    spans = []
    if gauge is not None:
        gauge.start()
    start = perf_counter()
    for i, line in enumerate(inputs.lines):
        if tracer is not None:
            tracer.item = i
        t0 = perf_counter()
        recs, _ = harness.verify_corpus([line], budget=inputs.budget, jobs=1)
        spans.append((t0, perf_counter()))
        records.extend(recs)
    if tracer is not None:
        tracer.item = -1
    report = harness.emit_report(records, "json")
    end = perf_counter()
    if gauge is not None:
        gauge.stop()
    return Pass(start, end, spans, records, report, gauge)


def bounds_pass(bounds, inputs, tracer=None, gauge=None) -> Pass:
    reports = []
    spans = []
    if gauge is not None:
        gauge.start()
    start = perf_counter()
    for i, (delta, chi, girth, n, m) in enumerate(inputs.sets):
        if tracer is not None:
            tracer.item = i
        t0 = perf_counter()
        reports.append(bounds.build_bound_report(delta, chi, girth=girth, n=n, m=m))
        spans.append((t0, perf_counter()))
    if tracer is not None:
        tracer.item = -1
    table = bounds.comparison_table(*inputs.table_range)
    end = perf_counter()
    if gauge is not None:
        gauge.stop()
    return Pass(start, end, spans, reports, table, gauge)


def run_passes(work, variants, seconds: float, min_passes: int, tracer=None,
               gauge=None) -> list[PassStats]:
    """Whole passes, each checked, until the next would end after ``seconds``.

    Pass ``i`` runs ``variants[i % len(variants)]``; at least ``min_passes``
    passes run.
    """
    stats = []
    begin = perf_counter()
    while True:
        inputs = variants[len(stats) % len(variants)]
        p = work.one_pass(inputs, tracer, gauge)
        work.check_pass(inputs, p)
        stats.append(PassStats(p, work.ratios(p)))
        p = None  # hold the outputs of one pass at a time
        if len(stats) >= min_passes and perf_counter() - begin + stats[-1].raw_wall > seconds:
            return stats


# -- metrics -----------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least TAIL_BEYOND samples above it.

    Returns (percentile, nearest-rank value, samples beyond it).
    """
    n = len(samples)
    pct = min(99, 100 * (n - TAIL_BEYOND) // n)
    ordered = sorted(samples)
    rank = -(-pct * n // 100)
    return pct, ordered[rank - 1], n - rank


def graph_ratios(records) -> dict:
    connected = [r for r in records if r.connected]
    certified = sum(1 for r in connected if r.chi_certified)
    verdicts = [c.satisfied for r in records for c in r.checks]
    decided = sum(1 for v in verdicts if v is not None)
    return {"certified": [certified, len(connected)], "decided": [decided, len(verdicts)]}


def pooled_ratios(work, passes: list, n_variants: int) -> dict:
    """Numerators and denominators summed over one pass of each variant.

    Passes that repeat a variant must repeat its ratios exactly.
    """
    for i, p in enumerate(passes[n_variants:], n_variants):
        if p.ratios != passes[i % n_variants].ratios:
            work.fail(f"pass {i} ratios {p.ratios} differ from an earlier pass of its inputs")
    first = passes[:n_variants]
    return {key: [sum(p.ratios[key][0] for p in first), sum(p.ratios[key][1] for p in first)]
            for key in ("certified", "decided")}


def bounds_ratios(reports) -> dict:
    entries = [e for rep in reports for e in rep.entries]
    decided = sum(1 for e in entries if e.applicable)
    # chi is an input of the bounds path, so every request has an exact chi.
    return {"certified": [len(reports), len(reports)], "decided": [decided, len(entries)]}


def machine_facts(budget) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "budget": budget,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- workload plumbing ---------------------------------------------------------


class Workload:
    """Builds inputs, runs passes and checks outputs for one workload."""

    def __init__(self, name: str, seed: int):
        import check
        import workloads as W
        from bondlab import bounds, harness

        self.name = name
        self.seed = seed
        self.W = W
        self.check = check
        self.harness = harness
        self.bounds = bounds
        self.failures: list[str] = []
        self.attempted = 0
        self.is_graph = name != "bounds-grid"
        if name == "bounds-grid":
            table = W.load_json("cubic_terms.json")["rows"]
            self.cubic_terms = {chi: (base, imp) for chi, base, imp in table}
            self.table_rows = [tuple(row) for row in table]
        else:
            ref_file = {"corpus6": "corpus6.json", "bondage-stress": "bondage_stress.json",
                        "sparse-random": W.SPARSE_POOL_FILE}[name]
            data = W.load_json(ref_file)
            self.ref_checks = data["checks"]
            self.refs = check.graph_refs(data)
            self.pool = [row[1] for row in data["rows"]]

    def build(self, tracer=None) -> list:
        """The inputs of each pass variant (one except on corpus6)."""
        W = self.W
        if self.name == "corpus6":
            if tracer is None:
                enumerated = W.corpus6_graphs()
            else:
                with tracer.span("graphs.enumerate_connected_graphs"):
                    enumerated = W.corpus6_graphs()
            return W.corpus6(self.seed, enumerated)
        if self.name == "bondage-stress":
            return W.bondage_stress(self.seed)
        if self.name == "sparse-random":
            return W.sparse_random(self.seed, self.pool)
        return [W.bounds_grid(self.seed)]

    @property
    def budget(self):
        return self.W.BUDGETS.get(self.name)

    def one_pass(self, inputs, tracer=None, gauge=None) -> Pass:
        if self.is_graph:
            return graph_pass(self.harness, inputs, tracer, gauge)
        return bounds_pass(self.bounds, inputs, tracer, gauge)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check_pass(self, inputs, p: Pass) -> None:
        if self.is_graph:
            self._check_graph_pass(inputs, p)
        else:
            self._check_bounds_pass(inputs, p)

    def _check_graph_pass(self, inputs, p: Pass) -> None:
        records = p.outputs
        self.attempted += len(inputs.lines)
        if len(records) != len(inputs.lines):
            self.fail(f"{len(records)} records for {len(inputs.lines)} graphs")
            return
        for key, g, line, rec in zip(inputs.keys, inputs.graph_list, inputs.lines, records):
            if rec.graph6 != line:
                problem = f"record for {rec.graph6}, expected {line}"
            else:
                problem = self.check.check_record(rec, self.refs[key], self.ref_checks, g, inputs.budget)
            if problem:
                self.fail(f"{key} as {line}: {problem}")
        self.attempted += 1
        report = json.loads(p.extra)
        if [r["graph6"] for r in report["records"]] != inputs.lines:
            self.fail("emitted report does not list the input graphs in order")

    def _check_bounds_pass(self, inputs, p: Pass) -> None:
        self.attempted += len(inputs.sets) + 1
        for params, rep in zip(inputs.sets, p.outputs):
            problem = self.check.check_bound_report(rep, params, self.cubic_terms)
            if problem:
                self.fail(problem)
        if [tuple(r) for r in p.extra] != self.table_rows:
            self.fail("comparison_table(-2000, 0) disagrees with the stored table")

    def ratios(self, p: Pass) -> dict:
        return graph_ratios(p.outputs) if self.is_graph else bounds_ratios(p.outputs)


# -- tracing ------------------------------------------------------------------


class EmbeddingCounters:
    """Effort counters read off every ChiSearchResult."""

    def __init__(self):
        self.steps = 0
        self.or_schemes = 0
        self.nonor_schemes = 0
        self.budget_exhausted = 0
        self.overshoot = 0
        self.wasted = 0

    def __call__(self, result) -> None:
        self.steps += result.steps_used
        self.or_schemes += result.orientable.searched
        if result.nonorientable is not None:
            self.nonor_schemes += result.nonorientable.searched
        if result.steps_used >= result.budget:
            self.budget_exhausted += 1
            self.overshoot += result.steps_used - result.budget
        if not result.certified:
            self.wasted += result.steps_used


class ReportBytes:
    def __init__(self):
        self.total = 0

    def __call__(self, text: str) -> None:
        self.total += len(text.encode("utf-8"))


# Entry points of the bounds layer (from the harness and the bounds path),
# plus the two root solvers the per-layer metrics name.
BOUNDS_TRACED = (
    "build_bound_report", "comparison_table", "bound_cubic", "bound_sqrt",
    "bound_girth", "bound_triangle_free", "bound_order", "bound_size",
    "bound_genus", "order_lower_bound", "size_lower_bound",
    "floor_largest_root", "largest_root_bisect",
)


def install_tracer(tracer, counters: EmbeddingCounters, report_bytes: ReportBytes) -> None:
    """Wrap the public functions at each layer boundary the harness crosses."""
    from bondlab import bondage, bounds, embedding, harness
    from bondlab.graphs import Graph

    tracer.wrap(harness, "verify_corpus", "harness.verify_corpus")
    tracer.wrap(harness, "verify_graph", "harness.verify_graph")
    tracer.wrap(harness, "emit_report", "report.emit_report", report_bytes)
    tracer.wrap(harness, "parse_graph6", "graphs.parse_graph6")
    tracer.wrap(harness, "girth", "graphs.girth")
    tracer.wrap(embedding, "girth", "graphs.girth")
    tracer.wrap(harness, "degree_stats", "graphs.degree_stats")
    tracer.wrap(harness, "emit_graph6", "graphs.emit_graph6")
    tracer.wrap(Graph, "remove_edges", "graphs.remove_edges")
    tracer.wrap(harness, "max_euler_characteristic", "embedding.max_euler_characteristic", counters)
    tracer.wrap(harness, "domination_number", "domination.domination_number")
    tracer.wrap(bondage, "domination_number", "domination.domination_number")
    for name in ("bondage_number", "compute_b_prime", "hartnell_rall_bound"):
        tracer.wrap(harness, name, f"bondage.{name}")
    for name in BOUNDS_TRACED:
        tracer.wrap(bounds, name, f"bounds.{name}")


def layer_metrics(tracer, counters, report_bytes, traced: list[PassStats],
                  untraced_wall: float, enumerate_s: float) -> dict:
    """Per-pass figures of the traced passes."""
    def per(x):
        return x / len(traced)

    emb_s = per(tracer.inclusive("embedding.max_euler_characteristic"))
    steps = per(counters.steps)
    bounds_calls, bounds_s = tracer.layer_outer("bounds")
    bondage_s = tracer.layer_outer("bondage")[1]
    return {
        "embedding.s": metric(emb_s, "s"),
        "embedding.calls": metric(per(tracer.calls("embedding.max_euler_characteristic")), "count"),
        "embedding.steps": metric(steps, "count"),
        "embedding.steps_per_s": metric(steps / emb_s if emb_s else 0.0, "1/s"),
        "embedding.or_schemes": metric(per(counters.or_schemes), "count"),
        "embedding.nonor_schemes": metric(per(counters.nonor_schemes), "count"),
        "embedding.budget_exhausted": metric(per(counters.budget_exhausted), "count"),
        "embedding.budget_overshoot_steps": metric(per(counters.overshoot), "count"),
        "embedding.wasted_step_ratio": metric(counters.wasted / counters.steps if counters.steps else 0.0, "ratio"),
        "domination.calls": metric(per(tracer.calls("domination.domination_number")), "count"),
        "domination.s": metric(per(tracer.inclusive("domination.domination_number")), "s"),
        "bondage.s": metric(per(bondage_s), "s"),
        "bondage.self_s": metric(per(tracer.layer_self("bondage")), "s"),
        "graphs.remove_edges_calls": metric(per(tracer.calls("graphs.remove_edges")), "count"),
        "graphs.remove_edges_s": metric(per(tracer.inclusive("graphs.remove_edges")), "s"),
        "bounds.calls": metric(per(bounds_calls), "count"),
        "bounds.s": metric(per(bounds_s), "s"),
        "bounds.root_floor_s": metric(per(tracer.inclusive("bounds.floor_largest_root")), "s"),
        "bounds.bisect_s": metric(per(tracer.inclusive("bounds.largest_root_bisect")), "s"),
        "graphs.parse_s": metric(per(tracer.inclusive("graphs.parse_graph6")), "s"),
        "graphs.girth_s": metric(per(tracer.inclusive("graphs.girth")), "s"),
        "graphs.enumerate_s": metric(enumerate_s, "s"),
        "harness.verify_self_s": metric(per(tracer.layer_self("harness")), "s"),
        "harness.report_s": metric(per(tracer.inclusive("report.emit_report")), "s"),
        "harness.report_bytes": metric(per(report_bytes.total), "B"),
        "trace.overhead_s": metric(statistics.median(p.wall for p in traced) - untraced_wall, "s"),
        "trace.coverage": metric(tracer.all_self() / sum(p.wall for p in traced), "ratio"),
    }


# -- main ---------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (detail, result)."""
    load_bondlab()
    work = Workload(name, seed)

    # Untraced runs report times at the reference speed; traced runs, whose
    # figures are per layer and have no bound, report raw seconds.
    gauge = None if trace else SpeedGauge()
    setups = []
    for _ in range(SETUP_REPEATS):
        total, imp, variants = timed_setup(work, gauge)
        setups.append((total, imp))
    setup_s = statistics.median(s for s, _ in setups)
    items = len(variants[0].lines if work.is_graph else variants[0].sets)
    if items < TAIL_BEYOND + 1:
        raise RuntimeError(f"{name} has {items} items a pass; a tail needs {TAIL_BEYOND + 1}")

    # End-to-end figures need every variant; the traced half of a traced
    # run compares like with like, so both its halves start at variant 0.
    budget_s = seconds / 2 if trace else seconds
    passes = run_passes(work, variants, budget_s, 1 if trace else len(variants), gauge=gauge)
    ratios = pooled_ratios(work, passes, len(variants))
    untraced_wall = statistics.median(p.wall for p in passes)

    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_facts(work.budget),
        "items_per_pass": items,
        "variants": len(variants),
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "pass_raw_wall_s": [p.raw_wall for p in passes],
        "speed_scaled": gauge is not None,
        "item_tail_percentile": passes[0].tail_pct,
        "item_tail_beyond": passes[0].beyond,
        "import_s": statistics.median(i for _, i in setups),
        "certified": ratios["certified"],
        "decided": ratios["decided"],
    }

    if gauge is not None:
        kernel = gauge.kernel_seconds()
        detail["kernel_s"] = {"reference": REF_KERNEL_S, "median": statistics.median(kernel),
                              "min": min(kernel), "max": max(kernel), "runs": len(kernel)}

    if not trace:
        metrics = {
            "wall_s": metric(untraced_wall, "s"),
            "item_p50_ms": metric(statistics.median(p.p50 for p in passes) * 1e3, "ms"),
            "item_tail_ms": metric(statistics.median(p.tail for p in passes) * 1e3, "ms"),
            "certified_ratio": metric(ratios["certified"][0] / ratios["certified"][1], "ratio"),
            "decided_ratio": metric(ratios["decided"][0] / ratios["decided"][1], "ratio"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        from tracer import Tracer

        tracer = Tracer()
        counters = EmbeddingCounters()
        report_bytes = ReportBytes()
        install_tracer(tracer, counters, report_bytes)
        try:
            work.build(tracer)
            enumerate_s = tracer.inclusive("graphs.enumerate_connected_graphs")
            tracer.reset()
            traced = run_passes(work, variants, budget_s, 1, tracer)
        finally:
            tracer.unwrap()
        traced_wall = statistics.median(p.wall for p in traced)
        total_wall = sum(p.wall for p in traced)
        metrics = layer_metrics(tracer, counters, report_bytes, traced, untraced_wall, enumerate_s)
        shares = {
            "embedding": tracer.inclusive("embedding.max_euler_characteristic") / total_wall,
            "domination+remove_edges+bondage_self": (
                tracer.inclusive("domination.domination_number")
                + tracer.inclusive("graphs.remove_edges")
                + tracer.layer_self("bondage")
            ) / total_wall,
            "bounds": tracer.layer_outer("bounds")[1] / total_wall,
        }
        detail.update({
            "traced_passes": len(traced),
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "wall_share": shares,
            "spans": len(tracer.span_start),
        })
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{name}-seed{seed}.json.gz")
        tracer.write(path, {"workload": name, "seed": seed, "passes": len(traced)})
        detail["trace_file"] = os.path.relpath(path, ROOT)

    failed = len(work.failures)
    detail["failed_ratio"] = failed / work.attempted
    detail["failures"] = work.failures[:10]
    result = {
        "correct": failed == 0,
        "attempted": work.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    detail, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in detail["failures"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
