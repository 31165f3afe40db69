"""The benchmark's tracer still finds every name it wraps.

``perfbench/run.py --trace 1`` wraps module attributes of bondlab by name;
a refactor that drops one would only show when a traced run crashes.  This
installs and removes the wrappers without running a workload.
"""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_tracer_then_unwrap(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    from tracer import Tracer

    from bondlab import bounds, harness

    originals = {name: getattr(bounds, name) for name in run.BOUNDS_TRACED}
    verify = harness.verify_graph
    tracer = Tracer()
    try:
        run.install_tracer(tracer, run.EmbeddingCounters(), run.ReportBytes())
        assert harness.verify_graph is not verify
        # Registry rows look the bound functions up when they run, so a
        # report counts the wrapped calls.
        bounds.build_bound_report(4, -4, girth=5, n=20, m=30)
        for name in ("build_bound_report", "bound_cubic", "bound_sqrt", "bound_girth",
                     "bound_triangle_free", "bound_order", "bound_size"):
            assert tracer.calls(f"bounds.{name}") == 1, name
    finally:
        tracer.unwrap()
    assert harness.verify_graph is verify
    assert all(getattr(bounds, name) is fn for name, fn in originals.items())
