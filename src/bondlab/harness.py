"""Per-graph verification: invariants, embedding search, bounds, exact bondage.

For every input graph the harness computes the exact invariants, runs the
Euler-characteristic search, evaluates each checked row of the bound
registry (``bounds.REGISTRY``) whose hypotheses hold, and records whether
the exact bondage number respects it.  Bounds that depend on the
characteristic are only ever asserted when the search certified the value
exactly; otherwise they are marked skipped, never pass/fail.  A search the
budget stops is not an error here: its record has ``chi_certified`` false,
and whether that fails a run is the caller's decision (``verify --strict``).
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, Sequence

from . import bounds as bnd
from .bondage import bondage_number, compute_b_prime, hartnell_rall_bound
from .domination import instance_size_error
from .domination import domination_number  # noqa: F401 (perfbench/run.py:install_tracer wraps it)
from .embedding import DEFAULT_BUDGET, ChiSearchResult, max_euler_characteristic
from .graphs import (
    GRAPH6_HEADER,
    Graph,
    GraphFormatError,
    degree_stats,
    emit_graph6,
    girth,
    parse_graph6,
)

__all__ = [
    "TheoremCheck",
    "VerificationRecord",
    "CorpusSummary",
    "graph_params",
    "verify_graph",
    "verify_corpus",
    "emit_report",
    "emit_comparison_table",
    "CSV_COLUMNS",
    "CHECK_NAMES",
    "REPORT_JSON_SCHEMA",
]

CHECKS = tuple(row for row in bnd.REGISTRY if row.checked)
CHECK_NAMES = tuple(row.name for row in CHECKS)


# The three dataclasses below describe the report: each field, in order, is
# a JSON key and a schema property, and each scalar record field a CSV
# column.  Field metadata says what the type does not.
_REQUIRED = {"required": True}  # the schema requires the key


@dataclass(frozen=True)
class TheoremCheck:
    """One inequality: ``satisfied`` is None exactly when skipped."""

    name: str = field(metadata={**_REQUIRED, "enum": list(CHECK_NAMES)})
    hypothesis_met: bool = field(metadata=_REQUIRED)
    bound_value: int | None
    satisfied: bool | None = field(metadata=_REQUIRED)
    slack: int | None


@dataclass(frozen=True)
class VerificationRecord:
    graph6: str = field(metadata=_REQUIRED)
    n: int = 0
    m: int = 0
    delta: int = 0
    min_degree: int = 0
    # None encodes an acyclic graph, written "inf" in the CSV.
    girth: int | None = field(default=None, metadata={"csv_none": "inf"})
    gamma: int | None = None
    b: int | None = None
    b_prime: int | None = None
    chi: int | None = None
    chi_certified: bool = False
    chi_orientable: int | None = None
    chi_nonorientable: int | None = None
    connected: bool = False
    # Audit of the proxy inequality b <= b': the floored average-degree term
    # is not implied by the size bound, and paths P_4 and P_7 already exceed
    # it, so this is reported as a flag rather than a theorem failure.
    b_exceeds_bprime: bool | None = None
    error: str | None = None
    checks: tuple[TheoremCheck, ...] = field(default=(), metadata={"items": TheoremCheck})

    def check(self, name: str) -> TheoremCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def failures(self) -> list[TheoremCheck]:
        return [c for c in self.checks if c.satisfied is False]


@dataclass(frozen=True)
class CorpusSummary:
    graphs: int = field(metadata=_REQUIRED)
    malformed: int = field(metadata=_REQUIRED)
    failures: int = field(metadata=_REQUIRED)
    # Pass, fail and skip counts per check name.
    per_check: dict[str, dict[str, int]] = field(metadata=_REQUIRED)
    bprime_counterexamples: tuple[str, ...] = field(
        default=(), metadata={"items": {"type": "string"}})


def graph_params(g: Graph, search: ChiSearchResult | None, **facts) -> bnd.BoundParams:
    """The bound parameters of ``g``, given its chi search (None if not run).

    Only certified values are read from the search: ``chi``, ``h`` and
    ``k`` stay None where it left them open.  ``facts`` sets the fields the
    graph and the search do not give (``connected``, ``edge_bound``, ``b``
    and ``b_prime``).
    """
    chi = h = k = None
    if search is not None:
        if search.certified:
            chi = search.chi
        if search.orientable.certified:
            h = (2 - search.orientable.chi) // 2
        if search.nonorientable is not None and search.nonorientable.certified:
            k = 2 - search.nonorientable.chi
    return bnd.BoundParams(degree_stats(g).max_degree, chi, girth(g), g.n, g.m, h, k, **facts)


# Per row, the one check it yields whenever its hypothesis is unmet.
_UNMET = {row.name: TheoremCheck(row.name, False, None, None, None) for row in CHECKS}


def _outcome(row: bnd.Bound, p: bnd.BoundParams) -> tuple | None:
    """What one registry row's check is made of: None when its hypothesis is
    unmet, else its value and the value of its target (None without one)."""
    if not row.applicable(p):
        return None
    return row.value(p), None if row.target is None else getattr(p, row.target)


@functools.cache
def _make_check(row: bnd.Bound, outcome: tuple | None) -> TheoremCheck:
    """The check of ``row`` with the given :func:`_outcome`, built once."""
    if outcome is None:
        return _UNMET[row.name]
    value, target = outcome
    if row.target is None:
        return TheoremCheck(row.name, True, None, value, None)
    return TheoremCheck(row.name, True, value, target <= value, value - target)


# The checks of each distinct tuple of outcomes met so far.  An outcome is
# a verdict or small integers of the graph (its order, size and degrees, b
# and the bounds on it), so this table and ``_make_check``'s hold a few
# dozen entries over a corpus: 74 tuples over the 2,000 sparse-pool graphs.
# Both hold frozen values only, and sharing only saves work: no output
# depends on which checks are the same object.
_CHECK_TUPLES: dict[tuple, tuple[TheoremCheck, ...]] = {}


def _checks(p: bnd.BoundParams) -> tuple[TheoremCheck, ...]:
    """One check per row of ``CHECKS``, in order: ``satisfied`` is None when
    the row is skipped."""
    outcomes = tuple(_outcome(row, p) for row in CHECKS)
    checks = _CHECK_TUPLES.get(outcomes)
    if checks is None:
        checks = _CHECK_TUPLES[outcomes] = tuple(map(_make_check, CHECKS, outcomes))
    return checks


def verify_graph(g: Graph, budget: int = DEFAULT_BUDGET) -> VerificationRecord:
    """Compute all invariants for one graph and test every applicable bound."""
    return _verify(g, emit_graph6(g), budget)


def _verify(g: Graph, graph6: str, budget: int) -> VerificationRecord:
    """:func:`verify_graph` for ``g``, whose graph6 text is ``graph6``."""
    if g.m < 1:
        raise ValueError("verification needs at least one edge")
    bond = bondage_number(g)
    b = bond.b
    connected = g.is_connected()
    proxy = compute_b_prime(g) if connected else None
    b_prime = proxy.b_prime if connected else None
    search = max_euler_characteristic(g, budget=budget) if connected else None
    p = graph_params(
        g,
        search,
        connected=connected,
        edge_bound=proxy.edge_term if connected else hartnell_rall_bound(g),
        b=b,
        b_prime=b_prime,
    )
    return VerificationRecord(
        graph6=graph6,
        n=g.n,
        m=g.m,
        delta=p.delta,
        min_degree=degree_stats(g).min_degree,
        girth=None if p.girth == math.inf else p.girth,
        gamma=bond.gamma_before,
        b=b,
        b_prime=b_prime,
        chi=p.chi,
        chi_certified=p.chi is not None,
        chi_orientable=None if p.h is None else 2 - 2 * p.h,
        chi_nonorientable=None if p.k is None else 2 - p.k,
        connected=connected,
        b_exceeds_bprime=None if b_prime is None else b > b_prime,
        checks=_checks(p),
    )


def _verify_line(args: tuple[str, int]) -> VerificationRecord:
    """The record of one corpus line, whose ``graph6`` is the line without
    any header.  ``parse_graph6`` refuses padding bits, trailing bytes and
    the long form, so a verified line is already its graph's own graph6.
    The line is parsed as given, so a refusal's byte offset counts the
    header too.
    """
    line, budget = args
    graph6 = line.removeprefix(GRAPH6_HEADER)
    try:
        g = parse_graph6(line)
    except GraphFormatError as exc:
        return VerificationRecord(graph6=graph6, error=f"malformed graph6: {exc}")
    if g.m < 1:
        return VerificationRecord(graph6=graph6, error="graph has no edges")
    too_large = instance_size_error(g.n)
    if too_large is not None:
        return VerificationRecord(graph6=graph6, error=too_large)
    return _verify(g, graph6, budget)


def verify_corpus(
    lines: Iterable[str],
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> tuple[list[VerificationRecord], CorpusSummary]:
    """Verify every graph6 line; malformed lines, and graphs skipped for
    having no edges or more vertices than the domination search's limit,
    are recorded with an ``error``, not fatal.  Only the malformed lines
    count in ``CorpusSummary.malformed``.

    Records come back in input order regardless of ``jobs``, so output is
    byte-identical for any parallelism degree.  The lines go to the workers
    in about 32 chunks a worker: a light record then pays no round trip of
    its own, and the costly records near the end of a corpus sorted by size
    still spread over the workers.  At most one worker starts per line, so
    a corpus of one line, or none, runs serially whatever ``jobs`` asks.
    """
    work = [(line.strip(), budget) for line in lines if line.strip()]
    jobs = min(jobs, len(work))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, -(-len(work) // (32 * jobs)))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_verify_line, work, chunksize=chunk))
    else:
        records = [_verify_line(item) for item in work]

    return records, _summarize(records)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

# Report keys that differ from the field name.
_RENAMED = {"b_prime": "bprime"}
# The first CSV columns; the other record fields follow in record order.
_CSV_LEAD = ("graph6", "n", "m", "delta", "gamma", "b", "bprime", "chi")
# The JSON type of each field annotation; any other annotation is a KeyError.
_JSON_TYPES = {
    "str": "string",
    "str | None": ["string", "null"],
    "int": "integer",
    "int | None": ["integer", "null"],
    "bool": "boolean",
    "bool | None": ["boolean", "null"],
    "tuple[TheoremCheck, ...]": "array",
    "tuple[str, ...]": "array",
    "dict[str, dict[str, int]]": "object",
}


def _key(f) -> str:
    return _RENAMED.get(f.name, f.name)


def _object_schema(cls) -> dict:
    """The JSON schema of a report object: one property per field of ``cls``."""
    properties = {}
    for f in fields(cls):
        prop = properties[_key(f)] = {"type": _JSON_TYPES[f.type]}
        if "enum" in f.metadata:
            prop["enum"] = f.metadata["enum"]
        if "items" in f.metadata:
            items = f.metadata["items"]  # a report dataclass or a schema
            prop["items"] = items if type(items) is dict else _object_schema(items)
    return {
        "type": "object",
        "required": [_key(f) for f in fields(cls) if f.metadata.get("required")],
        "properties": properties,
    }


# Per class: the report keys, JSON-encoded and followed by their separator,
# and a getter of all field values in that order.
_JSON_FIELDS = {
    cls: (
        [encode_basestring_ascii(_key(f)) + ": " for f in fields(cls)],
        attrgetter(*(f.name for f in fields(cls))),
    )
    for cls in (TheoremCheck, VerificationRecord, CorpusSummary)
}
# The scalar record fields in CSV column order (sorted is stable), a getter
# of their values and the cell written for each one's None.
_CSV_FIELDS = sorted(
    (f for f in fields(VerificationRecord) if "items" not in f.metadata),
    key=lambda f: _CSV_LEAD.index(_key(f)) if _key(f) in _CSV_LEAD else len(_CSV_LEAD),
)
_CSV_VALUES = attrgetter(*(f.name for f in _CSV_FIELDS))
_CSV_NONE = [f.metadata.get("csv_none") for f in _CSV_FIELDS]

CSV_COLUMNS = (
    [_key(f) for f in _CSV_FIELDS]
    + [f"{name}_bound" for name in CHECK_NAMES]
    + [f"{name}_ok" for name in CHECK_NAMES]
)

REPORT_JSON_SCHEMA = {
    "type": "object",
    "required": ["records", "summary"],
    "properties": {
        "records": {"type": "array", "items": _object_schema(VerificationRecord)},
        "summary": _object_schema(CorpusSummary),
    },
}


# The JSON text of each scalar, as ``json.dumps`` writes it.
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value, pad: str, laid_out: dict) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` lays it out at indent ``pad``.

    Records, checks and summaries are written as objects under their report
    keys, their scalar fields in place; dicts, lists and tuples as objects
    and arrays.  Each check and tuple object is laid out once: ``laid_out``
    keeps its text by ``(id(value), pad)``.  The payload holds every value
    until the report is written, so no id is reused meanwhile; an equal
    value that is another object is laid out again, to the same text.
    """
    kind = type(value)
    if kind in _JSON_SCALARS:
        return _JSON_SCALARS[kind](value)
    shared = kind is TheoremCheck or kind is tuple
    if shared:
        text = laid_out.get((id(value), pad))
        if text is not None:
            return text
    inner = pad + "  "
    if kind in _JSON_FIELDS:
        keys, values = _JSON_FIELDS[kind]
        items = []
        for k, v in zip(keys, values(value)):
            scalar = _JSON_SCALARS.get(type(v))
            items.append(k + (scalar(v) if scalar else _json_text(v, inner, laid_out)))
        opening, closing = "{", "}"
    elif kind is dict:
        items = [
            f"{encode_basestring_ascii(k)}: {_json_text(v, inner, laid_out)}"
            for k, v in value.items()
        ]
        opening, closing = "{", "}"
    elif kind in (list, tuple):
        items = [_json_text(v, inner, laid_out) for v in value]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"a report holds no {kind.__name__} values")
    if not items:
        text = opening + closing
    else:
        text = f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{closing}"
    if shared:
        laid_out[id(value), pad] = text
    return text


def emit_report(
    records: Sequence[VerificationRecord],
    fmt: str,
    summary: CorpusSummary | None = None,
) -> str:
    """Render records as csv, json, or text with a fixed field order.

    The JSON report lays out each check and each tuple of checks once per
    call: the records of a corpus share a few dozen of them.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            # A verified record has one check per CHECK_NAMES entry, in
            # order; an error record has none, and every cell is skipped.
            checks = rec.checks or _UNMET.values()
            writer.writerow(
                [none if v is None else v for v, none in zip(_CSV_VALUES(rec), _CSV_NONE)]
                + ["" if c.satisfied is None else c.bound_value for c in checks]
                + ["skip" if c.satisfied is None else "ok" if c.satisfied else "FAIL"
                   for c in checks]
            )
        return buf.getvalue()
    if fmt == "json":
        if summary is None:
            summary = _summarize(records)
        payload = {"records": list(records), "summary": summary}
        return _json_text(payload, "", {}) + "\n"
    if fmt == "text":
        lines = []
        header = (
            f"{'graph6':<12} {'n':>2} {'m':>3} {'delta':>5} {'gamma':>5} "
            f"{'b':>4} {'bprime':>6} {'chi':>4} {'girth':>5}  status"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for rec in records:
            if rec.error is not None:
                kind = "malformed" if _is_malformed(rec) else "skipped"
                lines.append(f"{rec.graph6:<12} {kind}: {rec.error}")
                continue
            fails = rec.failures
            status = "ok" if not fails else "FAIL " + ",".join(c.name for c in fails)
            lines.append(
                f"{rec.graph6:<12} {rec.n:>2} {rec.m:>3} {rec.delta:>5} "
                f"{rec.gamma if rec.gamma is not None else '-':>5} "
                f"{rec.b if rec.b is not None else '-':>4} "
                f"{rec.b_prime if rec.b_prime is not None else '-':>6} "
                f"{rec.chi if rec.chi is not None else '-':>4} "
                f"{'inf' if rec.girth is None else rec.girth:>5}  {status}"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}; use csv, json, or text")


def _is_malformed(rec: VerificationRecord) -> bool:
    """Whether ``rec`` failed to parse, rather than being a graph turned away."""
    return rec.error is not None and rec.error.startswith("malformed graph6:")


def _summarize(records: Sequence[VerificationRecord]) -> CorpusSummary:
    per_check = {name: {"pass": 0, "fail": 0, "skip": 0} for name in CHECK_NAMES}
    malformed = 0
    failures = 0
    counterexamples = []
    for rec in records:
        if rec.error is not None:
            malformed += _is_malformed(rec)
            continue
        if rec.b_exceeds_bprime:
            counterexamples.append(rec.graph6)
        for c in rec.checks:
            if c.satisfied is None:
                per_check[c.name]["skip"] += 1
            elif c.satisfied:
                per_check[c.name]["pass"] += 1
            else:
                per_check[c.name]["fail"] += 1
                failures += 1
    return CorpusSummary(
        graphs=len(records),
        malformed=malformed,
        failures=failures,
        per_check=per_check,
        bprime_counterexamples=tuple(counterexamples),
    )


def emit_comparison_table(chi_lo: int, chi_hi: int, fmt: str = "text") -> str:
    """The baseline-vs-improved cubic-term table over an Euler range."""
    rows = bnd.comparison_table(chi_lo, chi_hi)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["chi", "baseline_term", "improved_term"])
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "text":
        lines = [f"{'chi':>5}  {'baseline':>8}  {'improved':>8}"]
        for chi, base, imp in rows:
            lines.append(f"{chi:>5}  {base:>8}  {imp:>8}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}; use csv or text")
