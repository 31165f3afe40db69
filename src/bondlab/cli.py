"""Command-line front end: every capability, scriptable and reproducible.

Exit codes: 0 success, 1 verification failure or error, 2 usage error,
3 budget exhaustion: when ``chi --strict`` or ``verify --strict`` leaves chi
uncertified, or when ``bounds --graph6`` cannot certify it.  The searches
never raise on exhaustion; each command decides from ``certified``.  Errors
go to stderr prefixed ``bondlab: error:``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from . import bounds as bnd
from .bondage import bondage_number, compute_b_prime
from .embedding import (
    DEFAULT_BUDGET,
    ChiSearchResult,
    SideResult,
    max_euler_characteristic,
)
from .graphs import (
    FAMILY_NAMES,
    Graph,
    GraphFormatError,
    degree_stats,
    emit_graph6,
    enumerate_connected_graphs,
    girth,
    make_family,
    parse_graph6,
)
from .harness import CHECKS, emit_comparison_table, emit_report, graph_params, verify_corpus


_STRICT_EXHAUSTED = "face-tracing budget exhausted in strict mode"


def _epilog(title: str, rows: Sequence[bnd.Bound]) -> str:
    """Help text naming each registry row of a command with its formula."""
    lines = [f"{title} and their formulas (upper bounds on b unless stated):"]
    lines += [f"  {row.name:<15} {row.formula}" for row in rows]
    lines.append("All chi-dependent rows require the embedding search to certify chi exactly;")
    lines.append("otherwise they are reported as skipped.")
    return "\n".join(lines) + "\n"


def _error(message: str) -> None:
    print(f"bondlab: error: {message}", file=sys.stderr)


def _read_graph(source: str) -> Graph:
    if source == "-":
        for line in sys.stdin:
            line = line.strip()
            if line:
                return parse_graph6(line)
        raise GraphFormatError("no graph6 line on stdin")
    return parse_graph6(source)


def positive_int(text: str) -> int:
    """The ``--threads`` type: a whole number of workers, at least 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1 worker, not {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bondlab",
        description="Exact bondage-number laboratory: invariants, embeddings, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget_flags(p: argparse.ArgumentParser, *, strict: bool) -> None:
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="face-tracing step budget for the chi search (a hard cap)")
        if strict:
            p.add_argument("--strict", action="store_true",
                           help="treat budget exhaustion as an error (exit 3)")

    p = sub.add_parser("invariants", help="gamma, bondage, proxy, girth, degrees")
    p.add_argument("graph", nargs="?", default="-", help="graph6 string or - for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("chi", help="maximum Euler characteristic search")
    p.add_argument("graph", nargs="?", default="-", help="graph6 string or - for stdin")
    p.add_argument("--witness", action="store_true", help="print a witness rotation system")
    p.add_argument("--orientable-only", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_budget_flags(p, strict=True)

    p = sub.add_parser(
        "bounds",
        help="evaluate every applicable upper-bound formula",
        epilog=_epilog("bound entries", bnd.REPORTED),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--graph6", help="derive delta, chi, girth, n, m from this graph")
    p.add_argument("--delta", type=int, help="maximum degree")
    p.add_argument("--chi", type=int, help="Euler characteristic (<= 0 for most bounds)")
    p.add_argument("--girth", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="order")
    p.add_argument("--m", type=int, default=None, help="size")
    p.add_argument("--genus-h", type=int, default=None, help="orientable genus")
    p.add_argument("--genus-k", type=int, default=None, help="non-orientable genus")
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_budget_flags(p, strict=False)

    p = sub.add_parser("table", help="baseline vs improved cubic-term table")
    p.add_argument("--chi-from", type=int, required=True)
    p.add_argument("--chi-to", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser(
        "verify",
        help="run the verification harness over a graph6 corpus",
        epilog=_epilog("bound columns", CHECKS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("corpus", nargs="?", default="-",
                   help="newline-delimited graph6 file, or - for stdin")
    p.add_argument("--format", choices=("csv", "json", "text"), default="text")
    p.add_argument("--threads", type=positive_int, default=1,
                   help="parallel verification workers, at least 1")
    add_budget_flags(p, strict=True)

    p = sub.add_parser("enumerate", help="connected graphs up to isomorphism, n <= 7")
    p.add_argument("--max-n", type=int, required=True)

    p = sub.add_parser("families", help="emit a named family member as graph6")
    p.add_argument("family", choices=FAMILY_NAMES)
    p.add_argument("params", nargs="*", type=int)

    return parser


def _cmd_invariants(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    if g.m < 1:
        _error("graph has no edges; bondage is undefined")
        return 1
    stats = degree_stats(g)
    shortest = girth(g)
    connected = g.is_connected()
    bond = bondage_number(g)
    bp = compute_b_prime(g) if connected else None
    data = {
        "graph6": emit_graph6(g),
        "n": g.n,
        "m": g.m,
        "delta": stats.max_degree,
        "min_degree": stats.min_degree,
        "average_degree": f"{2 * g.m}/{g.n}",
        "girth": None if shortest == math.inf else int(shortest),
        "connected": connected,
        "gamma": bond.gamma_before,
        "b": bond.b,
        "b_witness": [list(e) for e in bond.witness_edges],
        "bprime": bp.b_prime if bp else None,
        "bprime_edge_term": bp.edge_term if bp else None,
        "bprime_ad_term": bp.ad_term if bp else None,
    }
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        for key, value in data.items():
            shown = "inf" if key == "girth" and value is None else value
            print(f"{key}: {shown}")
    return 0


def _verdict(search: ChiSearchResult | SideResult | None) -> dict | None:
    """What ``chi`` reports of a whole search or of one of its sides."""
    if search is None:
        return None
    return {"chi": search.chi, "certified": search.certified}


def _cmd_chi(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    result = max_euler_characteristic(
        g,
        budget=args.budget,
        orientable_only=args.orientable_only,
    )
    if args.strict and not result.certified:
        _error(_STRICT_EXHAUSTED)
        return 3
    data = {
        "graph6": emit_graph6(g),
        **_verdict(result),
        "steps_used": result.steps_used,
        "orientable": _verdict(result.orientable),
        "nonorientable": _verdict(result.nonorientable),
    }
    if args.witness:
        data["witness"] = None if result.witness is None else result.witness.to_json_dict()
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        print(f"chi: {result.chi} (certified: {result.certified})")
        print(f"orientable side: {data['orientable']}")
        print(f"nonorientable side: {data['nonorientable']}")
        if args.witness:
            print("witness:", json.dumps(data["witness"]))
    return 0


# The bounds parameters that --graph6 derives from the graph itself.
_DERIVED = ("delta", "chi", "girth", "n", "m", "genus_h", "genus_k")


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.graph6 is not None:
        given = ["--" + name.replace("_", "-") for name in _DERIVED
                 if getattr(args, name) is not None]
        if given:
            _error(f"--graph6 derives every parameter; drop {', '.join(given)}")
            return 2
        g = parse_graph6(args.graph6)
        search = max_euler_characteristic(g, budget=args.budget)
        if not search.certified:
            _error("chi search did not certify an exact value; rerun with a larger --budget")
            return 3
        p = graph_params(g, search)
    else:
        if args.delta is None or args.chi is None:
            _error("either --graph6 or both --delta and --chi are required")
            return 2
        p = bnd.BoundParams(args.delta, args.chi, args.girth, args.n, args.m,
                            args.genus_h, args.genus_k)
    report = bnd.build_bound_report(p.delta, p.chi, girth=p.girth, n=p.n, m=p.m, h=p.h, k=p.k)
    if args.format == "json":
        payload = {
            "delta": report.delta,
            "chi": report.chi,
            "entries": [
                {
                    "name": e.name,
                    "additive_term": e.additive_term,
                    "bound": e.bound_value,
                    "applicable": e.applicable,
                    "provenance": e.provenance,
                }
                for e in report.entries
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"delta={report.delta} chi={report.chi}")
        for e in report.entries:
            if e.applicable:
                print(f"{e.name:<16} bound={e.bound_value:<4} term={e.additive_term:<3} [{e.provenance}]")
            else:
                print(f"{e.name:<16} not applicable")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    out = emit_comparison_table(args.chi_from, args.chi_to, args.format)
    sys.stdout.write(out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.corpus == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.corpus, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    records, summary = verify_corpus(lines, budget=args.budget, jobs=args.threads)
    if args.strict and any(rec.connected and not rec.chi_certified for rec in records):
        _error(_STRICT_EXHAUSTED)
        return 3
    sys.stdout.write(emit_report(records, args.format, summary))
    if args.format == "text":
        print(
            f"graphs={summary.graphs} malformed={summary.malformed} "
            f"failures={summary.failures}"
        )
        for name, counts in summary.per_check.items():
            print(f"  {name}: pass={counts['pass']} fail={counts['fail']} skip={counts['skip']}")
    for graph6 in summary.bprime_counterexamples:
        print(
            f"bondlab: warning: bondage number exceeds the b' proxy for {graph6} "
            "(the floored average-degree term is not a valid upper bound here)",
            file=sys.stderr,
        )
    return 0 if summary.failures == 0 else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    for g in enumerate_connected_graphs(args.max_n):
        print(emit_graph6(g))
    return 0


def _cmd_families(args: argparse.Namespace) -> int:
    g = make_family(args.family, *args.params)
    print(emit_graph6(g))
    return 0


_COMMANDS = {
    "invariants": _cmd_invariants,
    "chi": _cmd_chi,
    "bounds": _cmd_bounds,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
    "families": _cmd_families,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # an OSError, so it is caught first
        return 0
    except (GraphFormatError, ValueError, OverflowError, OSError) as exc:
        _error(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
