"""Command-line front end: every capability, scriptable and reproducible.

Exit codes: 0 success, 1 verification failure or error, 2 usage error,
3 budget exhaustion: in strict mode, or when ``bounds --graph6`` cannot
certify chi.  Errors go to stderr prefixed ``bondlab: error:``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

from . import bounds as bnd
from .bondage import bondage_number, compute_b_prime
from .embedding import (
    DEFAULT_BUDGET,
    BudgetExceededError,
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


_BONDAGE_CAP_HELP = (
    "largest witness size the bondage search tries (default: max degree + min "
    "degree - 1, a proven upper bound); a b above it is reported as exceeding "
    "the cap, with no value"
)


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


def _default_threads() -> int:
    env = os.environ.get("BONDLAB_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bondlab",
        description="Exact bondage-number laboratory: invariants, embeddings, bounds.",
    )
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="key=value file of defaults mirroring the long flags; flags win",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="face-tracing step budget for the chi search (a hard cap)")
        p.add_argument("--strict", action="store_true",
                       help="treat budget exhaustion as an error (exit 3)")

    p = sub.add_parser("invariants", help="gamma, bondage, proxy, girth, degrees")
    p.add_argument("graph", nargs="?", default="-", help="graph6 string or - for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--bondage-cap", type=int, default=None, help=_BONDAGE_CAP_HELP)

    p = sub.add_parser("chi", help="maximum Euler characteristic search")
    p.add_argument("graph", nargs="?", default="-", help="graph6 string or - for stdin")
    p.add_argument("--witness", action="store_true", help="print a witness rotation system")
    p.add_argument("--orientable-only", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_budget_flags(p)

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
    add_budget_flags(p)

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
    p.add_argument("--threads", type=int, default=_default_threads(),
                   help="parallel verification workers (BONDLAB_THREADS)")
    p.add_argument("--bondage-cap", type=int, default=None, help=_BONDAGE_CAP_HELP)
    add_budget_flags(p)

    p = sub.add_parser("enumerate", help="connected graphs up to isomorphism, n <= 7")
    p.add_argument("--max-n", type=int, required=True)

    p = sub.add_parser("families", help="emit a named family member as graph6")
    p.add_argument("family", choices=FAMILY_NAMES)
    p.add_argument("params", nargs="*", type=int)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Fold --config key=value pairs in as defaults; explicit flags win."""
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        parser.error("--config needs a path")
    path = argv[at + 1]
    rest = argv[:at] + argv[at + 2:]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        parser.error(f"cannot read config: {exc}")
    extra: list[str] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"config line {ln}: expected key=value")
        key, value = line.split("=", 1)
        flag = "--" + key.strip().replace("_", "-")
        if flag in rest:
            continue  # explicit flag wins
        if value.strip().lower() in ("true", "yes", "on"):
            extra.append(flag)
        else:
            extra.extend([flag, value.strip()])
    return rest + extra


def _cmd_invariants(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    if g.m < 1:
        _error("graph has no edges; bondage is undefined")
        return 1
    stats = degree_stats(g)
    shortest = girth(g)
    connected = g.is_connected()
    bond = bondage_number(g, cap=args.bondage_cap)
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
        "b_witness": [list(e) for e in bond.witness_edges] if bond.witness_edges else None,
        "b_exceeded_cap": bond.exceeded_cap,
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
        strict=args.strict,
        orientable_only=args.orientable_only,
    )
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


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.graph6 is not None:
        g = parse_graph6(args.graph6)
        search = max_euler_characteristic(g, budget=args.budget, strict=args.strict)
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
            "details": report.details,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"delta={report.delta} chi={report.chi}")
        for e in report.entries:
            if e.applicable:
                print(f"{e.name:<16} bound={e.bound_value:<4} term={e.additive_term:<3} [{e.provenance}]")
            else:
                print(f"{e.name:<16} not applicable")
        for key, value in report.details.items():
            print(f"detail {key} = {value:.9f}")
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
    records, summary = verify_corpus(
        lines,
        budget=args.budget,
        strict=args.strict,
        bondage_cap=args.bondage_cap,
        jobs=args.threads,
    )
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
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _apply_config(parser, argv)
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        _error(str(exc))
        return 3
    except (GraphFormatError, ValueError, OverflowError) as exc:
        _error(str(exc))
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
