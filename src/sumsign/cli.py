"""Command-line front end.

Verbs: derive, check, transform, enumerate, verify. Each check property
(aiasl | iasi | balance | cluster) is one entry of ``_CHECKS`` and each
transform operation (subdivide | homeo | delete-vertex | span) one entry of
``_TRANSFORMS``: the parser's choices, the transform operand check and the
dispatch all read those two tables. All output is plain text with
machine-readable key=value lines; identical inputs always produce
byte-identical output.

Exit codes: 0 the requested property holds (or the command succeeded),
1 the property fails, 2 input error, 3 a search bound was exceeded.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

from .balance import is_balanced_fast, is_balanced_oracle, is_clusterable
from .errors import BoundExceeded, ParseError, SumsignError
from .graphs import DEFAULT_CYCLE_BOUND, format_graph, parse_graph
from .intsets import Sign, parse_digits
from .labeling import (
    SignedLabeledGraph,
    derive,
    format_labeling,
    iasi_collisions,
    parse_labeling,
    validate_aiasl,
)
from .transforms import (
    TransformOutcome,
    delete_vertex,
    elementary_transformation,
    spanned_subgraph,
    subdivide_edge,
)
from .verify import SearchBounds, Verdict, enumerate_aiasl, verify_theorem

ENV_CYCLE_BOUND = "SUMSIGN_CYCLE_BOUND"

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1


def _read(path: str) -> str:
    try:
        # utf-8-sig drops a leading byte-order mark, as Windows editors write.
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}") from None


def _load_derived(args) -> SignedLabeledGraph:
    graph = parse_graph(_read(args.graph))
    labeling = parse_labeling(_read(args.labeling))
    return derive(graph, labeling, strict=args.strict_universe)


def _verdict(out, key: str, holds: bool) -> int:
    """Write the ``KEY=true|false`` line and return the matching exit code."""
    print(f"{key}={'true' if holds else 'false'}", file=out)
    return EXIT_OK if holds else EXIT_PROPERTY_FAILS


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def _cmd_derive(args, out) -> int:
    slg = _load_derived(args)
    positive = 0
    for u, v in slg.graph.edges:
        label = slg.edge_labels[(u, v)]
        sign = slg.signs[(u, v)]
        if sign is Sign.POSITIVE:
            positive += 1
        print(f"{u} {v} : {label.to_text()} {sign}", file=out)
    print(f"EDGES={slg.graph.m}", file=out)
    print(f"POSITIVE={positive}", file=out)
    print(f"NEGATIVE={slg.graph.m - positive}", file=out)
    return EXIT_OK


# Each check property writes its lines as it goes, then returns its KEY and
# whether the property holds.

def _check_aiasl(args, slg, out) -> tuple[str, bool]:
    check = validate_aiasl(slg)
    for v, reason in check.vertex_failures:
        print(f"vertex {v} : {reason}", file=out)
    for (u, w), reason in check.edge_failures:
        print(f"edge {u} {w} : {reason}", file=out)
    return "AIASL", check.ok


def _check_iasi(args, slg, out) -> tuple[str, bool]:
    collisions = iasi_collisions(slg)
    for e1, e2 in collisions:
        print(
            f"collision: {e1[0]} {e1[1]} and {e2[0]} {e2[1]} share "
            f"{slg.edge_labels[e1].to_text()}",
            file=out,
        )
    return "IASI", not collisions


def _check_balance(args, slg, out) -> tuple[str, bool]:
    balanced, summaries = is_balanced_oracle(slg, cycle_bound=args.cycle_bound)
    for summary in summaries:
        print(
            f"cycle {' '.join(summary.cycle)} : negatives={summary.negative_edge_count} "
            f"sign={summary.sign_product}",
            file=out,
        )
    fast_balanced, partition = is_balanced_fast(slg)
    assert fast_balanced == balanced
    if partition is not None:
        print(f"camp1 = {' '.join(partition[0])}", file=out)
        print(f"camp2 = {' '.join(partition[1])}", file=out)
    return "BALANCED", balanced


def _check_cluster(args, slg, out) -> tuple[str, bool]:
    result = is_clusterable(slg)
    # Exactly one of the clusters and the violating cycle is given.
    for i, cluster in enumerate(result.clusters or (), start=1):
        print(f"cluster {i} : {' '.join(cluster)}", file=out)
    if result.violating_cycle is not None:
        print(f"violating_cycle = {' '.join(result.violating_cycle)}", file=out)
    return "CLUSTERABLE", result.clusterable


_CHECKS = {
    "aiasl": _check_aiasl,
    "iasi": _check_iasi,
    "balance": _check_balance,
    "cluster": _check_cluster,
}


def _cmd_check(args, out) -> int:
    return _verdict(out, *_CHECKS[args.property](args, _load_derived(args), out))


def _parse_edge_arg(text: str) -> tuple[str, str]:
    parts = text.split()
    if len(parts) != 2:
        raise ParseError(f"expected an edge as 'u v', got {text!r}")
    return parts[0], parts[1]


def _span(args, slg) -> tuple[TransformOutcome, list[str]]:
    keep = [_parse_edge_arg(e) for e in args.keep]
    outcome, removed_negatives = spanned_subgraph(slg, keep)
    return outcome, [f"REMOVED_NEGATIVE_EDGES={removed_negatives}"]


# operation: (the args attribute of the flag it needs, how the error names
# that flag, the call, which returns the outcome and any extra output lines).
_TRANSFORMS = {
    "subdivide": (
        "edge", "--edge 'u v'",
        lambda args, slg: (subdivide_edge(slg, _parse_edge_arg(args.edge)), []),
    ),
    "homeo": (
        "vertex", "--vertex",
        lambda args, slg: (elementary_transformation(slg, args.vertex), []),
    ),
    "delete-vertex": (
        "vertex", "--vertex", lambda args, slg: (delete_vertex(slg, args.vertex), []),
    ),
    "span": ("keep", "at least one --keep 'u v'", _span),
}


def _cmd_transform(args, out) -> int:
    flag, needs, call = _TRANSFORMS[args.operation]
    # The operand is checked before any file is read.
    if not getattr(args, flag):
        raise ParseError(f"transform {args.operation} needs {needs}")
    outcome, extra = call(args, _load_derived(args))
    graph_text = format_graph(outcome.result.graph)
    labeling_text = format_labeling(outcome.result.labeling)
    # The files first: an unwritable one is an input error with empty stdout.
    if args.out_graph:
        _write(args.out_graph, graph_text)
    if args.out_labeling:
        _write(args.out_labeling, labeling_text)
    print("-- graph --", file=out)
    out.write(graph_text)
    print("-- labeling --", file=out)
    out.write(labeling_text)
    print("-- provenance --", file=out)
    for line in [*outcome.provenance_lines(), *extra]:
        print(line, file=out)
    return EXIT_OK


def _bounds(args) -> SearchBounds:
    """The search bounds given by _add_bounds_arguments' flags."""
    return SearchBounds(
        universe_max=args.universe_max,
        max_label_size=args.max_label_size,
        max_vertices=args.max_vertices,
        require_strict_universe=args.strict_universe,
        odd_ratios_only=args.odd_ratios_only,
    )


def _cmd_enumerate(args, out) -> int:
    graph = parse_graph(_read(args.graph))
    count = 0
    for lab in enumerate_aiasl(graph, _bounds(args)):
        count += 1
        if args.limit is None or count <= args.limit:
            print(" ".join(f"{v}={s.to_text()}" for v, s in lab.items()), file=out)
    print(f"COUNT={count}", file=out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    report = verify_theorem(args.theorem, args.family, _bounds(args))
    text = report.to_text()
    if args.out:
        _write(args.out, text)
    out.write(text)
    confirmed = report.verdict is Verdict.CONFIRMED_WITHIN_BOUNDS
    return EXIT_OK if confirmed else EXIT_PROPERTY_FAILS


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_io_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--labeling", required=True, help="labeling file")
    p.add_argument(
        "--strict-universe",
        action="store_true",
        help="require vertex and edge labels to stay inside the universe",
    )


def _digits(flag: str):
    """An argparse type for a numeric flag: ASCII digits only. argparse does
    not catch its ParseError, so main reports it like any input error."""
    return lambda text: parse_digits(text, f"{flag} value")


def _add_bounds_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--universe-max", type=_digits("--universe-max"), required=True)
    p.add_argument("--max-label-size", type=_digits("--max-label-size"), required=True)
    p.add_argument(
        "--max-vertices", type=_digits("--max-vertices"), default=SearchBounds.max_vertices
    )
    p.add_argument("--strict-universe", action="store_true")
    p.add_argument(
        "--odd-ratios-only",
        action="store_true",
        help="restrict to labelings whose every edge ratio is odd",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumsign",
        description="Signed graphs from sumset labelings: derive, check, transform, verify.",
    )
    parser.add_argument(
        "--cycle-bound",
        type=_digits("--cycle-bound"),
        default=None,
        help=f"max vertices for the cycle oracle of 'check balance' "
        f"(default {DEFAULT_CYCLE_BOUND}, env {ENV_CYCLE_BOUND})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="compute edge labels and signs")
    _add_io_arguments(p)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("check", help="check a property of the derived signed graph")
    p.add_argument("property", choices=_CHECKS)
    _add_io_arguments(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("transform", help="apply a labeled-graph operation")
    p.add_argument("operation", choices=_TRANSFORMS)
    _add_io_arguments(p)
    p.add_argument("--edge", help="edge 'u v' (subdivide)")
    p.add_argument("--vertex", help="vertex id (homeo, delete-vertex)")
    p.add_argument(
        "--keep",
        action="append",
        default=[],
        help="edge 'u v' to keep (span; repeatable)",
    )
    p.add_argument("--out-graph", help="also write the resulting graph to this file")
    p.add_argument(
        "--out-labeling", help="also write the resulting labeling to this file"
    )
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("enumerate", help="list admissible labelings of a graph")
    p.add_argument("--graph", required=True)
    _add_bounds_arguments(p)
    p.add_argument("--limit", type=_digits("--limit"), help="print at most N labelings")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run a theorem experiment over a family")
    p.add_argument("--theorem", required=True)
    p.add_argument("--family", required=True, help="e.g. connected:5, triangle, path:6")
    _add_bounds_arguments(p)
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    if out is None:
        if hasattr(signal, "SIGPIPE"):
            # Die quietly when a downstream pipe consumer (e.g. head) closes.
            signal.signal(signal.SIGPIPE, signal.SIG_DFL)
        # Input files are read as UTF-8, so output is written as UTF-8 too,
        # whatever the locale.
        sys.stdout.reconfigure(encoding="utf-8")
        out = sys.stdout
    try:
        args = build_parser().parse_args(argv)
        if args.cycle_bound is None:
            raw = os.environ.get(ENV_CYCLE_BOUND, str(DEFAULT_CYCLE_BOUND))
            args.cycle_bound = parse_digits(raw, f"{ENV_CYCLE_BOUND} value")
        return args.func(args, out)
    except SumsignError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        # Reported below: the traceback holds the exhausted search's frames
        # until this clause ends, and writing the line needs memory.
        pass
    # Running out of memory is a bound the search exceeded, not a verdict.
    print(
        f"error: {BoundExceeded.code}: out of memory; narrow the family or the bounds",
        file=sys.stderr,
    )
    return BoundExceeded.exit_code


if __name__ == "__main__":
    sys.exit(main())
