"""Command-line front end.

Verbs: derive, check (aiasl | iasi | balance | cluster), transform
(subdivide | homeo | delete-vertex | span), enumerate, verify. All output is
plain text with machine-readable key=value lines; identical inputs always
produce byte-identical output.

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
from .graphs import DEFAULT_CYCLE_BOUND, Graph, format_graph, parse_graph
from .intsets import Sign, parse_digits
from .labeling import (
    Labeling,
    SignedLabeledGraph,
    derive,
    format_labeling,
    iasi_collisions,
    parse_labeling,
    validate_aiasl,
    validate_iasi,
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


def _load_graph(path: str) -> Graph:
    return parse_graph(_read(path))


def _load_labeling(path: str) -> Labeling:
    return parse_labeling(_read(path))


def _load_derived(args) -> SignedLabeledGraph:
    g = _load_graph(args.graph)
    lab = _load_labeling(args.labeling)
    return derive(g, lab, strict=args.strict_universe)


def _default_cycle_bound() -> int:
    raw = os.environ.get(ENV_CYCLE_BOUND)
    if raw is None:
        return DEFAULT_CYCLE_BOUND
    return parse_digits(raw, f"{ENV_CYCLE_BOUND} value")


def _emit(out, text: str) -> None:
    out.write(text if text.endswith("\n") else text + "\n")


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
        _emit(out, f"{u} {v} : {label.to_text()} {sign}")
    _emit(out, f"EDGES={slg.graph.m}")
    _emit(out, f"POSITIVE={positive}")
    _emit(out, f"NEGATIVE={slg.graph.m - positive}")
    return EXIT_OK


def _cmd_check(args, out) -> int:
    slg = _load_derived(args)
    if args.property == "aiasl":
        check = validate_aiasl(slg)
        for v, reason in check.vertex_failures:
            _emit(out, f"vertex {v} : {reason}")
        for (u, w), reason in check.edge_failures:
            _emit(out, f"edge {u} {w} : {reason}")
        _emit(out, f"AIASL={'true' if check.ok else 'false'}")
        return EXIT_OK if check.ok else EXIT_PROPERTY_FAILS
    if args.property == "iasi":
        ok = validate_iasi(slg)
        for e1, e2 in iasi_collisions(slg):
            _emit(
                out,
                f"collision: {e1[0]} {e1[1]} and {e2[0]} {e2[1]} share "
                f"{slg.edge_labels[e1].to_text()}",
            )
        _emit(out, f"IASI={'true' if ok else 'false'}")
        return EXIT_OK if ok else EXIT_PROPERTY_FAILS
    if args.property == "balance":
        balanced, summaries = is_balanced_oracle(slg, cycle_bound=args.cycle_bound)
        for summary in summaries:
            _emit(
                out,
                f"cycle {' '.join(summary.cycle)} : negatives={summary.negative_edge_count} "
                f"sign={summary.sign_product}",
            )
        fast_balanced, partition = is_balanced_fast(slg)
        assert fast_balanced == balanced
        if partition is not None:
            _emit(out, f"camp1 = {' '.join(partition[0])}")
            _emit(out, f"camp2 = {' '.join(partition[1])}")
        _emit(out, f"BALANCED={'true' if balanced else 'false'}")
        return EXIT_OK if balanced else EXIT_PROPERTY_FAILS
    if args.property == "cluster":
        result = is_clusterable(slg)
        if result.clusterable:
            assert result.clusters is not None
            for i, cluster in enumerate(result.clusters, start=1):
                _emit(out, f"cluster {i} : {' '.join(cluster)}")
        elif result.violating_cycle is not None:
            _emit(out, f"violating_cycle = {' '.join(result.violating_cycle)}")
        _emit(out, f"CLUSTERABLE={'true' if result.clusterable else 'false'}")
        return EXIT_OK if result.clusterable else EXIT_PROPERTY_FAILS
    raise ParseError(f"unknown check property {args.property!r}")


def _emit_transform(args, out, outcome: TransformOutcome, extra: list[str]) -> int:
    graph_text = format_graph(outcome.result.graph)
    labeling_text = format_labeling(outcome.result.labeling)
    # The files first: an unwritable one is an input error with empty stdout.
    if args.out_graph:
        _write(args.out_graph, graph_text)
    if args.out_labeling:
        _write(args.out_labeling, labeling_text)
    _emit(out, "-- graph --")
    out.write(graph_text)
    _emit(out, "-- labeling --")
    out.write(labeling_text)
    _emit(out, "-- provenance --")
    for line in outcome.provenance_lines():
        _emit(out, line)
    for line in extra:
        _emit(out, line)
    return EXIT_OK


def _parse_edge_arg(text: str) -> tuple[str, str]:
    parts = text.split()
    if len(parts) != 2:
        raise ParseError(f"expected an edge as 'u v', got {text!r}")
    return parts[0], parts[1]


def _cmd_transform(args, out) -> int:
    slg = _load_derived(args)
    extra: list[str] = []
    if args.operation == "subdivide":
        outcome = subdivide_edge(slg, _parse_edge_arg(args.edge))
    elif args.operation == "homeo":
        outcome = elementary_transformation(slg, args.vertex)
    elif args.operation == "delete-vertex":
        outcome = delete_vertex(slg, args.vertex)
    elif args.operation == "span":
        keep = [_parse_edge_arg(e) for e in args.keep]
        outcome, removed_negatives = spanned_subgraph(slg, keep)
        extra.append(f"REMOVED_NEGATIVE_EDGES={removed_negatives}")
    else:
        raise ParseError(f"unknown transform {args.operation!r}")
    return _emit_transform(args, out, outcome, extra)


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
    g = _load_graph(args.graph)
    count = 0
    for lab in enumerate_aiasl(g, _bounds(args)):
        count += 1
        if args.limit is None or count <= args.limit:
            _emit(
                out,
                " ".join(f"{v}={s.to_text()}" for v, s in lab.items()),
            )
    _emit(out, f"COUNT={count}")
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
    p.add_argument("property", choices=["aiasl", "iasi", "balance", "cluster"])
    _add_io_arguments(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("transform", help="apply a labeled-graph operation")
    p.add_argument(
        "operation", choices=["subdivide", "homeo", "delete-vertex", "span"]
    )
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


def _validate_transform_args(args) -> None:
    if args.command != "transform":
        return
    if args.operation == "subdivide" and not args.edge:
        raise ParseError("transform subdivide needs --edge 'u v'")
    if args.operation in ("homeo", "delete-vertex") and not args.vertex:
        raise ParseError(f"transform {args.operation} needs --vertex")
    if args.operation == "span" and not args.keep:
        raise ParseError("transform span needs at least one --keep 'u v'")


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
            args.cycle_bound = _default_cycle_bound()
        _validate_transform_args(args)
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
