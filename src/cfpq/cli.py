"""Command-line driver: query, paths, bench and stats subcommands.

Exit status contract: 0 for a non-empty result, 1 for an empty result
(outputs are still written), 2 for input or flag errors.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path as FsPath

from . import bench as bench_mod
from .engine import run_query, size_audit
from .grammar import Grammar, GrammarError, build_parse_table, parse_grammar
from .graph import Graph, GraphFormatError, format_path, load_ntriples, load_tsv
from .results import PathQueryLimits, enumerate_paths, format_triples
from .sppf import export_dot, export_json

BUILTIN_GRAMMARS = ("g0", "g1", "g2", "q1", "q2")

EXIT_MATCH = 0
EXIT_EMPTY = 1
EXIT_ERROR = 2


class CliError(Exception):
    """User-facing input problem; maps to exit status 2."""


def load_builtin_grammar(name: str) -> Grammar:
    if name not in BUILTIN_GRAMMARS:
        raise CliError(f"unknown built-in grammar {name!r}")
    text = resources.files("cfpq").joinpath(f"data/{name}.cfg").read_text(encoding="utf-8")
    return parse_grammar(text)


def _load_grammar(spec: str) -> Grammar:
    if spec in BUILTIN_GRAMMARS and not FsPath(spec).exists():
        return load_builtin_grammar(spec)
    try:
        text = FsPath(spec).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read grammar {spec!r}: {exc}") from exc
    return parse_grammar(text)


def _load_graph(args: argparse.Namespace) -> Graph:
    try:
        text = FsPath(args.graph).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read graph {args.graph!r}: {exc}") from exc
    if args.format == "ntriples":
        return load_ntriples(text, inverse_suffix=args.inverse_suffix)
    return load_tsv(text)


def _parse_vertex_set(graph: Graph, spec: str) -> frozenset[int] | None:
    if spec == "all":
        return None
    vertices = set()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            vertices.add(graph.resolve_vertex(token))
        except KeyError as exc:
            raise CliError(str(exc)) from exc
    if not vertices:
        raise CliError(f"empty vertex list {spec!r}")
    return frozenset(vertices)


def _run_from_args(args: argparse.Namespace):
    grammar = _load_grammar(args.grammar)
    graph = _load_graph(args)
    starts = _parse_vertex_set(graph, args.starts)
    finals = _parse_vertex_set(graph, args.finals)
    table = build_parse_table(grammar, lookahead=not args.no_lookahead)
    result = run_query(
        graph,
        grammar,
        starts,
        finals,
        table=table,
        worklist=args.worklist,
    )
    return grammar, graph, result


def _write_sppf(args: argparse.Namespace, result) -> None:
    if not args.sppf:
        return
    out = FsPath(args.sppf)
    if out.suffix == ".dot":
        text = export_dot(result.sppf, result.roots, verbose=args.sppf_verbose,
                          simplify=args.sppf_simplify)
    elif out.suffix == ".json":
        text = export_json(result.sppf, result.roots, verbose=args.sppf_verbose,
                           simplify=args.sppf_simplify, indent=2)
    else:
        raise CliError(f"unknown forest format {out.suffix!r} (use .dot or .json)")
    out.write_text(text, encoding="utf-8")


def cmd_query(args: argparse.Namespace) -> int:
    grammar, _, result = _run_from_args(args)
    nonterminal = args.nonterminal or grammar.start
    if nonterminal not in grammar.nonterminals:
        raise CliError(f"unknown nonterminal {nonterminal!r}")
    triples = format_triples(result, nonterminal)
    if args.triples:
        FsPath(args.triples).write_text(triples, encoding="utf-8")
    else:
        sys.stdout.write(triples)
    _write_sppf(args, result)
    print(f"roots: {len(result.roots)}", file=sys.stderr)
    return EXIT_MATCH if result.success else EXIT_EMPTY


def cmd_paths(args: argparse.Namespace) -> int:
    if args.max_count < 1 or args.max_length < 1:
        raise CliError("--max-count and --max-length must be at least 1")
    grammar, graph, result = _run_from_args(args)
    try:
        source = graph.resolve_vertex(args.source)
        target = graph.resolve_vertex(args.target)
    except KeyError as exc:
        raise CliError(str(exc)) from exc
    limits = PathQueryLimits(max_paths=args.max_count, max_length=args.max_length)
    emitted = 0
    for path in enumerate_paths(result, source, target, limits):
        print(format_path(path, graph))
        emitted += 1
    return EXIT_MATCH if emitted else EXIT_EMPTY


def cmd_stats(args: argparse.Namespace) -> int:
    grammar, graph, result = _run_from_args(args)
    stats = result.sppf.stats()
    print(f"graph: {graph.vertex_count} vertices, {graph.edge_count} edges")
    print(
        f"grammar: {len(grammar.nonterminals)} nonterminals, "
        f"{len(grammar.productions)} productions, {len(grammar.slots())} slots, "
        f"{grammar.return_slot_count} return slots"
    )
    print(
        f"sppf nodes: terminal={stats.terminal} epsilon={stats.epsilon} "
        f"nonterminal={stats.nonterminal} intermediate={stats.intermediate} "
        f"packed={stats.packed} total={stats.nodes} edges={stats.edges}"
    )
    print(
        f"engine: descriptors={result.engine.descriptors} "
        f"gss_nodes={result.engine.gss_nodes} gss_edges={result.engine.gss_edges}"
    )
    for check in size_audit(result):
        verdict = "PASS" if check.ok else "FAIL"
        print(f"{check.name}: {check.value} vs {check.bound} {verdict}")
    return EXIT_MATCH if result.success else EXIT_EMPTY


def _parse_sizes(spec: str) -> list[int]:
    try:
        if ".." in spec:
            low, high = spec.split("..", 1)
            sizes = list(range(int(low), int(high) + 1))
        else:
            sizes = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"bad --sizes value {spec!r}") from exc
    if not sizes:
        raise CliError("size range is empty")
    if min(sizes) < 1:
        raise CliError("sizes must be at least 1")
    return sizes


def cmd_bench(args: argparse.Namespace) -> int:
    grammar = _load_grammar(args.grammar)
    sizes = _parse_sizes(args.sizes)
    records = bench_mod.run_sweep(
        grammar,
        grammar_id=args.grammar,
        sizes=sizes,
        with_loops=args.with_loops,
        repeats=args.repeats,
    )
    for r in records:
        print(
            f"n={r.n} time_ms={r.time_ms:.3f} sppf_nodes={r.sppf_nodes} "
            f"gss_nodes={r.gss_nodes} descriptors={r.descriptors}"
        )
    ns = [r.n for r in records]
    if len(records) >= len(bench_mod.NODE_FIT_POWERS):
        coeffs, r2 = bench_mod.fit_polynomial(
            ns, [r.sppf_nodes for r in records], bench_mod.NODE_FIT_POWERS
        )
        print(f"nodes fit: {bench_mod.format_fit(coeffs, bench_mod.NODE_FIT_POWERS)} "
              f"(R^2={r2:.6f})")
    if len(records) >= len(bench_mod.TIME_FIT_POWERS):
        coeffs, r2 = bench_mod.fit_polynomial(
            ns, [r.time_ms for r in records], bench_mod.TIME_FIT_POWERS
        )
        print(f"time fit: {bench_mod.format_fit(coeffs, bench_mod.TIME_FIT_POWERS)} "
              f"(R^2={r2:.6f})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            bench_mod.write_csv(records, fh)
    return EXIT_MATCH


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", required=True, help="graph file")
    parser.add_argument("--grammar", required=True,
                        help=f"grammar file or one of {', '.join(BUILTIN_GRAMMARS)}")
    parser.add_argument("--format", choices=("tsv", "ntriples"), default="tsv",
                        help="graph file format (default tsv)")
    parser.add_argument("--inverse-suffix", default="_r",
                        help="label suffix for inverse edges in ntriples input")
    parser.add_argument("--starts", default="all",
                        help="comma-separated start vertices, or 'all'")
    parser.add_argument("--finals", default="all",
                        help="comma-separated final vertices, or 'all'")
    parser.add_argument("--no-lookahead", action="store_true",
                        help="predict every alternative instead of using the table")
    parser.add_argument("--worklist", choices=("lifo", "fifo"), default="lifo",
                        help="descriptor processing order")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfpq",
        description="Context-free path querying over edge-labeled directed graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="run a query and emit result triples")
    _add_input_flags(query)
    query.add_argument("--nonterminal", help="nonterminal to report (default: start symbol)")
    query.add_argument("--triples", help="write result triples to this TSV file")
    query.add_argument("--sppf", help="write the result forest to this .dot or .json file")
    query.add_argument("--sppf-verbose", action="store_true",
                       help="include packed-node labels in the forest export")
    query.add_argument("--sppf-simplify", action="store_true",
                       help="collapse single-alternative packed nodes in the export")
    query.set_defaults(func=cmd_query)

    paths = sub.add_parser("paths", help="enumerate matching paths between two vertices")
    _add_input_flags(paths)
    paths.add_argument("--from", dest="source", required=True, help="path start vertex")
    paths.add_argument("--to", dest="target", required=True, help="path end vertex")
    paths.add_argument("--max-count", type=int, default=10, help="maximum paths to print")
    paths.add_argument("--max-length", type=int, default=16, help="maximum path length in edges")
    paths.set_defaults(func=cmd_paths)

    stats = sub.add_parser("stats", help="print forest/stack statistics and size audits")
    _add_input_flags(stats)
    stats.set_defaults(func=cmd_stats)

    bench = sub.add_parser("bench", help="benchmark complete graphs and fit growth trends")
    bench.add_argument("--grammar", required=True,
                       help=f"grammar file or one of {', '.join(BUILTIN_GRAMMARS)}")
    bench.add_argument("--sizes", required=True, help="vertex counts, e.g. 2..16 or 2,4,8")
    bench.add_argument("--with-loops", action="store_true",
                       help="include self-loop edges in the generated graphs")
    bench.add_argument("--repeats", type=int, default=1,
                       help="timing repetitions per size (median is reported)")
    bench.add_argument("--out", help="write records to this CSV file")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, GrammarError, GraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
