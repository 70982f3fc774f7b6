"""The three workloads: what one request does and what its answer must be.

A request is one user-visible query through the public library API; it
returns its answer in a hashable form, so that the run can keep a hash of it.
After the timed loop, ``reference(ctx)`` gives the expected answer of each
request, computed independently of the engine: by the Hellings-style oracle,
and for paths by brute-force walk enumeration filtered by the oracle's word
membership.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator

import generators
from cfpq import (
    Graph,
    Grammar,
    ParseTable,
    PathQueryLimits,
    QueryEngine,
    accepts,
    enumerate_paths,
    format_path,
    format_triples,
    hellings_pairs,
    hellings_slice,
    load_ntriples,
    load_tsv,
    run_query,
    size_audit,
)

PATH_LIMITS = PathQueryLimits(max_paths=20, max_length=8)
PATH_PAIRS = 12


@dataclass
class Context:
    graph: Graph
    grammar: Grammar
    table: ParseTable


def query(ctx: Context, tracer, starts=None):
    """``run_query`` as a user calls it; traced, its two halves are timed apart."""
    if not tracer.enabled:
        return run_query(ctx.graph, ctx.grammar, starts, table=ctx.table)
    engine = tracer.call("engine.init", QueryEngine, ctx.graph, ctx.grammar, starts, table=ctx.table)
    return tracer.call("engine.run", engine.run)


def shuffled_cycle(items, seed: str) -> Iterator:
    """The items in a seeded order, reshuffled on every pass.  With the timing
    window set to one pass, every window holds the same requests."""
    rng = random.Random(seed)
    order = list(items)
    while True:
        rng.shuffle(order)
        yield from order


class Workload:
    def inline_check(self, result) -> bool:
        """Checks that need the live result, made right after each request."""
        return True

    def paths(self, answer) -> tuple:
        """The edge sequences of the paths a request emitted."""
        return ()


class Dense(Workload):
    """g0 on K32, all vertices to all vertices: engine and forest interning."""

    name = "dense"
    grammar = "g0"
    load = staticmethod(load_tsv)
    generate = staticmethod(generators.dense_tsv)
    setup_batch = 25  # about 0.1 s of set-ups
    count_window = 1
    window = 4  # requests per timing window, a few seconds' worth
    windows = 4

    def params(self, ctx: Context, seed: int) -> Iterator:
        """The seed's request sequence; it holds no reference to ``ctx``."""
        return repeat("all")

    def request(self, ctx: Context, param, tracer):
        result = query(ctx, tracer)
        pairs = tracer.call("results.roots", result.root_pairs)
        triples = tracer.call("results.triples", format_triples, result)
        return result, (frozenset(pairs), triples)

    def inline_check(self, result) -> bool:
        return all(check.ok for check in size_audit(result))

    def reference(self, ctx: Context) -> Callable[[object], object]:
        pairs = hellings_slice(ctx.graph, ctx.grammar, "S")
        triples = "".join(sorted(f"S\t{u}\t{v}\n" for u, v in pairs))
        return lambda param: (frozenset(pairs), triples)


class Ontology(Workload):
    """q1 single-source lookups on a ~12k-vertex layered hierarchy."""

    name = "ontology"
    grammar = "q1"
    load = staticmethod(load_ntriples)
    generate = staticmethod(generators.ontology_ntriples)
    setup_batch = 2
    count_window = 200
    window = generators.ONTOLOGY_SOURCES
    windows = 3

    def params(self, ctx: Context, seed: int) -> Iterator:
        # One pass over the sample is one timing window, so every window asks
        # the same lookups and windows differ only in how the host ran them.
        sources = [ctx.graph.resolve_vertex(name) for name in generators.ontology_sources(seed)]
        return shuffled_cycle(sources, f"ontology-requests-{seed}")

    def request(self, ctx: Context, source, tracer):
        result = query(ctx, tracer, {source})
        return result, frozenset(tracer.call("results.roots", result.root_pairs))

    def reference(self, ctx: Context) -> Callable[[object], object]:
        by_source: dict[int, set] = defaultdict(set)
        for label, u, v in hellings_pairs(ctx.graph, ctx.grammar):
            if label == "S":
                by_source[u].add((u, v))
        return lambda source: frozenset(by_source.get(source, ()))


class Paths(Workload):
    """g0 on a 20-vertex sparse graph, then up to 20 paths of length <= 8."""

    name = "paths"
    grammar = "g0"
    load = staticmethod(load_tsv)
    generate = staticmethod(generators.sparse_tsv)
    setup_batch = 200
    count_window = 4
    window = PATH_PAIRS
    windows = 3

    def params(self, ctx: Context, seed: int) -> Iterator:
        # A fixed sample of the oracle's pairs, chosen in structural vertex
        # numbering so that every seed asks the same questions up to renaming;
        # one pass over it is one timing window.  The oracle, not the engine,
        # supplies the pairs, so a wrong root set cannot steer the draw.
        ids = generators.sparse_ids(seed)
        structural = {seed_id: index for index, seed_id in enumerate(ids)}
        pairs = sorted(
            (structural[s], structural[t]) for s, t in hellings_slice(ctx.graph, ctx.grammar, "S")
        )
        sample = random.Random("paths-pairs").sample(pairs, PATH_PAIRS)
        return shuffled_cycle([(ids[s], ids[t]) for s, t in sample], f"paths-requests-{seed}")

    def request(self, ctx: Context, pair, tracer):
        result = query(ctx, tracer)
        source, target = pair
        paths = tracer.call("results.paths", list, enumerate_paths(result, source, target, PATH_LIMITS))
        lines = tuple(format_path(path, ctx.graph) for path in paths)
        return result, (tuple(path.edges for path in paths), lines)

    def paths(self, answer) -> tuple:
        return answer[0]

    def reference(self, ctx: Context) -> Callable[[object], object]:
        out_edges: dict[int, list] = defaultdict(list)
        for edge in ctx.graph.edges():
            out_edges[edge[0]].append(edge)
        accepted: dict[tuple[str, ...], bool] = {}

        def walks(source: int):
            frontier: list[tuple] = [()]
            for _ in range(PATH_LIMITS.max_length):
                frontier = [
                    walk + (edge,)
                    for walk in frontier
                    for edge in out_edges[walk[-1][2] if walk else source]
                ]
                yield from frontier

        def reference_paths(pair: tuple[int, int]) -> tuple:
            source, target = pair
            found = []
            for walk in walks(source):
                if walk[-1][2] != target:
                    continue
                word = tuple(edge[1] for edge in walk)
                if word not in accepted:
                    accepted[word] = accepts(ctx.grammar, word)
                if accepted[word]:
                    found.append(walk)
            found.sort(key=lambda walk: (len(walk), walk))
            found = found[: PATH_LIMITS.max_paths]
            lines = tuple(
                " ".join([str(source), *(f"-{label}-> {v}" for _, label, v in walk)])
                for walk in found
            )
            return tuple(found), lines

        return reference_paths


WORKLOADS = {w.name: w for w in (Dense(), Ontology(), Paths())}
