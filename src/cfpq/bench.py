"""Complete-graph benchmark sweeps and polynomial trend fitting."""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence, TextIO

from .engine import run_query
from .grammar import Grammar
from .graph import complete_graph

CSV_HEADER = "n,grammar,time_ms,sppf_nodes,gss_nodes,descriptors"

NODE_FIT_POWERS = (3, 2, 1)
TIME_FIT_POWERS = (4, 3, 2, 1)


@dataclass(frozen=True)
class BenchRecord:
    n: int
    grammar_id: str
    time_ms: float
    sppf_nodes: int
    gss_nodes: int
    descriptors: int


def run_sweep(
    grammar: Grammar,
    grammar_id: str,
    sizes: Iterable[int],
    *,
    with_loops: bool = False,
    repeats: int = 1,
) -> list[BenchRecord]:
    """Query complete graphs of the given sizes, all vertices to all vertices.

    Each size's time is the median of ``repeats`` runs.  The repeats go
    round-robin over the sizes, so a drift in host speed during the sweep
    hits every size alike instead of bending the trend.
    """
    sizes = sorted(set(sizes))
    if not sizes:
        raise ValueError("size range is empty")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    graphs = [complete_graph(n, grammar.terminals, with_loops=with_loops) for n in sizes]
    times: list[list[float]] = [[] for _ in sizes]
    results = []
    for _ in range(repeats):
        results.clear()
        for graph, size_times in zip(graphs, times):
            started = time.perf_counter()
            results.append(run_query(graph, grammar))
            size_times.append((time.perf_counter() - started) * 1000.0)
    return [
        BenchRecord(
            n=n,
            grammar_id=grammar_id,
            time_ms=statistics.median(size_times),
            sppf_nodes=result.sppf.stats().nodes,
            gss_nodes=result.engine.gss_nodes,
            descriptors=result.engine.descriptors,
        )
        for n, size_times, result in zip(sizes, times, results)
    ]


def fit_polynomial(
    xs: Sequence[float], ys: Sequence[float], powers: Sequence[int]
) -> tuple[tuple[float, ...], float]:
    """Least-squares fit of y over the basis {x**p}, no constant term.

    Returns the coefficients (matching ``powers``) and the R^2 score.  Solves
    the normal equations of the basis columns scaled to unit length, by
    Gauss-Jordan elimination with partial pivoting.  The scaling keeps the
    small bases used here well conditioned: over n = 2..16 the scaled cubic
    basis has condition number ~52 and the quartic ~334.
    """
    if len(set(xs)) < len(powers):
        raise ValueError(f"a fit over {len(powers)} powers needs as many distinct x values")
    columns = [[float(x) ** p for x in xs] for p in powers]
    scales = [math.hypot(*column) for column in columns]
    basis = [[v / scale for v in column] for column, scale in zip(columns, scales)]
    m = len(powers)
    rows = [[sum(map(mul, a, b)) for b in basis] + [sum(map(mul, a, ys))] for a in basis]
    for k in range(m):
        pivot = max(range(k, m), key=lambda r: abs(rows[r][k]))
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for r in range(m):
            if r != k:
                rows[r] = [v - rows[r][k] * w for v, w in zip(rows[r], rows[k])]
    coeffs = tuple(row[m] / scale for row, scale in zip(rows, scales))
    mean = statistics.fmean(ys)
    total = sum((y - mean) ** 2 for y in ys)
    residual = sum(
        (y - sum(c * float(x) ** p for c, p in zip(coeffs, powers))) ** 2 for x, y in zip(xs, ys)
    )
    r2 = 1.0 - residual / total if total > 0 else 1.0
    return coeffs, r2


def format_fit(coeffs: Sequence[float], powers: Sequence[int]) -> str:
    terms = []
    for c, p in zip(coeffs, powers):
        term = f"{c:+.6f}*n" + (f"^{p}" if p > 1 else "")
        terms.append(term)
    return " ".join(terms).lstrip("+")


def write_csv(records: Iterable[BenchRecord], stream: TextIO) -> None:
    """The header, then one row per record; a grammar id holding a comma or
    a quote is quoted."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows(
        (r.n, r.grammar_id, f"{r.time_ms:.3f}", r.sppf_nodes, r.gss_nodes, r.descriptors)
        for r in sorted(records, key=lambda r: (r.grammar_id, r.n))
    )
