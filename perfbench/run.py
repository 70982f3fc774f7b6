#!/usr/bin/env python3
"""End-to-end benchmark of the cfpq library, with an optional traced run.

    python3 perfbench/run.py --workload dense|ontology|paths|all \\
        --seed N --seconds S --trace 0|1

Run from a source checkout: the library is imported from ``src/`` next to
this directory.  One client sends requests in a closed loop from a single
thread for ``--seconds`` seconds.  Every answer is checked after the loop;
the last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, with times scaled to a reference host speed (see
``hostspeed``) and their wall-clock values printed above the result line;
``--trace 1`` alternates untraced and traced requests and reports per-layer
self times (wall-clock), work counts and the tracing overhead.
``--workload all`` runs each workload in a fresh interpreter in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import resources
from pathlib import Path
from time import perf_counter_ns

sys.dont_write_bytecode = True

from hostspeed import REFERENCE_S, HostSpeed, scale  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("dense", "ontology", "paths")
# Set-up is timed in this many batches of ``setup_batch`` set-ups each,
# spread evenly through the run; see ``over_windows``.
SETUP_BATCHES = 12

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_s.p50": "s",
    "queries_per_s": "1/s",
    "export_s.p50": "s",
    "peak_rss_mb": "MB",
}
# Work counts, summed over the first ``count_window`` requests of the seed's
# sequence; they must repeat exactly across runs of one seed.
COUNT_UNITS = {
    "engine.descriptors": "count",
    "engine.gss_nodes": "count",
    "engine.gss_edges": "count",
    "sppf.get_node_p_calls": "count",
    "sppf.packed": "count",
    "sppf.nodes": "count",
    "sppf.edges": "count",
    "sppf.export_bytes": "bytes",
    "results.roots": "count",
    "results.paths": "count",
    "results.path_edges": "count",
}
# Median over requests (set-ups for graph and grammar) of the self time in
# the named spans.
SELF_TIME_SPANS = {
    "graph.load_s": ("graph.load",),
    "grammar.parse_s": ("grammar.parse",),
    "grammar.table_s": ("grammar.table",),
    "engine.init_s": ("engine.init",),
    "engine.run_s": ("engine.run",),
    "sppf.stats_s": ("sppf.stats",),
    "sppf.export_s": ("sppf.export",),
    "results.read_s": ("results.roots", "results.triples", "results.paths"),
}
# Calls that only some workloads make; printed, but left out of the result
# line, whose metrics are the same for every workload.
CALL_SPANS = {
    "results.roots_s": "results.roots",
    "results.triples_s": "results.triples",
    "results.paths_s": "results.paths",
}
PER_LAYER_UNITS = {
    "graph.load_s": "s",
    "graph.vertices": "count",
    "graph.edges": "count",
    "grammar.parse_s": "s",
    "grammar.table_s": "s",
    "engine.init_s": "s",
    "engine.run_s": "s",
    "engine.descriptors": "count",
    "engine.gss_nodes": "count",
    "engine.gss_edges": "count",
    "engine.descriptors_per_s": "1/s",
    "sppf.get_node_p_calls": "count",
    "sppf.packed": "count",
    "sppf.packed_yield": "ratio",
    "sppf.nodes": "count",
    "sppf.edges": "count",
    "sppf.stats_s": "s",
    "sppf.export_s": "s",
    "sppf.export_bytes": "bytes",
    "results.read_s": "s",
    "results.roots": "count",
    "results.paths": "count",
    "results.path_edges": "count",
    "trace.overhead_frac": "ratio",
}


class DeterminismError(RuntimeError):
    """A work count differed between two passes or runs over the same requests."""


def nearest_rank(values: list[float], percent: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[int(rank) - 1]


def over_windows(samples: list, kernel_s: list[float], size: int, count: int, stat) -> float:
    """Median over the first ``count`` windows of ``size`` consecutive samples
    of ``stat`` of the window, scaled to the reference host speed by the
    host-speed kernel times taken alongside the window (``kernel_s``, one per
    sample).

    Scaling removes most of the host's drift; the median over windows removes
    what is left in any one window.  The number of windows is fixed, not
    whatever fits into the run, so that faster code does not get more draws:
    samples past the ``count``-th window are dropped, and a run that
    completes fewer windows uses the ones it has (a last partial window only
    if there is no full one).  ``None`` marks a request without the measured
    step.
    """
    starts = range(0, len(samples) - size + 1, size)
    windows = [(samples[i : i + size], kernel_s[i : i + size]) for i in starts]
    values = []
    for window, kernels in windows[:count] or [(samples, kernel_s)]:
        present = [v for v in window if v is not None]
        if present:
            values.append(scale(stat(present), kernels))
    return statistics.median(values)


def source_digest() -> str:
    """Digest of the library and benchmark sources that the counts depend on."""
    digest = hashlib.sha256()
    files = sorted((SRC / "cfpq").rglob("*.py")) + sorted((SRC / "cfpq").rglob("*.cfg"))
    files += sorted(Path(__file__).resolve().parent.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_counts_across_runs(workload: str, seed: int, counts: dict[str, int]) -> None:
    """Compare the window counts with the last run of this seed on the same sources."""
    path = OUT / f"counts-{workload}-seed{seed}.json"
    record = {"source": source_digest(), "counts": counts}
    if path.is_file():
        previous = json.loads(path.read_text(encoding="utf-8"))
        if previous["source"] == record["source"] and previous["counts"] != counts:
            raise DeterminismError(
                f"counts differ from the previous run of seed {seed}: "
                f"{previous['counts']} != {counts}"
            )
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")


def exported_bytes(result) -> int:
    from cfpq import export_json

    return len(export_json(result.sppf, result.roots)) if result.roots else 0


def count_work(workload, ctx, seed: int) -> dict[str, int]:
    """Work counts over the first ``count_window`` requests, taken twice.

    ``Sppf.get_node_p`` is wrapped to count its calls, so these requests are
    not timed.
    """
    from cfpq import Sppf
    from spans import Direct, counting_calls

    passes = []
    for _ in range(2):
        params = workload.params(ctx, seed)
        window = dict.fromkeys(COUNT_UNITS, 0)
        calls = [0]
        with counting_calls(Sppf, "get_node_p", calls):
            for _ in range(workload.count_window):
                result, answer = workload.request(ctx, next(params), Direct())
                stats = result.sppf.stats()
                paths = workload.paths(answer)
                for key, value in (
                    ("engine.descriptors", result.engine.descriptors),
                    ("engine.gss_nodes", result.engine.gss_nodes),
                    ("engine.gss_edges", result.engine.gss_edges),
                    ("sppf.packed", stats.packed),
                    ("sppf.nodes", stats.nodes),
                    ("sppf.edges", stats.edges),
                    ("sppf.export_bytes", exported_bytes(result)),
                    ("results.roots", len(result.roots)),
                    ("results.paths", len(paths)),
                    ("results.path_edges", sum(len(edges) for edges in paths)),
                ):
                    window[key] += value
                result = None
        window["sppf.get_node_p_calls"] = calls[0]
        passes.append(window)
    if passes[0] != passes[1]:
        raise DeterminismError(f"two passes in one run: {passes[0]} != {passes[1]}")
    return passes[0]


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    from cfpq import build_parse_table, export_json, parse_grammar
    from spans import Direct, Tracer
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[name]
    text = workload.generate(seed)
    grammar_text = resources.files("cfpq").joinpath(f"data/{workload.grammar}.cfg").read_text(
        encoding="utf-8"
    )
    direct = Direct()
    tracer = Tracer() if trace else direct

    host = HostSpeed()
    setup_s: list[list[float]] = []  # set-up times, one list per batch
    setup_kernel_s: list[list[float]] = []  # host-speed kernel times before and after each batch
    setups = 0

    def set_up() -> Context:
        nonlocal setups
        setups += 1
        if trace:
            tracer.request = -setups
        start = perf_counter_ns()
        graph = tracer.call("graph.load", workload.load, text)
        grammar = tracer.call("grammar.parse", parse_grammar, grammar_text)
        table = tracer.call("grammar.table", build_parse_table, grammar)
        setup_s[-1].append((perf_counter_ns() - start) / 1e9)
        return Context(graph, grammar, table)

    def set_up_batch() -> Context:
        """Each set-up replaces the last, so only one graph is live."""
        setup_s.append([])
        before = host.sample(force=True)
        ctx = None
        for _ in range(workload.setup_batch):
            ctx = None
            ctx = set_up()
        setup_kernel_s.append([before, host.sample(force=True)])
        return ctx

    ctx = set_up_batch()
    counts = None
    if trace:
        try:
            counts = count_work(workload, ctx, seed)
        except DeterminismError:
            raise
        except Exception:
            traceback.print_exc()  # reported below as a failed run

    # Closed loop, one client.  Traced runs alternate untraced and traced
    # requests, so that both sides of the overhead see the same machine.
    # Set-up batches are spread evenly through the loop, for the same reason.
    params = workload.params(ctx, seed)
    latency: dict[bool, list[float]] = {False: [], True: []}
    # Per completed untraced request: its export time (None without roots),
    # its time in the loop, from sending it to the end of its export and
    # checks, and the host-speed kernel time last taken before it.
    export_s: list[float | None] = []
    loop_s: list[float] = []
    kernel_s: list[float] = []
    # (request, hash of its answer or None if it raised, inline checks passed);
    # hashes keep memory flat however many requests a run completes.
    answers: list[tuple[object, int | None, bool]] = []
    export_hashes: dict[object, int] = {}
    traced_descriptors = 0
    began = perf_counter_ns()
    deadline = began + seconds * 1_000_000_000
    setup_every = (deadline - began) // SETUP_BATCHES
    index = 0
    # At least one request (one of each kind when traced), even past the deadline.
    while perf_counter_ns() < deadline or index < 1 + trace:
        if perf_counter_ns() - began >= len(setup_s) * setup_every:
            ctx = None
            ctx = set_up_batch()
        param = next(params)
        request_kernel_s = host.sample()
        traced = trace and index % 2 == 1
        caller = tracer if traced else direct
        if traced:
            tracer.request = index
        index += 1
        try:
            sent = perf_counter_ns()
            result, answer = caller.call("request", workload.request, ctx, param, caller)
            request_s = (perf_counter_ns() - sent) / 1e9
            ok = workload.inline_check(result)
            request_export_s = None
            if result.roots:
                start = perf_counter_ns()
                exported = caller.call("sppf.export", export_json, result.sppf, result.roots)
                request_export_s = (perf_counter_ns() - start) / 1e9
                # Equal requests must export byte-identical forests.
                ok = ok and export_hashes.setdefault(param, hash(exported)) == hash(exported)
            if traced:
                caller.call("sppf.stats", result.sppf.stats)
                traced_descriptors += result.engine.descriptors
            latency[traced].append(request_s)
            if not traced:
                export_s.append(request_export_s)
                loop_s.append((perf_counter_ns() - sent) / 1e9)
                kernel_s.append(request_kernel_s)
        except Exception:
            if all(answer_hash is not None for _, answer_hash, _ in answers):
                traceback.print_exc()  # the first error only
            answers.append((param, None, False))
        else:
            answers.append((param, hash(answer), ok))
        result = exported = None
    while len(setup_s) < SETUP_BATCHES:
        ctx = None
        ctx = set_up_batch()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    expected = workload.reference(ctx)
    expected_hashes: dict[object, int] = {}
    failed = 0
    for param, answer_hash, ok in answers:
        if param not in expected_hashes:
            expected_hashes[param] = hash(expected(param))
        failed += not ok or answer_hash != expected_hashes[param]
    report = {"attempted": len(answers), "failed": failed}
    if not latency[False] or (trace and (counts is None or not latency[True])):
        # Every request of a kind raised, or the count pass did: there is
        # nothing to time or count.
        report.update(failed=len(answers), metrics={}, units={})
        return report
    if not trace:
        untraced = latency[False]

        def metrics(kernels: list[float], setup_kernels: list[list[float]]) -> dict:
            def windowed(samples: list, stat) -> float:
                return over_windows(samples, kernels, workload.window, workload.windows, stat)

            return {
                "setup_s": statistics.median(
                    scale(statistics.median(batch), k) for batch, k in zip(setup_s, setup_kernels)
                ),
                "query_s.p50": windowed(untraced, statistics.median),
                "queries_per_s": 1 / windowed(loop_s, statistics.mean),
                "export_s.p50": windowed(export_s, statistics.median) if any(export_s) else 0.0,
                "peak_rss_mb": peak_rss_mb,
            }

        report["metrics"] = metrics(kernel_s, setup_kernel_s)
        # Printed only: the same statistics of the wall-clock times, unscaled.
        report["unscaled"] = metrics([REFERENCE_S] * len(kernel_s), [[REFERENCE_S]] * len(setup_s))
        report["kernel_ms"] = statistics.median(kernel_s) * 1e3
        report["units"] = END_TO_END_UNITS
        # Printed only: the result line has the same metrics for every
        # workload, and only ontology windows have >= 10 requests beyond it.
        report["query_s.p99"] = over_windows(
            untraced, kernel_s, workload.window, workload.windows, lambda v: nearest_rank(v, 99)
        )
        return report

    check_counts_across_runs(name, seed, counts)
    tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")

    def median_self(spans: tuple[str, ...]) -> float:
        return statistics.median(tracer.self_times(spans).values())

    metrics = {metric: median_self(spans) for metric, spans in SELF_TIME_SPANS.items()}
    metrics.update(counts)
    metrics["graph.vertices"] = ctx.graph.vertex_count
    metrics["graph.edges"] = ctx.graph.edge_count
    metrics["engine.descriptors_per_s"] = traced_descriptors / sum(
        tracer.self_times(("engine.run",)).values()
    )
    metrics["sppf.packed_yield"] = counts["sppf.packed"] / counts["sppf.get_node_p_calls"]
    traced_p50, untraced_p50 = (statistics.median(latency[side]) for side in (True, False))
    metrics["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1
    report["metrics"] = {metric: metrics[metric] for metric in PER_LAYER_UNITS}
    report["units"] = PER_LAYER_UNITS
    report["calls_s"] = {
        metric: median_self((span,)) if tracer.self_times((span,)) else None
        for metric, span in CALL_SPANS.items()
    }
    report["self_time_totals_s"] = tracer.totals()
    return report


def print_report(name: str, report: dict) -> None:
    attempted, failed = report["attempted"], report["failed"]
    print(f"{name}: {attempted} requests checked, failed_frac {failed / attempted:.6g}")
    for metric, value in report["metrics"].items():
        print(f"  {metric:<26} {value:>16.6g} {report['units'][metric]}")
    if "query_s.p99" in report:
        print(f"  {'query_s.p99':<26} {report['query_s.p99']:>16.6g} s (not on the result line)")
    for metric, value in report.get("calls_s", {}).items():
        shown = "not called" if value is None else f"{value:.6g} s"
        print(f"  {metric:<26} {shown:>18}")
    if "unscaled" in report:
        print(f"  wall-clock, unscaled; host-speed kernel {report['kernel_ms']:.4g} ms"
              f" (reference {REFERENCE_S * 1e3:g} ms):")
        for metric, value in report["unscaled"].items():
            print(f"    {metric:<24} {value:>16.6g} {report['units'][metric]}")
    for span, total in report.get("self_time_totals_s", {}).items():
        print(f"  self time in {span:<16} {total:>13.6g} s in all")


def result_line(metrics: dict, units: dict, attempted: int, failed: int) -> str:
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        }
    )


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, so peak memory is per workload."""
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    attempted = failed = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry["value"]
            units[f"{name}.{metric}"] = entry["unit"]
    print(result_line(metrics, units, attempted, failed))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cfpq" / "__init__.py").is_file():
        print(f"no library sources at {SRC / 'cfpq'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except DeterminismError as exc:
        print(f"FAIL: work counts are not deterministic: {exc}", file=sys.stderr)
        return 3
    print_report(args.workload, report)
    print(result_line(report["metrics"], report["units"], report["attempted"], report["failed"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
