from __future__ import annotations

import random

import pytest

from cfpq import Graph, QueryEngine, load_tsv, parse_grammar, run_query, size_audit
from cfpq.oracle import accepts

G1_TEXT = "S -> a S b\nS -> Middle\nMiddle -> a b"
G0_TEXT = "S -> eps\nS -> a S b\nS -> S S"
G2_TEXT = "S -> a S b S\nS -> eps"

# An a-cycle 0->1->2->0 and a b-cycle 0->3->0 sharing vertex 0.
M_TSV = "0\ta\t1\n1\ta\t2\n2\ta\t0\n0\tb\t3\n3\tb\t0"

P0 = ((0, "a", 1), (1, "a", 2), (2, "a", 0), (0, "b", 3), (3, "b", 0), (0, "b", 3))
P1 = (
    (0, "a", 1), (1, "a", 2), (2, "a", 0),
    (0, "a", 1), (1, "a", 2), (2, "a", 0),
    (0, "b", 3), (3, "b", 0), (0, "b", 3),
    (3, "b", 0), (0, "b", 3), (3, "b", 0),
)


@pytest.fixture(scope="session")
def g0():
    return parse_grammar(G0_TEXT)


@pytest.fixture(scope="session")
def g1():
    return parse_grammar(G1_TEXT)


@pytest.fixture(scope="session")
def g2():
    return parse_grammar(G2_TEXT)


@pytest.fixture()
def graph_m():
    return load_tsv(M_TSV)


def run_checked(graph, grammar, starts=None, finals=None, **kwargs):
    """run_query plus the size audit every test-suite query must pass."""
    result = run_query(graph, grammar, starts, finals, **kwargs)
    failed = [c for c in size_audit(result) if not c.ok]
    assert not failed, f"size audit failed: {failed}"
    return result


def run_recording_dispatches(graph, grammar, starts=None, finals=None, **kwargs):
    """Run a query and return the result with every descriptor the engine
    processed, in processing order."""
    engine = QueryEngine(graph, grammar, starts, finals, **kwargs)
    processed = []
    process = engine.processing

    def recorded(descriptor):
        processed.append(descriptor)
        process(descriptor)

    engine.processing = recorded
    return engine.run(), processed


def linear_graph(word: str) -> Graph:
    graph = Graph(vertex_count=len(word) + 1)
    for i, label in enumerate(word):
        graph.add_edge(i, label, i + 1)
    return graph


def all_paths(graph: Graph, max_length: int):
    """Every path of the graph up to the length bound, as edge tuples."""
    for start in graph.vertices():
        stack = [(start, ())]
        while stack:
            vertex, edges = stack.pop()
            if edges:
                yield edges
            if len(edges) == max_length:
                continue
            for label, targets in graph.adjacency.get(vertex, {}).items():
                for target in targets:
                    stack.append((target, edges + ((vertex, label, target),)))


def brute_matching_endpoints(graph: Graph, grammar, max_length: int) -> set[tuple[int, int]]:
    """Endpoints of all paths (up to the bound) whose word the grammar accepts."""
    matched = set()
    memo: dict[tuple[str, ...], bool] = {}
    for edges in all_paths(graph, max_length):
        w = tuple(e[1] for e in edges)
        if w not in memo:
            memo[w] = accepts(grammar, w)
        if memo[w]:
            matched.add((edges[0][0], edges[-1][2]))
    return matched


def random_graph(rng: random.Random, max_vertices: int = 10, labels: str = "abc") -> Graph:
    n = rng.randint(2, max_vertices)
    k = rng.randint(1, len(labels))
    alphabet = labels[:k]
    density = rng.uniform(0.2, 0.8)
    graph = Graph(vertex_count=n)
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            for label in alphabet:
                if rng.random() < density:
                    graph.add_edge(u, label, v)
    return graph
