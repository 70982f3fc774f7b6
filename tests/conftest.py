from __future__ import annotations

import json
import random
from collections import deque

import pytest

from cfpq import Graph, ParseTable, QueryEngine, load_tsv, parse_grammar, size_audit
from cfpq.oracle import accepts
from cfpq.sppf import DUMMY, SppfStats

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


class _FifoDeque(deque):
    """A pending deque that the engine's ``pop`` drains first in first out."""

    pop = deque.popleft


def query_engine(graph, grammar, starts=None, finals=None, *, worklist="lifo", **kwargs):
    """A ``QueryEngine`` whose descriptors are processed in ``worklist``
    order: ``"lifo"``, the engine's own, or ``"fifo"``."""
    assert worklist in ("lifo", "fifo"), worklist
    engine = QueryEngine(graph, grammar, starts, finals, **kwargs)
    if worklist == "fifo":
        engine._pending = _FifoDeque(engine._pending)
    return engine


def blind_table(grammar):
    """A prediction table that predicts every alternative at every vertex,
    sinks included, so lookahead prunes nothing."""
    rows = grammar.parse_table.rows
    return ParseTable({a: [(slot, first, True) for slot, first, _ in rows[a]] for a in rows})


def run_checked(graph, grammar, starts=None, finals=None, **kwargs):
    """A query, as ``run_query`` runs it, plus the size audit every
    test-suite query must pass; ``worklist`` is as in :func:`query_engine`."""
    return audited(query_engine(graph, grammar, starts, finals, **kwargs).run())


def audited(result):
    failed = [c for c in size_audit(result) if not c.ok]
    assert not failed, f"size audit failed: {failed}"
    return result


def run_recording_dispatches(graph, grammar, starts=None, finals=None, **kwargs):
    """Run a query, check its size audit, and return the result with the
    structural key of every descriptor the engine processed, in processing
    order: ``(slot key, stack key, vertex, forest key)``.

    Forest ids depend on processing order, so the forest node is keyed by
    ``(kind, label, left, right)`` (the slot key as label of an intermediate
    node), and ``"$"`` stands for the empty forest.
    """
    engine = query_engine(graph, grammar, starts, finals, **kwargs)
    processed = []

    class Recording(type(engine._pending)):  # ``run`` takes every descriptor by ``pop``
        def pop(self):
            descriptor = super().pop()
            processed.append(descriptor)
            return descriptor

    engine._pending = Recording(engine._pending)
    result = audited(engine.run())
    return result, [
        (slot.key, (stack.nonterminal, stack.index), vertex, forest_key(result.sppf, nid))
        for slot, stack, vertex, nid in processed
    ]


def forest_key(sppf, nid):
    if nid == DUMMY:
        return "$"
    node = sppf.node(nid)
    label = node.label.key if node.kind == "intermediate" else node.label
    return (node.kind, label, node.left, node.right)


def export_stats(text: str) -> SppfStats:
    """Recount a JSON forest export: nodes by kind, and edges."""
    payload = json.loads(text)
    kinds = [node["kind"] for node in payload["nodes"]]
    kinds_in_order = ("terminal", "epsilon", "nonterminal", "intermediate", "packed")
    counts = (kinds.count(kind) for kind in kinds_in_order)
    return SppfStats(*counts, nodes=len(kinds), edges=len(payload["edges"]))


_KINDS = ("terminal", "epsilon", "nonterminal", "intermediate")


def _export_order(node):
    """The export's key for a non-packed view: kind, label, extension."""
    if node.kind == "epsilon":
        label = ()
    elif node.kind == "intermediate":
        label = node.label.key
    else:
        label = (node.label,)
    return (_KINDS.index(node.kind), *label, node.left, node.right)


def reference_layout(sppf, roots, simplify):
    """The export numbering and sorted edges, read through ``SppfNode``
    views: the non-packed views in export order, the exported packed views
    after them, and the (source, target) edges."""
    if roots is None:
        pool = {node for node in sppf.nodes() if node.kind != "packed"}
    else:
        pool, stack = set(roots), list(roots)
        while stack:
            for packed in stack.pop().children:
                for child in packed.children:
                    if child not in pool:
                        pool.add(child)
                        stack.append(child)
    pool = sorted(pool, key=_export_order)
    number = {node: n for n, node in enumerate(pool)}
    packed = []
    edges = []
    packed_edges = []
    for parent_number, node in enumerate(pool):
        alternatives = sorted(node.children, key=lambda view: view.alternative)
        lone = simplify and len(alternatives) == 1
        for alternative in alternatives:
            if lone:  # the parent takes the packed node's children
                source, out = parent_number, edges
            else:
                source, out = len(pool) + len(packed), packed_edges
                packed.append(alternative)
                edges.append((parent_number, source))
            children = sorted(number[child] for child in alternative.children)
            out += [(source, child) for child in children]
    edges += packed_edges
    return pool, packed, edges


def reference_export_json(layout, verbose=False) -> str:
    """``export_json`` of a :func:`reference_layout`, as one ``json.dumps``
    over a dict per node record."""
    pool, packed, edges = layout
    records = []
    for number, node in enumerate(pool):
        record = {"id": number, "kind": node.kind, "left": node.left, "right": node.right}
        if node.kind == "intermediate":
            record["label"] = repr(node.label)
        elif node.kind != "epsilon":
            record["label"] = node.label
        if node.ambiguous:
            record["ambiguous"] = True
        records.append(record)
    for number, node in enumerate(packed, len(pool)):
        record = {"id": number, "kind": "packed"}
        if verbose:
            record["production"] = node.production
            record["pivot"] = node.pivot
        records.append(record)
    return json.dumps({"nodes": records, "edges": edges}, check_circular=False)


def reference_export_dot(layout, verbose=False) -> str:
    """``export_dot`` of a :func:`reference_layout`, one line per node and
    per edge."""
    pool, packed, edges = layout
    lines = ["digraph sppf {"]
    for number, node in enumerate(pool):
        if node.kind == "epsilon":
            label = "eps"
        elif node.kind == "intermediate":
            label = repr(node.label)
        else:
            label = node.label
        label = f"({node.left}, {label}, {node.right})".replace("\\", "\\\\").replace('"', '\\"')
        shape = "oval" if node.kind == "nonterminal" else "box"
        style = ", style=filled" if node.ambiguous else ""
        lines.append(f'  n{number} [shape={shape}, label="{label}"{style}];')
    for number, node in enumerate(packed, len(pool)):
        xlabel = f', xlabel="({node.production}, {node.pivot})"' if verbose else ""
        lines.append(f"  n{number} [shape=point{xlabel}];")
    lines += [f"  n{source} -> n{target};" for source, target in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def linear_graph(word: str) -> Graph:
    return Graph([(i, label, i + 1) for i, label in enumerate(word)], len(word) + 1)


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
    """Endpoints of all paths (up to the bound) whose word the grammar accepts.

    Grows a map from each label word to the (start, end) pairs of the paths
    reading it, one length at a time, then unions the pairs of accepted words.
    """
    matched = set()
    pairs_of: dict[tuple[str, ...], set[tuple[int, int]]] = {
        (): {(v, v) for v in graph.vertices()}
    }
    for _ in range(max_length):
        longer: dict[tuple[str, ...], set[tuple[int, int]]] = {}
        for w, pairs in pairs_of.items():
            for start, end in pairs:
                for label, targets in graph.adjacency.get(end, {}).items():
                    longer.setdefault(w + (label,), set()).update((start, t) for t in targets)
        pairs_of = longer
        for w, pairs in pairs_of.items():
            if accepts(grammar, w):
                matched |= pairs
    return matched


def sparse_graph(rng: random.Random) -> Graph:
    """8 to 12 vertices, each with at most two a/b out-edges (self-loops allowed)."""
    n = rng.randint(8, 12)
    edges = [
        (u, rng.choice("ab"), rng.randrange(n)) for u in range(n) for _ in range(rng.randint(0, 2))
    ]
    return Graph(edges, n)


def random_graph(rng: random.Random, max_vertices: int = 10, labels: str = "abc") -> Graph:
    n = rng.randint(2, max_vertices)
    k = rng.randint(1, len(labels))
    alphabet = labels[:k]
    density = rng.uniform(0.2, 0.8)
    edges = [
        (u, label, v)
        for u in range(n)
        for v in range(n)
        if u != v
        for label in alphabet
        if rng.random() < density
    ]
    return Graph(edges, n)
