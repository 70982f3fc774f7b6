"""The generalized top-down query engine over graphs.

One :class:`QueryEngine` owns a single execution: the descriptor worklist,
the merged-stack nodes and the forest under construction.  A descriptor is a
suspended configuration (slot, stack node, vertex, forest node); each is
processed exactly once, last in first out, though any order gives the same
answer, and counted as processed.  :meth:`QueryEngine.run` is the one
descriptor loop: it splits on the slot and does the terminal step, the call
with its pop replay, and the pop itself, with its locals bound once, and
binds none when nothing is pending.  It checks each descriptor it takes: a
combined forest node spans (stack origin, vertex) on a stack node of the
slot's left-hand side.  Input positions are graph vertices, so consuming a
terminal fans out over all matching out-edges; each run keeps the leaf ids
of a vertex's targets under a label, interned on first use, so a repeated
terminal step at a vertex interns no leaf again.

Each combine is one ``Sppf.get_node_p`` call, pass-through slots included,
given the extents the loop holds: that method alone keys, checks and
records a parent, and its calls are the combines the benchmark counts
(``sppf.get_node_p_calls`` and ``sppf.packed_yield``).  The loop queues the
combined descriptor only if its slot's set of forest ids lacks the node.

Forest nodes are integer ids into the :class:`~cfpq.sppf.Sppf` store, and
``DUMMY = -1`` is the empty forest before anything matched, so descriptors
and stack edges hold no forest objects; only the finished result hands out
node views.

Stack nodes are keyed by (nonterminal, vertex), one per call of a
nonterminal at a vertex, and the caller's return slot sits on the stack
edge (Afroozeh & Izmaylova, "Faster, Practical GLL Parsing", CC 2015).  So a
callee's body runs once per call vertex, however many call sites reach it.
A call with no stack node yet predicts its alternatives from the
nonterminal's row of the :class:`~cfpq.grammar.ParseTable`, in grammar
order, and makes the node only if it predicts one: a node with no
descriptor never pops.  The predictions are new with the node, so they are
queued under DUMMY and recorded nowhere.  A start vertex makes the same
call of the start symbol, whose node an inner call there shares; by
default, a start symbol that cannot derive the empty word is called only at
vertices with out-edges, as it predicts nothing elsewhere.  Every node of
the start symbol that begins at a start vertex is popped at that shared
node, so the accepted roots are read from the start nodes' pops.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from .grammar import Grammar, GrammarSlot, ParseTable
from .graph import Graph, _integer
from .results import EngineStats, QueryResult
from .sppf import DUMMY, Sppf


class GssNode:
    """A merged-stack node keyed by (nonterminal, vertex).

    ``edges`` holds one ``(return_slot, sppf_node, caller)`` entry per
    distinct caller: where to resume, the forest node parsed before the
    call, and the caller's stack node; it is an insertion-ordered dict used
    as a set.  ``pops`` maps each forest node the call has returned to the
    vertex it returned at, for replay to callers attached later.  A node
    with no edges (the start symbol at a start vertex) records its pops and
    resumes nobody.
    """

    __slots__ = ("nonterminal", "index", "edges", "pops")

    def __init__(self, nonterminal: str, index: int):
        self.nonterminal = nonterminal
        self.index = index
        self.edges: dict[tuple[GrammarSlot, int, GssNode], None] = {}
        self.pops: dict[int, int] = {}

    def __repr__(self) -> str:
        return f"gss({self.nonterminal}, {self.index})"


class QueryEngine:
    """One query execution; create, :meth:`run`, then read the result."""

    def __init__(
        self,
        graph: Graph,
        grammar: Grammar,
        start_vertices: Iterable[int] | None = None,
        final_vertices: Iterable[int] | None = None,
        *,
        table: ParseTable | None = None,
    ):
        if graph.vertex_count > 2**32:  # the forest packs a vertex into 32 bits
            raise ValueError(f"graph has {graph.vertex_count} vertices; at most 2**32 are supported")
        self.graph = graph
        self.grammar = grammar
        self.table = table if table is not None else grammar.parse_table
        self.start_vertices = _vertex_set(start_vertices, graph.vertex_count)
        self.final_vertices = _vertex_set(final_vertices, graph.vertex_count)
        self.sppf = Sppf(grammar)
        self._pending: list = []
        self._seen: defaultdict[GrammarSlot, set[int]] = defaultdict(set)
        self._gss: dict[tuple, GssNode] = {}
        seeds = self.start_vertices
        if start_vertices is None and not any(e for _, _, e in self.table.rows[grammar.start]):
            seeds = graph.adjacency  # a vertex with no out-edge predicts nothing
        self._starts = [n for v in sorted(seeds) if (n := self._call(grammar.start, v))]

    # -- calls -------------------------------------------------------------------

    def _call(self, nonterminal: str, vertex: int) -> GssNode | None:
        """The stack node of a call of ``nonterminal`` at ``vertex``, or None
        when the call predicts no alternative, as it will each time it is made.
        A new node queues its predictions, which are new with it and recorded
        in no descriptor set, and has no pops to replay."""
        key = (nonterminal, vertex)
        node = self._gss.get(key)
        if node is None and (predicted := self._predict(nonterminal, vertex)):
            node = self._gss[key] = GssNode(nonterminal, vertex)
            self._pending.extend([(slot, node, vertex, DUMMY) for slot in predicted])
        return node

    def _predict(self, nonterminal: str, vertex: int) -> list[GrammarSlot]:
        """The initial slots of the row's alternatives whose FIRST meets the
        vertex's out-labels or that derive the empty word, in grammar order."""
        labels = self.graph.adjacency.get(vertex, ())
        return [
            slot
            for slot, first, empty in self.table.rows[nonterminal]
            if empty or not first.isdisjoint(labels)
        ]

    # -- the run loop -----------------------------------------------------------

    def run(self) -> QueryResult:
        """Process and count every descriptor (the loop of the module
        docstring); the roots are the start nodes' pops."""
        pending = self._pending
        processed = 0
        if pending:  # most single-source lookups predict nothing: no set-up then
            pop, push, seen, call = pending.pop, pending.append, self._seen, self._call
            sppf, adjacency = self.sppf, self.graph.adjacency
            get_node_p, terminal_node, keys = sppf.get_node_p, sppf.terminal_node, sppf._keys
            leaves: dict[tuple[int, str], list[tuple[int, int]]] = {}  # (vertex, label) -> leaves
            while pending:
                slot, stack, vertex, current = pop()
                processed += 1
                # A combined forest node spans (stack origin, vertex).
                assert stack.nonterminal == slot.production.lhs and (
                    current == DUMMY or keys[current][-2:] == (stack.index, vertex)
                ), f"descriptor mismatch: {slot!r} on {stack!r} at {vertex}, forest node {current}"
                symbol = slot.symbol
                if symbol is None:  # pop, and resume every caller attached
                    if current == DUMMY:  # empty right-hand side
                        epsilon = sppf.epsilon_node(vertex)
                        current = get_node_p(slot, DUMMY, epsilon, vertex, vertex, vertex)
                    if current in stack.pops:
                        continue
                    stack.pops[current] = vertex
                    for resume, left, caller in stack.edges:
                        combined = get_node_p(resume, left, current, caller.index, stack.index, vertex)
                        recorded = seen[resume]
                        if combined not in recorded:
                            recorded.add(combined)
                            push((resume, caller, vertex, combined))
                elif slot.symbol_is_terminal:
                    targets = leaves.get((vertex, symbol))
                    if targets is None:
                        targets = leaves[vertex, symbol] = [
                            (target, terminal_node(vertex, symbol, target))
                            for target in adjacency.get(vertex, {}).get(symbol, ())
                        ]
                    next_slot = slot.next_slot
                    recorded = seen[next_slot]
                    for target, right in targets:
                        combined = get_node_p(next_slot, current, right, stack.index, vertex, target)
                        if combined not in recorded:
                            recorded.add(combined)
                            push((next_slot, stack, target, combined))
                else:  # call, and replay the callee's pops for a new stack edge
                    return_slot, callee = slot.next_slot, call(symbol, vertex)
                    edge = (return_slot, current, stack)
                    if callee is None or edge in callee.edges:
                        continue
                    callee.edges[edge] = None
                    recorded = seen[return_slot]
                    for popped, end in callee.pops.items():
                        combined = get_node_p(return_slot, current, popped, stack.index, vertex, end)
                        if combined not in recorded:
                            recorded.add(combined)
                            push((return_slot, stack, end, combined))
        roots = sorted(
            (stack.index, right, popped)
            for stack in self._starts
            for popped, right in stack.pops.items()
            if right in self.final_vertices
        )
        stats = EngineStats(
            descriptors=processed,
            gss_nodes=len(self._gss),
            gss_edges=sum(len(node.edges) for node in self._gss.values()),
        )
        return QueryResult(
            sppf=self.sppf,
            roots=tuple(self.sppf.node(popped) for _, _, popped in roots),
            grammar=self.grammar,
            graph=self.graph,
            start_vertices=self.start_vertices,
            final_vertices=self.final_vertices,
            engine=stats,
        )


def _vertex_set(vertices: Iterable[int] | None, vertex_count: int) -> frozenset[int] | range:
    """All vertices by default, else the given ones, each checked to be an
    integer and to exist."""
    if vertices is None:
        return range(vertex_count)
    chosen = set()
    for v in vertices:
        v = _integer(v, "a vertex")
        if not 0 <= v < vertex_count:
            raise ValueError(f"vertex {v} outside the graph")
        chosen.add(v)
    return frozenset(chosen)


def run_query(
    graph: Graph,
    grammar: Grammar,
    start_vertices: Iterable[int] | None = None,
    final_vertices: Iterable[int] | None = None,
    *,
    table: ParseTable | None = None,
) -> QueryResult:
    """Run a context-free path query and return its result handle.

    Defaults query all vertices to all vertices.  An empty root set is a
    valid outcome, not an error.
    """
    return QueryEngine(graph, grammar, start_vertices, final_vertices, table=table).run()


@dataclass(frozen=True)
class BoundCheck:
    name: str
    value: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.value <= self.bound


def size_audit(result: QueryResult) -> list[BoundCheck]:
    """Check the forest and stack sizes against their worst-case bounds."""
    g = result.grammar
    vertex_count = result.graph.vertex_count
    stats = result.sppf.stats()
    slot_count = len(g.slots())
    called = {g.start} | {s for p in g.productions for s in p.rhs if s in g.nonterminals}
    return [
        BoundCheck("terminal nodes <= |E|", stats.terminal, result.graph.edge_count),
        BoundCheck("epsilon nodes <= |V|", stats.epsilon, vertex_count),
        BoundCheck(
            "nonterminal nodes <= |N|*|V|^2",
            stats.nonterminal,
            len(g.nonterminals) * vertex_count**2,
        ),
        BoundCheck(
            "intermediate nodes <= #slots*|V|^2",
            stats.intermediate,
            slot_count * vertex_count**2,
        ),
        BoundCheck(
            "packed nodes <= (#productions+#slots)*|V|^3",
            stats.packed,
            (len(g.productions) + slot_count) * vertex_count**3,
        ),
        BoundCheck(
            "stack nodes <= |start and right-hand-side nonterminals|*|V|",
            result.engine.gss_nodes,
            len(called) * vertex_count,
        ),
        BoundCheck(
            "stack edges <= #return-slots*|V|^2",
            result.engine.gss_edges,
            g.return_slot_count * vertex_count**2,
        ),
    ]
