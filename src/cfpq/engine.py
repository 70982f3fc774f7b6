"""The generalized top-down query engine over graphs.

One :class:`QueryEngine` owns a single execution: the descriptor worklist,
the merged-stack nodes and the forest under construction.  A descriptor is a
suspended configuration (slot, stack node, vertex, forest node); each is
processed exactly once, last in first out, though any order gives the same
answer, and counted as processed.  Each combine passes ``Sppf.get_node_p``
the extents it holds and queues the descriptor only if its slot's set of
forest ids lacks the node: a combined forest node spans (stack origin,
vertex) on a stack node of the slot's left-hand side.  Input positions are
graph vertices, so consuming a terminal fans out over all matching out-edges.

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

    # -- worklist ------------------------------------------------------------

    def add(self, slot: GrammarSlot, stack: GssNode, vertex: int, sppf_node: int) -> None:
        """Record and queue a combined descriptor; the caller has found its
        (slot, forest node) not yet in the slot's descriptor set."""
        assert stack.nonterminal == slot.production.lhs, f"{slot!r} on {stack!r}"
        # Every created forest node spans exactly (stack origin, current vertex).
        assert self.sppf.extent(sppf_node) == (stack.index, vertex), (
            f"descriptor extension mismatch: {self.sppf.node(sppf_node)!r} at {stack!r}, "
            f"vertex {vertex}"
        )
        self._seen[slot].add(sppf_node)
        self._pending.append((slot, stack, vertex, sppf_node))

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

    # -- the three stack primitives -------------------------------------------

    def create(
        self, return_slot: GrammarSlot, stack: GssNode, vertex: int, sppf_node: int
    ) -> GssNode | None:
        """Call the nonterminal before ``return_slot`` at ``vertex`` and
        attach the caller; a new stack edge replays every pop already
        recorded on the node.  None, with no edge, when the call predicts
        nothing."""
        callee = return_slot.production.rhs[return_slot.dot - 1]
        node = self._call(callee, vertex)
        edge = (return_slot, sppf_node, stack)
        if node is not None and edge not in node.edges:
            node.edges[edge] = None
            get_node_p, seen = self.sppf.get_node_p, self._seen[return_slot]
            for popped, end in node.pops.items():
                combined = get_node_p(return_slot, sppf_node, popped, stack.index, node.index, end)
                if combined not in seen:
                    self.add(return_slot, stack, end, combined)
        return node

    def pop(self, stack: GssNode, vertex: int, sppf_node: int) -> None:
        """Record the pop and resume every caller attached to the node."""
        if sppf_node in stack.pops:
            return
        stack.pops[sppf_node] = vertex
        get_node_p, seen = self.sppf.get_node_p, self._seen
        for slot, edge_sppf, caller in stack.edges:
            combined = get_node_p(slot, edge_sppf, sppf_node, caller.index, stack.index, vertex)
            if combined not in seen[slot]:
                self.add(slot, caller, vertex, combined)

    # -- descriptor dispatch ----------------------------------------------------

    def processing(self, descriptor: tuple) -> None:
        """One step: case split on the dotted slot of the descriptor."""
        slot, stack, vertex, current = descriptor
        symbol = slot.symbol
        if symbol is None:
            if current == DUMMY:  # empty right-hand side
                epsilon = self.sppf.epsilon_node(vertex)
                current = self.sppf.get_node_p(slot, DUMMY, epsilon, vertex, vertex, vertex)
            self.pop(stack, vertex, current)
        elif slot.symbol_is_terminal:
            next_slot, seen = slot.next_slot, self._seen[slot.next_slot]
            terminal_node, get_node_p = self.sppf.terminal_node, self.sppf.get_node_p
            for target in self.graph.adjacency.get(vertex, {}).get(symbol, ()):
                right = terminal_node(vertex, symbol, target)
                combined = get_node_p(next_slot, current, right, stack.index, vertex, target)
                if combined not in seen:
                    self.add(next_slot, stack, target, combined)
        else:
            self.create(slot.next_slot, stack, vertex, current)

    def run(self) -> QueryResult:
        """Process and count every descriptor; the roots are the start nodes' pops."""
        pending = self._pending
        pop = pending.pop
        processing = self.processing
        processed = 0
        while pending:
            processing(pop())
            processed += 1
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
