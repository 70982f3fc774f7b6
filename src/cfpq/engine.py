"""The generalized top-down query engine over graphs.

One :class:`QueryEngine` owns a single execution: the descriptor worklist,
the merged-stack nodes and the forest under construction.  A descriptor is a
suspended configuration (slot, stack node, vertex, forest node); each is
processed exactly once.  Input positions are graph vertices, so consuming a
terminal fans out over all matching out-edges, and the run starts from every
requested start vertex at once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .grammar import Grammar, GrammarSlot, ParseTable
from .graph import Graph
from .results import QueryResult
from .sppf import DUMMY, Sppf


class GssNode:
    """A merged-stack node keyed by (return slot, vertex); ``slot is None``
    marks the bottom node of a start vertex, which never pops."""

    __slots__ = ("slot", "index", "edges", "_edge_keys", "pops", "_pop_keys")

    def __init__(self, slot: GrammarSlot | None, index: int):
        self.slot = slot
        self.index = index
        self.edges: list[tuple[object, GssNode]] = []
        self._edge_keys: set[tuple[int, int]] = set()
        self.pops: list[object] = []
        self._pop_keys: set[int] = set()

    @property
    def key(self):
        return (self.slot.key if self.slot is not None else None, self.index)

    def add_out_edge(self, sppf_node, target: GssNode) -> bool:
        ekey = (id(sppf_node), id(target))
        if ekey in self._edge_keys:
            return False
        self._edge_keys.add(ekey)
        self.edges.append((sppf_node, target))
        return True

    def record_pop(self, sppf_node) -> bool:
        pkey = id(sppf_node)
        if pkey in self._pop_keys:
            return False
        self._pop_keys.add(pkey)
        self.pops.append(sppf_node)
        return True

    def __repr__(self) -> str:
        return f"gss({self.slot!r}, {self.index})"


@dataclass(frozen=True)
class EngineStats:
    descriptors: int
    gss_nodes: int
    gss_edges: int


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
        worklist: str = "lifo",
        record_descriptors: bool = False,
    ):
        if worklist not in ("lifo", "fifo"):
            raise ValueError(f"unknown worklist order {worklist!r}")
        self.graph = graph
        self.grammar = grammar
        self.table = table if table is not None else grammar.parse_table
        vertices = range(graph.vertex_count)
        self.start_vertices = frozenset(vertices if start_vertices is None else start_vertices)
        self.final_vertices = frozenset(vertices if final_vertices is None else final_vertices)
        for v in self.start_vertices | self.final_vertices:
            if not 0 <= v < graph.vertex_count:
                raise ValueError(f"vertex {v} outside the graph")
        self.sppf = Sppf(grammar)
        self._worklist = worklist
        self._pending: deque = deque()
        self._seen: set = set()
        self._gss: dict[tuple, GssNode] = {}
        self._gss_edges = 0
        self._predict_cache: dict[tuple[str, int], tuple[GrammarSlot, ...]] = {}
        self._descriptor_keys: list[tuple] | None = [] if record_descriptors else None
        self._seed()

    # -- worklist ------------------------------------------------------------

    def add(self, slot: GrammarSlot, stack: GssNode, vertex: int, sppf_node) -> None:
        """Queue a descriptor unless an identical one was ever created."""
        descriptor = (slot, stack, vertex, sppf_node)
        if descriptor in self._seen:
            return
        # Every created forest node spans exactly (stack origin, current vertex).
        assert sppf_node is DUMMY or (
            sppf_node.left == stack.index and sppf_node.right == vertex
        ), f"descriptor extension mismatch: {sppf_node!r} at {stack!r}, vertex {vertex}"
        self._seen.add(descriptor)
        self._pending.append(descriptor)
        if self._descriptor_keys is not None:
            skey = sppf_node.key if sppf_node is not DUMMY else "$"
            self._descriptor_keys.append((slot.key, stack.key, vertex, skey))

    def _gss_node(self, slot: GrammarSlot | None, vertex: int) -> GssNode:
        key = (slot.key if slot is not None else None, vertex)
        node = self._gss.get(key)
        if node is None:
            node = self._gss[key] = GssNode(slot, vertex)
        return node

    def _seed(self) -> None:
        for vertex in sorted(self.start_vertices):
            bottom = self._gss_node(None, vertex)
            for slot in self._predict(self.grammar.start, vertex):
                self.add(slot, bottom, vertex, DUMMY)

    def _predict(self, nonterminal: str, vertex: int) -> tuple[GrammarSlot, ...]:
        """Candidate initial slots: table cells of the outgoing edge labels,
        plus the nullable alternatives unconditionally (sink vertices and
        labels outside FIRST must still reach empty derivations)."""
        ckey = (nonterminal, vertex)
        cached = self._predict_cache.get(ckey)
        if cached is None:
            slots = {
                s
                for label in self.graph.adjacency.get(vertex, ())
                for s in self.table.cell(nonterminal, label)
            }
            slots.update(self.table.nullable_alternatives(nonterminal))
            cached = tuple(sorted(slots, key=lambda s: s.key))
            self._predict_cache[ckey] = cached
        return cached

    # -- the three stack primitives -------------------------------------------

    def create(self, return_slot: GrammarSlot, stack: GssNode, vertex: int, sppf_node) -> GssNode:
        """Intern the stack node (return_slot, vertex) and attach the caller;
        a new stack edge replays every pop already recorded on the node."""
        node = self._gss_node(return_slot, vertex)
        if node.add_out_edge(sppf_node, stack):
            self._gss_edges += 1
            for popped in node.pops:
                combined = self.sppf.get_node_p(return_slot, sppf_node, popped)
                self.add(return_slot, stack, popped.right, combined)
        return node

    def pop(self, stack: GssNode, vertex: int, sppf_node) -> None:
        """Record the pop and resume every caller attached to the node."""
        if stack.slot is None:
            return
        if not stack.record_pop(sppf_node):
            return
        for edge_sppf, target in stack.edges:
            combined = self.sppf.get_node_p(stack.slot, edge_sppf, sppf_node)
            self.add(stack.slot, target, vertex, combined)

    # -- descriptor dispatch ----------------------------------------------------

    def processing(self, descriptor: tuple) -> None:
        """One step: case split on the dotted slot of the descriptor."""
        slot, stack, vertex, current = descriptor
        symbol = slot.symbol
        if symbol is None:
            if current is DUMMY:  # empty right-hand side
                current = self.sppf.get_node_p(slot, DUMMY, self.sppf.epsilon_node(vertex))
            self.pop(stack, vertex, current)
        elif slot.symbol_is_terminal:
            next_slot = slot.next_slot
            terminal_node = self.sppf.terminal_node
            get_node_p = self.sppf.get_node_p
            for target in self.graph.adjacency.get(vertex, {}).get(symbol, ()):
                combined = get_node_p(next_slot, current, terminal_node(vertex, symbol, target))
                self.add(next_slot, stack, target, combined)
        else:
            callee = self.create(slot.next_slot, stack, vertex, current)
            for initial in self._predict(symbol, vertex):
                self.add(initial, callee, vertex, DUMMY)

    def run(self) -> QueryResult:
        pending = self._pending
        pop_next = pending.pop if self._worklist == "lifo" else pending.popleft
        processing = self.processing
        while pending:
            processing(pop_next())
        start = self.grammar.start
        roots = sorted(
            (
                node
                for node in self.sppf.nonterminal_nodes(start)
                if node.left in self.start_vertices and node.right in self.final_vertices
            ),
            key=lambda n: (n.left, n.right),
        )
        stats = EngineStats(
            descriptors=len(self._seen),
            gss_nodes=len(self._gss),
            gss_edges=self._gss_edges,
        )
        return QueryResult(
            sppf=self.sppf,
            roots=tuple(roots),
            grammar=self.grammar,
            graph=self.graph,
            start_vertices=self.start_vertices,
            final_vertices=self.final_vertices,
            engine=stats,
            descriptor_keys=(
                tuple(self._descriptor_keys) if self._descriptor_keys is not None else None
            ),
        )


def run_query(
    graph: Graph,
    grammar: Grammar,
    start_vertices: Iterable[int] | None = None,
    final_vertices: Iterable[int] | None = None,
    *,
    table: ParseTable | None = None,
    worklist: str = "lifo",
    record_descriptors: bool = False,
) -> QueryResult:
    """Run a context-free path query and return its result handle.

    Defaults query all vertices to all vertices.  An empty root set is a
    valid outcome, not an error.
    """
    engine = QueryEngine(
        graph,
        grammar,
        start_vertices,
        final_vertices,
        table=table,
        worklist=worklist,
        record_descriptors=record_descriptors,
    )
    return engine.run()


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
            "stack nodes <= (#return-slots+1)*|V|",
            result.engine.gss_nodes,
            (g.return_slot_count + 1) * vertex_count,
        ),
        BoundCheck(
            "stack edges <= (stack nodes)^2",
            result.engine.gss_edges,
            result.engine.gss_nodes**2,
        ),
    ]
