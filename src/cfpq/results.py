"""Extracting answers from a finished query: pairs, paths, matched subgraphs.

The forest is finite but stands for a possibly infinite path set, so path
enumeration is budgeted by a path count and a length.  Paths come shortest
first, and paths of one length in lexicographic order of their
``(source, label, target)`` edge tuples.  Only non-empty paths are listed:
an empty-word match (v, v) is an accepted root and a result triple, but it
yields no path.

Cost: hop distances in the graph give each forest node below the root a
window of lengths that a path of at most ``max_length`` edges could give it.
Lengths are built one at a time, and no further than the length of the last
path emitted.  For each length, one pass over the nodes whose window holds
it marks those that derive a sequence of that length; then only those
(node, length) keys are evaluated, children before parents, and each keeps
at most ``max_paths`` sequences.  The work therefore grows with the windowed
nodes and lengths, plus the breadth-first searches (cut at ``max_length``
hops) from the ends of the nodes read, not with the number of matching paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import TYPE_CHECKING, Iterator

from .grammar import Grammar
from .graph import Graph, Path
from .sppf import _LOW, Sppf, SppfNode, _reachable

if TYPE_CHECKING:
    from .engine import EngineStats


@dataclass(frozen=True)
class PathQueryLimits:
    """Budget for path enumeration; both limits are inclusive and >= 1."""

    max_paths: int
    max_length: int

    def __post_init__(self) -> None:
        if self.max_paths < 1 or self.max_length < 1:
            raise ValueError("path limits must be at least 1")


@dataclass(frozen=True)
class QueryResult:
    """Handle over a finished query: the forest, its accepted roots and sizes."""

    sppf: Sppf
    roots: tuple[SppfNode, ...]  # the accepted roots, by (left, right)
    grammar: Grammar
    graph: Graph
    start_vertices: frozenset[int] | range  # range: all vertices (the default)
    final_vertices: frozenset[int] | range
    engine: EngineStats

    @property
    def success(self) -> bool:
        return bool(self.roots)

    def root_pairs(self) -> set[tuple[int, int]]:
        return {(node.left, node.right) for node in self.roots}


def reachable_pairs(result: QueryResult, nonterminal: str) -> set[tuple[int, int]]:
    """Extensions of every forest node labeled with the nonterminal."""
    if nonterminal not in result.grammar.nonterminals:
        raise ValueError(f"unknown nonterminal {nonterminal!r}")
    return {
        (node.left, node.right) for node in result.sppf.nonterminal_nodes(nonterminal)
    }


def format_triples(result: QueryResult, nonterminal: str | None = None) -> str:
    """Result triples as TSV lines ``nonterminal<TAB>source<TAB>target``,
    lexicographically sorted for deterministic output.

    For the start symbol (the default) these are the accepted roots: pairs
    from a start vertex to a final vertex.  Any other nonterminal lists every
    forest node with that label, wherever the run reached it.
    """
    label = nonterminal if nonterminal is not None else result.grammar.start
    pairs = result.root_pairs() if label == result.grammar.start else reachable_pairs(result, label)
    name = result.graph.vertex_name
    lines = sorted(f"{label}\t{name(u)}\t{name(v)}" for u, v in pairs)
    return "".join(line + "\n" for line in lines)


class _Hops(dict):
    """``hops[x][y]``: the hop distance from x to y in the graph, up to
    ``depth`` hops, found breadth-first from x on first use."""

    def __init__(self, graph: Graph, depth: int) -> None:
        self.out, self.depth = graph.adjacency, depth

    def __missing__(self, x: int) -> dict[int, int]:
        dist = self[x] = {x: 0}
        frontier = {x}
        for hop in range(1, self.depth + 1):
            frontier = {z for y in frontier for ts in self.out.get(y, {}).values() for z in ts}
            frontier.difference_update(dist)
            dist.update(dict.fromkeys(frontier, hop))
        return dist


class _PathTables:
    """The ``k`` smallest edge sequences per (forest node, length), built one
    length at a time for the part of the forest below one root.

    Nodes are the forest's store ids, visited in DFS post-order, so children
    come before parents except along the back edges of forest cycles.
    Packed nodes are folded into their parent as (left, right) alternatives;
    a single-child alternative gets a virtual left child, one past the
    largest id referenced, that derives only the empty sequence.
    ``masks[i]`` has bit L set when node i derives some
    sequence of exactly L edges, and ``rev[i]`` holds the same bits mirrored
    (bit ``max_length - L``), so the feasible splits of an alternative at
    length L are the set bits of ``masks[left] & (rev[right] >> (max_length -
    L))``.  A (node, length) key is the int ``node * width + length``.

    Each node has a length window from graph hop distances ``d``: with the
    root spanning (s, t) and the node (u, v), ``lo = d(u, v)`` and ``hi =
    max_length - d(s, u) - d(v, t)``.  A node with an empty window is never
    expanded, and the mask pass for length L visits only the nodes whose
    window holds L.  This loses no path: a key (node, L) on a root
    derivation of at most ``max_length`` edges lies in its window, and so do
    the parts of each of its splits, so its bit is exact.  Keys outside a
    window may miss bits but never gain false ones, and plans follow set
    bits only, so every key a plan reaches lies on such a derivation.

    Keeping only the ``k`` smallest sequences per key is exact: the ``k``
    smallest sequences of a union lie within the members' ``k`` smallest,
    and those of one split lie within top-k(left) x top-k(right).
    """

    def __init__(self, sppf: Sppf, graph: Graph, root: int, max_length: int, k: int) -> None:
        self.root = root
        self.max_length = max_length
        self.width = max_length + 1
        self.k = k
        far = self.width  # beyond every window
        hops = _Hops(graph, max_length)
        s, t = sppf.extent(root)
        from_s = hops[s]
        lo: dict[int, int] = {}
        hi: dict[int, int] = {}
        pairs: dict[int, tuple] = {}
        order: list[int] = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node < 0:  # ~node: every child of the node is done
                order.append(~node)
                continue
            if node in hi:
                continue
            u, v = sppf.extent(node)
            lo[node] = hops[u].get(v, far)
            hi[node] = max_length - from_s.get(u, far) - hops[v].get(t, far)
            if hi[node] < lo[node]:  # no short enough path passes through the node
                continue
            values = pairs[node] = tuple(sppf.alternatives(node))
            stack.append(~node)
            for value in values:
                if value >= 0:  # a negative value has no left child
                    stack.append(value >> 32)
                stack.append(value & _LOW)
        self.lo, self.hi = lo, hi
        empty = max(hi) + 1
        position = [0] * empty
        for pos, i in enumerate(order):
            position[i] = pos
        self.masks = [0] * (empty + 1)
        self.rev = [0] * (empty + 1)
        self.table: dict[int, tuple] = {}
        self._leaf(empty, 0, ())
        self.alts: list[tuple] = [()] * (empty + 1)
        self.parents: list[list[int]] = [[] for _ in range(empty + 1)]
        self.back: list[list[int]] = [[] for _ in range(empty + 1)]
        for i, alternatives in pairs.items():
            if not alternatives:  # a leaf: a terminal edge or the empty word
                edge = sppf.terminal_edge(i)
                if edge:
                    self._leaf(i, 1, (edge,))
                else:
                    self._leaf(i, 0, ())
                continue
            alts = self.alts[i] = tuple(
                (empty if value < 0 else value >> 32, value & _LOW) for value in alternatives
            )
            for child in {c for pair in alts for c in pair}:
                self.parents[child].append(i)
                if child != empty and position[i] < position[child]:
                    self.back[child].append(i)
        self.order = [i for i in order if self.alts[i]]
        self._grow_masks(0)

    def _leaf(self, i: int, length: int, sequence: tuple) -> None:
        self._set_bit(i, length)
        self.table[i * self.width + length] = (sequence,)

    def _set_bit(self, i: int, length: int) -> None:
        self.masks[i] |= 1 << length
        self.rev[i] |= 1 << (self.max_length - length)

    def _grow_masks(self, length: int) -> None:
        """Set bit ``length`` in every mask whose window holds it; lower bits are final."""
        bit = 1 << length
        shift = self.max_length - length
        masks, rev, alts, lo, hi = self.masks, self.rev, self.alts, self.lo, self.hi

        def derives(i: int) -> bool:
            for left, right in alts[i]:
                if masks[left] & (rev[right] >> shift):
                    return True
            return False

        # Children first; only a back edge can leave a parent stale, and
        # then only through a sibling that derives the empty sequence.
        pending: list[int] = []
        for i in self.order:
            if lo[i] <= length <= hi[i] and derives(i):
                self._set_bit(i, length)
                pending += self.back[i]
        while pending:
            i = pending.pop()
            if not masks[i] & bit and hi[i] >= length and derives(i):
                self._set_bit(i, length)
                pending += self.parents[i]

    def sequences(self, length: int) -> tuple:
        """The root's ``k`` smallest sequences of exactly ``length`` edges, sorted."""
        self._grow_masks(length)
        if not self.masks[self.root] >> length & 1:
            return ()
        table = self.table
        plans: dict[int, list] = {}
        parents: dict[int, set] = {}
        order: list[int] = []
        stack = [self.root * self.width + length]
        while stack:
            key = stack.pop()
            if key < 0:  # ~key: every child key is done
                order.append(~key)
                continue
            if key in plans:
                continue
            plan = plans[key] = self._plan(*divmod(key, self.width))
            stack.append(~key)
            for pair in plan:
                for child in pair:
                    if child not in table:
                        parents.setdefault(child, set()).add(key)
                        stack.append(child)
        pending: list[int] = []
        for key in order:
            value = table[key] = self._evaluate(plans[key])
            if value:
                pending.extend(p for p in parents.get(key, ()) if p in table)
        while pending:
            key = pending.pop()
            value = self._evaluate(plans[key])
            if value != table[key]:
                table[key] = value
                pending.extend(parents.get(key, ()))
        return table[self.root * self.width + length]

    def _plan(self, i: int, length: int) -> list[tuple[int, int]]:
        """The child keys of every feasible (alternative, split) of a key."""
        width, masks, rev = self.width, self.masks, self.rev
        shift = self.max_length - length
        plan = []
        for left, right in self.alts[i]:
            splits = masks[left] & (rev[right] >> shift)
            while splits:
                low = splits & -splits
                split = low.bit_length() - 1
                plan.append((left * width + split, right * width + length - split))
                splits ^= low
        return plan

    def _evaluate(self, plan: list[tuple[int, int]]) -> tuple:
        # Every left part of one split has the same length, so the product
        # in (left, right) order is sorted and its first k are its k smallest.
        table, k = self.table, self.k
        out: set = set()
        for left, right in plan:
            lefts = table.get(left)
            rights = table.get(right)
            if lefts and rights:
                out.update(l + r for l, r in islice(product(lefts, rights), k))
        return tuple(sorted(out)[:k])


def enumerate_paths(
    result: QueryResult, source: int, target: int, limits: PathQueryLimits
) -> Iterator[Path]:
    """Matching paths from source to target, shortest first, without duplicates.

    Empty when no accepted root spans (source, target).  Stops after
    ``limits.max_paths`` paths or length ``limits.max_length``.  Paths of one
    length come in lexicographic order of their ``(source, label, target)``
    edge tuples.
    """
    root = next((n for n in result.roots if (n.left, n.right) == (source, target)), None)
    if root is None:
        return
    tables = _PathTables(result.sppf, result.graph, root.id, limits.max_length, limits.max_paths)
    emitted = 0
    for length in range(1, limits.max_length + 1):
        for edges in tables.sequences(length):
            yield Path(edges)
            emitted += 1
            if emitted >= limits.max_paths:
                return


def extract_subgraph(result: QueryResult) -> Graph:
    """The subgraph of input edges on paths matched by some accepted root."""
    subgraph = result.graph.copy_vertices()
    sppf = result.sppf
    edges = (sppf.terminal_edge(nid) for nid in _reachable(sppf, (r.id for r in result.roots)))
    for edge in sorted(edge for edge in edges if edge):
        subgraph.add_edge(*edge)
    return subgraph
