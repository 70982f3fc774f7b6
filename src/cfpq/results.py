"""Extracting answers from a finished query: pairs, paths, matched subgraphs.

The forest is finite but stands for a possibly infinite path set, so path
enumeration is budgeted by a path count and a length.  Paths come shortest
first, and paths of one length in lexicographic order of their
``(source, label, target)`` edge tuples.  Only non-empty paths are listed:
an empty-word match (v, v) is an accepted root and a result triple, but it
yields no path.

Cost: hop distances in the graph give each extent below the root a window
of lengths that a path of at most ``max_length`` edges could give its nodes.
Lengths are built one at a time, up to the last path emitted or twice the
longest length derived below the root.  Each length marks the nodes whose
window holds it and that derive a sequence of that length, then evaluates
the (node, length) keys that the root reaches through marked nodes, each
keeping at most ``max_paths`` sequences.  Each step visits a node again only
after a node of its extent that it reads changed.  Work and memory grow
with the windowed nodes and the lengths read, plus breadth-first searches
cut at ``max_length`` hops, not with ``max_length`` or the number of
matching paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Iterator

from .grammar import Grammar
from .graph import Graph, Path, _integer
from .sppf import DUMMY, Sppf, SppfNode, _reachable


@dataclass(frozen=True)
class PathQueryLimits:
    """Budget for path enumeration; both limits are inclusive and >= 1."""

    max_paths: int
    max_length: int

    def __post_init__(self) -> None:
        _integer(self.max_paths, "max_paths")
        _integer(self.max_length, "max_length")
        if self.max_paths < 1 or self.max_length < 1:
            raise ValueError("path limits must be at least 1")


@dataclass(frozen=True)
class EngineStats:
    descriptors: int  # processed
    gss_nodes: int
    gss_edges: int


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
            if not frontier:
                break
            dist.update(dict.fromkeys(frontier, hop))
        return dist


class _PathTables:
    """The ``k`` smallest edge sequences per (forest node, length), built one
    length at a time for the part of the forest below one root.

    Nodes are store ids, whose packed nodes are (left, right) alternatives;
    DUMMY, the absent left child, has the last mask slot and derives only the
    empty sequence.  Bit L of ``masks[i]`` is set when node i derives a
    sequence of exactly L edges.  An alternative's splits at length L are
    the set bits b of ``masks[right] & ((2 << L) - 1)`` (one symbol, most
    often one edge) with bit L - b set in ``masks[left]``.  A (node, length)
    key is the int ``node * width + length``.  No bit lies above twice
    ``longest``, the highest length of any bit: it would need a part longer
    than that, or a part of its own length that its pass must set first.

    Each extent has a length window from graph hop distances ``d``: with the
    root spanning (s, t) and a node (u, v), ``lo = d(u, v)`` and ``hi =
    max_length - d(s, u) - d(v, t)``.  A node with an empty window is never
    expanded, and the mask pass for length L visits only the nodes whose
    window holds L.  This loses no path: a key (node, L) on a root
    derivation of at most ``max_length`` edges lies in its window, and so do
    the parts of each of its splits, so its bit is exact.  Keys outside a
    window may miss bits but never gain false ones, and plans follow set
    bits only, so every key a plan reaches lies on such a derivation.

    A split of a node spanning (u, v) at length L reads its parts at lengths
    below L, which are final, except where one part has 0 edges: that part
    derives the empty path and spans (w, w), so the other spans (u, v)
    itself.  So at one length a node reads only nodes of its own extent,
    which share its window, and no extent waits on another.  A length's mask
    bits are settled one extent at a time.  A node that is its own child
    beside an empty part adds only what it has already, so an extent with
    one node is settled by one pass.  A larger extent's mask pass is repeated
    until it sets no bit.  A length's keys are evaluated from one worklist
    instead, as evaluating a key costs far more than testing a bit: a key
    whose value changes puts back the keys of its length that read it.  Both
    fixpoints converge: bits are only set, and a key's value is the ``k``
    smallest of a growing set of its true sequences.

    Keeping only the ``k`` smallest sequences per key is exact: the ``k``
    smallest sequences of a union lie within the members' ``k`` smallest,
    and those of one split lie within top-k(left) x top-k(right).
    """

    def __init__(self, sppf: Sppf, graph: Graph, root: int, max_length: int, k: int) -> None:
        self.root, self.width, self.k = root, max_length + 1, k
        far = self.width  # beyond every window
        hops = _Hops(graph, max_length)
        keys = sppf._keys  # a key's last two fields are the node's extent
        s, t = keys[root][-2:]
        windows: dict[tuple[int, int], tuple[int, int]] = {}  # every extent reached
        groups: dict[tuple[int, int], list] = {}  # the expanded non-leaf nodes by extent
        alts = self.alts = {}  # every node expanded: its alternatives
        seen = {DUMMY, root}  # every node pushed, so each is pushed once
        stack = [root]
        while stack:
            node = stack.pop()
            extent = keys[node][-2:]
            if extent not in windows:
                u, v = extent
                hi = max_length - hops[s].get(u, far) - hops[v].get(t, far)
                windows[extent] = hops[u].get(v, far), hi
            lo, hi = windows[extent]
            if hi < lo:  # no short enough path passes through the node
                continue
            pairs = alts[node] = sppf.alternatives(node)
            if pairs:
                groups.setdefault(extent, []).append((node, pairs))
            for pair in pairs:
                for child in pair:
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
        self.groups = [(*windows[extent], members) for extent, members in groups.items()]
        masks = self.masks = [0] * (max(seen) + 2)  # the last slot is masks[DUMMY]
        self.table: dict[int, tuple] = {DUMMY * self.width: ((),)}
        masks[DUMMY] = 1
        for i, pairs in alts.items():
            if not pairs:  # a leaf: a terminal edge or the empty word
                edge = sppf.terminal_edge(i)
                sequence = (edge,) if edge else ()
                masks[i] = 1 << len(sequence)
                self.table[i * self.width + len(sequence)] = (sequence,)
        self._grow_masks(0)
        self.longest = max(masks).bit_length() - 1

    def _grow_masks(self, length: int) -> None:
        """Set bit ``length`` in every mask whose window holds it; lower bits are final."""
        bit, below, masks = 1 << length, (2 << length) - 1, self.masks

        def derives(pairs: list) -> bool:
            for left, right in pairs:
                splits = masks[right] & below
                while splits:
                    low = splits & -splits
                    if masks[left] * low & bit:  # low is 1 << b: masks[left] moved up by b
                        return True
                    splits ^= low
            return False

        for lo, hi, members in self.groups:
            if lo <= length <= hi:
                grew = True
                while grew:
                    grew = False
                    for i, pairs in members:
                        if not masks[i] & bit and derives(pairs):
                            masks[i] |= bit
                            self.longest = length
                            grew = len(members) > 1  # one node: one pass is exact

    def sequences(self, length: int) -> tuple:
        """The root's ``k`` smallest sequences of exactly ``length`` edges, sorted."""
        self._grow_masks(length)
        if not self.masks[self.root] >> length & 1:
            return ()
        table, width = self.table, self.width
        top = self.root * width + length
        plans: dict[int, list] = {}  # every key reached and not yet final: its plan
        stack = [top]
        while stack:
            key = stack.pop()
            if key not in plans:
                plan = plans[key] = self._plan(*divmod(key, width))
                stack += [c for pair in plan for c in pair if c not in table]
        groups: dict[int, dict] = {}  # by length: each key's plan
        for key, plan in plans.items():
            groups.setdefault(key % width, {})[key] = plan
        for _, work in sorted(groups.items()):
            readers: dict[int, list] = {key: [] for key in work}
            for key, plan in work.items():
                for child in {c for pair in plan for c in pair if c != key and c in work}:
                    readers[child].append(key)
            while work:
                key, plan = work.popitem()
                value = self._evaluate(plan)
                if value != table.get(key):
                    table[key] = value
                    for reader in readers[key]:
                        work[reader] = plans[reader]
        return table[top]

    def _plan(self, i: int, length: int) -> list[tuple[int, int]]:
        """The child keys of every feasible (alternative, split) of a key."""
        width, masks, bit, below = self.width, self.masks, 1 << length, (2 << length) - 1
        plan = []
        for left, right in self.alts[i]:
            splits = masks[right] & below
            while splits:
                low = splits & -splits
                if masks[left] * low & bit:
                    split = length + 1 - low.bit_length()
                    plan.append((left * width + split, right * width + length - split))
                splits ^= low
        return plan

    def _evaluate(self, plan: list[tuple[int, int]]) -> tuple:
        # Every left part of one split has the same length, so the product
        # in (left, right) order is sorted and its first k are its k smallest.
        table, k = self.table, self.k
        out: set = set()
        for left, right in plan:
            lefts, rights = table.get(left), table.get(right)
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
    source, target = _integer(source, "source"), _integer(target, "target")
    if source not in result.start_vertices or target not in result.final_vertices:
        return
    root = result.sppf.nonterminal_node(result.grammar.start, source, target)
    if root is None:
        return
    tables = _PathTables(result.sppf, result.graph, root.id, limits.max_length, limits.max_paths)
    emitted = 0
    for length in range(1, limits.max_length + 1):
        if length > 2 * tables.longest:  # the forest derives no longer sequence
            return
        for edges in tables.sequences(length):
            yield Path(edges)
            emitted += 1
            if emitted >= limits.max_paths:
                return


def extract_subgraph(result: QueryResult) -> Graph:
    """The subgraph of input edges on paths matched by some accepted root."""
    graph, sppf = result.graph, result.sppf
    edges = (sppf.terminal_edge(nid) for nid in _reachable(sppf, (r.id for r in result.roots)))
    return Graph(sorted(edge for edge in edges if edge), graph.vertex_count, graph.names)
