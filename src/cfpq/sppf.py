"""Binarized shared packed parse forest over graph vertices.

Non-packed nodes carry an extension (start vertex, end vertex) and are
interned per label + extension; packed nodes hang under nonterminal or
intermediate parents, one per (production, pivot vertex).  A parent with two
or more packed children marks an ambiguity.

Exports number non-packed nodes first, by kind (terminal, epsilon,
nonterminal, intermediate), then by key; packed nodes follow in parent order,
and in (production, pivot) order under one parent.  Edges are sorted by
(source id, target id), so a packed node's children are not listed left
first: the left child is the one whose ``right`` is the other's ``left``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .grammar import Grammar, GrammarSlot


class _Dummy:
    """The absent-forest placeholder passed around before anything matched."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "$"


DUMMY = _Dummy()


class TerminalNode:
    kind = "terminal"
    __slots__ = ("label", "left", "right")

    def __init__(self, left: int, label: str, right: int):
        self.label = label
        self.left = left
        self.right = right

    @property
    def key(self):
        return ("t", self.label, self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left}, {self.label}, {self.right})"


class EpsilonNode:
    kind = "epsilon"
    __slots__ = ("left", "right")

    def __init__(self, vertex: int):
        self.left = vertex
        self.right = vertex

    @property
    def key(self):
        return ("e", self.left)

    def __repr__(self) -> str:
        return f"({self.left}, eps, {self.right})"


class PackedNode:
    """One derivation alternative: (production, pivot) with up to two children."""

    kind = "packed"
    __slots__ = ("production", "pivot", "left_child", "right_child")

    def __init__(self, production: int, pivot: int, left_child, right_child):
        self.production = production
        self.pivot = pivot
        self.left_child = left_child
        self.right_child = right_child

    @property
    def children(self) -> tuple:
        if self.left_child is None:
            return (self.right_child,)
        return (self.left_child, self.right_child)

    def __repr__(self) -> str:
        return f"packed(prod={self.production}, pivot={self.pivot})"


class _ParentNode:
    __slots__ = ("left", "right", "_packed")

    def __init__(self, left: int, right: int):
        self.left = left
        self.right = right
        self._packed: dict[tuple[int, int], PackedNode] = {}

    @property
    def children(self) -> tuple[PackedNode, ...]:
        return tuple(self._packed[k] for k in sorted(self._packed))

    @property
    def ambiguous(self) -> bool:
        return len(self._packed) >= 2


class NonterminalNode(_ParentNode):
    kind = "nonterminal"
    __slots__ = ("label",)

    def __init__(self, label: str, left: int, right: int):
        super().__init__(left, right)
        self.label = label

    @property
    def key(self):
        return ("n", self.label, self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left}, {self.label}, {self.right})"


class IntermediateNode(_ParentNode):
    kind = "intermediate"
    __slots__ = ("label",)

    def __init__(self, label: GrammarSlot, left: int, right: int):
        super().__init__(left, right)
        self.label = label

    @property
    def key(self):
        return ("i", *self.label.key, self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left}, {self.label!r}, {self.right})"


SppfNode = Union[TerminalNode, EpsilonNode, NonterminalNode, IntermediateNode, PackedNode]


@dataclass(frozen=True)
class SppfStats:
    terminal: int
    epsilon: int
    nonterminal: int
    intermediate: int
    packed: int
    nodes: int
    edges: int


class Sppf:
    """The interned node store for one query execution."""

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self._terminal: dict[tuple[int, str, int], TerminalNode] = {}
        self._epsilon: dict[int, EpsilonNode] = {}
        self._nonterminal: dict[tuple[str, int, int], NonterminalNode] = {}
        self._intermediate: dict[tuple[int, int, int, int], IntermediateNode] = {}
        self._packed_count = 0

    # -- node construction ---------------------------------------------------

    def terminal_node(self, source: int, label: str, target: int) -> TerminalNode:
        key = (source, label, target)
        node = self._terminal.get(key)
        if node is None:
            node = self._terminal[key] = TerminalNode(source, label, target)
        return node

    def epsilon_node(self, vertex: int) -> EpsilonNode:
        node = self._epsilon.get(vertex)
        if node is None:
            node = self._epsilon[vertex] = EpsilonNode(vertex)
        return node

    def get_node_p(self, slot: GrammarSlot, left, right):
        """Combine a partial derivation with the piece just parsed.

        Forwards ``right`` unchanged for pass-through slots; otherwise interns
        the nonterminal (dot at the end) or intermediate parent spanning both
        children and records the (production, pivot) alternative under it.
        """
        if slot.pass_through:
            return right
        pivot = right.left
        left_extent = left.left if left is not DUMMY else pivot
        right_extent = right.right
        parent: NonterminalNode | IntermediateNode
        if slot.at_end:
            nkey = (slot.production.lhs, left_extent, right_extent)
            parent = self._nonterminal.get(nkey)
            if parent is None:
                parent = self._nonterminal[nkey] = NonterminalNode(*nkey)
        else:
            ikey = (slot.production.index, slot.dot, left_extent, right_extent)
            parent = self._intermediate.get(ikey)
            if parent is None:
                parent = self._intermediate[ikey] = IntermediateNode(slot, left_extent, right_extent)
        pkey = (slot.production.index, pivot)
        if pkey not in parent._packed:
            parent._packed[pkey] = PackedNode(*pkey, left if left is not DUMMY else None, right)
            self._packed_count += 1
        return parent

    # -- lookup ----------------------------------------------------------------

    def nonterminal_node(self, label: str, left: int, right: int) -> NonterminalNode | None:
        return self._nonterminal.get((label, left, right))

    def nonterminal_nodes(self, label: str | None = None) -> Iterator[NonterminalNode]:
        for node in self._nonterminal.values():
            if label is None or node.label == label:
                yield node

    def nodes(self) -> Iterator[SppfNode]:
        """All non-packed nodes, then all packed nodes, in store order."""
        parents: list[NonterminalNode | IntermediateNode] = []
        for store in (self._terminal, self._epsilon, self._nonterminal, self._intermediate):
            for node in store.values():
                yield node
                if isinstance(node, _ParentNode):
                    parents.append(node)
        for parent in parents:
            yield from parent.children

    def stats(self) -> SppfStats:
        # parent -> packed, packed -> right child, and packed -> left child if any
        edges = 2 * self._packed_count + sum(
            packed.left_child is not None
            for store in (self._nonterminal, self._intermediate)
            for node in store.values()
            for packed in node._packed.values()
        )
        counts = (
            len(self._terminal),
            len(self._epsilon),
            len(self._nonterminal),
            len(self._intermediate),
            self._packed_count,
        )
        return SppfStats(*counts, nodes=sum(counts), edges=edges)


# -- serialization --------------------------------------------------------------


def _reachable(roots: Iterable[SppfNode]) -> set[SppfNode]:
    """The non-packed nodes reachable from ``roots``, roots included."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        node = stack.pop()
        if isinstance(node, _ParentNode):
            for packed in node._packed.values():
                for child in (packed.left_child, packed.right_child):
                    if child not in seen and child is not None:
                        seen.add(child)
                        stack.append(child)
    return seen


_KIND_RANK = {"terminal": 0, "epsilon": 1, "nonterminal": 2, "intermediate": 3}


def _sort_key(node: SppfNode):
    return (_KIND_RANK[node.kind], node.key[1:])


def _layout(sppf: Sppf, roots: Iterable[SppfNode] | None, simplify: bool):
    """Number the exported nodes (see the module docstring) and list their
    edges, already sorted: parents come in id order and every packed id is
    larger than every non-packed id.  Repeated edges are kept."""
    if roots is None:
        stores = (sppf._terminal, sppf._epsilon, sppf._nonterminal, sppf._intermediate)
        pool = [node for store in stores for node in store.values()]
    else:
        pool = list(_reachable(roots))
    pool.sort(key=_sort_key)
    ids = {node: nid for nid, node in enumerate(pool)}
    ordered: list[SppfNode] = list(pool)
    edges: list[tuple[int, int]] = []
    packed_edges: list[tuple[int, int]] = []
    for node in pool:
        if not isinstance(node, _ParentNode):
            continue
        parent_id = ids[node]
        lone = simplify and len(node._packed) == 1
        for _, packed in sorted(node._packed.items()):
            if lone:  # the parent takes the packed node's children
                source, out = parent_id, edges
            else:
                source, out = len(ordered), packed_edges
                ordered.append(packed)
                edges.append((parent_id, source))
            right = ids[packed.right_child]
            if packed.left_child is not None:
                left = ids[packed.left_child]
                out.append((source, min(left, right)))
                right = max(left, right)
            out.append((source, right))
    edges += packed_edges
    return ordered, edges


def _node_record(node: SppfNode, nid: int, verbose: bool) -> dict:
    record: dict = {"id": nid, "kind": node.kind}
    if node.kind == "packed":
        if verbose:
            record["production"] = node.production
            record["pivot"] = node.pivot
        return record
    record["left"] = node.left
    record["right"] = node.right
    if node.kind == "terminal":
        record["label"] = node.label
    elif node.kind == "nonterminal":
        record["label"] = node.label
        if node.ambiguous:
            record["ambiguous"] = True
    elif node.kind == "intermediate":
        record["label"] = repr(node.label)
        if node.ambiguous:
            record["ambiguous"] = True
    return record


def export_json(
    sppf: Sppf,
    roots: Iterable[SppfNode] | None = None,
    *,
    verbose: bool = False,
    simplify: bool = False,
    indent: int | None = None,
) -> str:
    """Serialize the forest (root-reachable part, or everything) as JSON."""
    ordered, edges = _layout(sppf, roots, simplify)
    payload = {
        "nodes": [_node_record(n, i, verbose) for i, n in enumerate(ordered)],
        "edges": edges,
    }
    return json.dumps(payload, indent=indent, check_circular=False)


_DOT_SHAPES = {"terminal": "box", "epsilon": "box", "intermediate": "box", "nonterminal": "oval"}


def export_dot(
    sppf: Sppf,
    roots: Iterable[SppfNode] | None = None,
    *,
    verbose: bool = False,
    simplify: bool = False,
) -> str:
    """Render the forest in DOT: boxes for terminal/intermediate nodes, ovals
    for nonterminals (filled when ambiguous), points for packed nodes."""
    ordered, edges = _layout(sppf, roots, simplify)
    lines = ["digraph sppf {"]
    for nid, node in enumerate(ordered):
        if node.kind == "packed":
            attrs = "shape=point"
            if verbose:
                attrs += f', xlabel="({node.production}, {node.pivot})"'
        else:
            shape = _DOT_SHAPES[node.kind]
            label = repr(node).replace('"', '\\"')
            attrs = f'shape={shape}, label="{label}"'
            if node.kind in ("nonterminal", "intermediate") and node.ambiguous:
                attrs += ", style=filled"
        lines.append(f"  n{nid} [{attrs}];")
    for parent, child in edges:
        lines.append(f"  n{parent} -> n{child};")
    lines.append("}")
    return "\n".join(lines) + "\n"


class ForestSnapshot:
    """A reloaded forest serialization, sufficient to recount sizes."""

    def __init__(self, nodes: list[dict], edges: list[tuple[int, int]]):
        self.nodes = nodes
        self.edges = edges

    def stats(self) -> SppfStats:
        counts = {"terminal": 0, "epsilon": 0, "nonterminal": 0, "intermediate": 0, "packed": 0}
        for node in self.nodes:
            counts[node["kind"]] += 1
        return SppfStats(
            counts["terminal"],
            counts["epsilon"],
            counts["nonterminal"],
            counts["intermediate"],
            counts["packed"],
            nodes=len(self.nodes),
            edges=len(self.edges),
        )


def load_json(text: str) -> ForestSnapshot:
    payload = json.loads(text)
    return ForestSnapshot(payload["nodes"], [tuple(e) for e in payload["edges"]])
