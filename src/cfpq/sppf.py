"""Binarized shared packed parse forest over graph vertices, stored as integer ids.

A terminal, epsilon, nonterminal or intermediate node is one integer id,
interned on its key, and carries an extension (start vertex, end vertex).
The store has three parts:

* ``_ids`` maps a key to its id;
* ``_keys`` maps an id back to its key.  The key is ``(0, label, left,
  right)`` for a terminal, ``(1, v, v)`` for the epsilon node at ``v``,
  ``(2, label, left, right)`` for a nonterminal and ``(3, production, dot,
  left, right)`` for an intermediate node, so its last two fields are the
  extension and the keys sort in export order;
* ``_packed`` holds, for a nonterminal or intermediate parent, its packed
  nodes as ``{(production, pivot): (left id or DUMMY, right id)}``, and None
  for a leaf.  A parent with two or more packed nodes marks an ambiguity.

``DUMMY = -1`` is the absent left child, and in the engine the empty forest
before anything matched.  The key layout stays inside this module: callers
hold ids, call :class:`Sppf` methods, and read nodes through
:class:`SppfNode` views made on demand.

Exports number non-packed nodes first, in key order (by kind: terminal,
epsilon, nonterminal, intermediate, then by the rest of the key); packed
nodes follow in parent order, and in (production, pivot) order under one
parent.  Edges are sorted by (source id, target id), so a packed node's
children are not listed left first: the left child is the one whose
``right`` is the other's ``left``.  :func:`export_json` writes the
packed records, which hold only integers, as text, and passes the
non-packed records and the edges to ``json.dumps``; its bytes equal one
``json.dumps`` of the whole ``{"nodes": [...], "edges": [...]}`` object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, repeat
from operator import countOf, itemgetter
from typing import Iterable, Iterator

from .grammar import Grammar, GrammarSlot

DUMMY = -1

_KINDS = ("terminal", "epsilon", "nonterminal", "intermediate")


@dataclass(frozen=True, slots=True)
class SppfNode:
    """A view of one forest node, made on demand.

    ``alternative`` is None for a terminal, epsilon, nonterminal or
    intermediate node with store id ``id``; for a packed node it is the
    ``(production, pivot)`` pair of that packed node under parent ``id``.
    Two views are equal when they share store (the same object), id and
    alternative, so compare views with ``==``, not ``is``.
    """

    sppf: Sppf
    id: int
    alternative: tuple[int, int] | None = None

    @property
    def kind(self) -> str:
        return "packed" if self.alternative else _KINDS[self.sppf._keys[self.id][0]]

    @property
    def left(self) -> int:
        """Start vertex of the extension (of the parent, for a packed node)."""
        return self.sppf._keys[self.id][-2]

    @property
    def right(self) -> int:
        return self.sppf._keys[self.id][-1]

    @property
    def label(self) -> str | GrammarSlot | None:
        """The edge label or nonterminal, the dotted slot of an intermediate
        node, None for epsilon and packed nodes."""
        key = self.sppf._keys[self.id]
        if self.alternative or key[0] == 1:
            return None
        return self.sppf.grammar.slot(key[1], key[2]) if key[0] == 3 else key[1]

    @property
    def production(self) -> int | None:
        return self.alternative[0] if self.alternative else None

    @property
    def pivot(self) -> int | None:
        return self.alternative[1] if self.alternative else None

    @property
    def ambiguous(self) -> bool:
        return not self.alternative and len(self.sppf._packed[self.id] or ()) >= 2

    @property
    def children(self) -> tuple[SppfNode, ...]:
        """A parent's packed nodes in (production, pivot) order; a packed
        node's left child (when it has one) and right child; none for a leaf."""
        packed = self.sppf._packed[self.id]
        if self.alternative:
            return tuple(SppfNode(self.sppf, c) for c in packed[self.alternative] if c != DUMMY)
        return tuple(SppfNode(self.sppf, self.id, a) for a in sorted(packed or ()))

    def __repr__(self) -> str:
        if self.alternative:
            return "packed(prod={}, pivot={})".format(*self.alternative)
        return _describe(self.sppf, self.sppf._keys[self.id])


def _describe(sppf: Sppf, key: tuple) -> str:
    """``(left, label, right)``, as views print and DOT labels read."""
    rank, left, right = key[0], key[-2], key[-1]
    if rank == 1:
        label = "eps"
    elif rank == 3:
        label = repr(sppf.grammar.slot(key[1], key[2]))
    else:
        label = key[1]
    return f"({left}, {label}, {right})"


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
    """The forest store for one query execution (layout in the module docstring)."""

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self._ids: dict[tuple, int] = {}
        self._keys: list[tuple] = []
        self._packed: list[dict[tuple[int, int], tuple[int, int]] | None] = []

    # -- node construction ---------------------------------------------------

    def _intern(self, key: tuple) -> int:
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self._keys)
            self._keys.append(key)
            self._packed.append({} if key[0] >= 2 else None)
        return nid

    def terminal_node(self, source: int, label: str, target: int) -> int:
        return self._intern((0, label, source, target))

    def epsilon_node(self, vertex: int) -> int:
        return self._intern((1, vertex, vertex))

    def get_node_p(self, slot: GrammarSlot, left: int, right: int) -> int:
        """Combine a partial derivation with the piece just parsed.

        Forwards ``right`` unchanged for pass-through slots; otherwise interns
        the nonterminal (dot at the end) or intermediate parent spanning both
        children and records the (production, pivot) alternative under it.
        """
        if slot.pass_through:
            return right
        keys = self._keys
        pivot, right_extent = keys[right][-2:]
        left_extent = keys[left][-2] if left != DUMMY else pivot
        production = slot.production
        if slot.at_end:
            key = (2, production.lhs, left_extent, right_extent)
        else:
            key = (3, production.index, slot.dot, left_extent, right_extent)
        parent = self._intern(key)
        packed = self._packed[parent]
        pkey = (production.index, pivot)
        if pkey not in packed:
            packed[pkey] = (left, right)
        return parent

    # -- reads -----------------------------------------------------------------

    def node(self, nid: int) -> SppfNode:
        return SppfNode(self, nid)

    def extent(self, nid: int) -> tuple[int, int]:
        """The (start vertex, end vertex) of a node."""
        return self._keys[nid][-2:]

    def terminal_edge(self, nid: int) -> tuple[int, str, int] | None:
        """The graph edge ``(source, label, target)`` of a terminal node, else None."""
        key = self._keys[nid]
        return (key[2], key[1], key[3]) if key[0] == 0 else None

    def alternatives(self, nid: int) -> Iterable[tuple[int, int]]:
        """The ``(left id or DUMMY, right id)`` children of each packed node
        under a parent; none for a leaf."""
        packed = self._packed[nid]
        return packed.values() if packed else ()

    def nonterminal_node(self, label: str, left: int, right: int) -> SppfNode | None:
        nid = self._ids.get((2, label, left, right))
        return None if nid is None else SppfNode(self, nid)

    def nonterminal_nodes(self, label: str | None = None) -> Iterator[SppfNode]:
        for nid, key in enumerate(self._keys):
            if key[0] == 2 and (label is None or key[1] == label):
                yield SppfNode(self, nid)

    def nodes(self) -> Iterator[SppfNode]:
        """All non-packed nodes in id order, then all packed nodes in parent order."""
        views = [SppfNode(self, nid) for nid in range(len(self._keys))]
        yield from views
        for view in views:
            yield from view.children

    def stats(self) -> SppfStats:
        ranks = [key[0] for key in self._keys]
        parents = [p for p in self._packed if p]
        packed = sum(map(len, parents))
        counts = (*(ranks.count(rank) for rank in range(len(_KINDS))), packed)
        # parent -> packed, packed -> right child, and packed -> left child unless DUMMY
        lefts = map(itemgetter(0), chain.from_iterable(p.values() for p in parents))
        edges = 3 * packed - countOf(lefts, DUMMY)
        return SppfStats(*counts, nodes=sum(counts), edges=edges)


# -- serialization --------------------------------------------------------------


def _reachable(sppf: Sppf, roots: Iterable[int]) -> set[int]:
    """The ids of the non-packed nodes reachable from ``roots``, roots included."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for pair in sppf.alternatives(stack.pop()):
            for child in pair:
                if child not in seen and child != DUMMY:
                    seen.add(child)
                    stack.append(child)
    return seen


def _layout(sppf: Sppf, roots: Iterable[SppfNode] | None, simplify: bool):
    """Number the exported nodes (see the module docstring) and list their
    edges, already sorted: parents come in id order and every packed id is
    larger than every non-packed id.  Repeated edges are kept.

    Returns the non-packed store ids in export order, the (production,
    pivot) pair of each exported packed node after them, and the edges.
    """
    keys, packed_of = sppf._keys, sppf._packed
    pool = range(len(keys)) if roots is None else _reachable(sppf, (r.id for r in roots))
    pool = sorted(pool, key=keys.__getitem__)
    number = dict(zip(pool, range(len(pool))))
    packed: list[tuple[int, int]] = []
    edges: list[tuple[int, int]] = []
    packed_edges: list[tuple[int, int]] = []
    add_edge, add_packed_edge = edges.append, packed_edges.append
    next_packed = len(pool)
    for parent, nid in enumerate(pool):
        alternatives = packed_of[nid]
        if not alternatives:
            continue
        order = sorted(alternatives)
        if simplify and len(order) == 1:  # the parent takes the packed node's children
            source, add = parent, add_edge
        else:
            source, add = next_packed, add_packed_edge
            next_packed += len(order)
            packed += order
            edges += zip(repeat(parent, len(order)), range(source, next_packed))
        for left, right in map(alternatives.__getitem__, order):
            right = number[right]
            if left != DUMMY:
                left = number[left]
                if left < right:
                    add((source, left))
                else:
                    add((source, right))
                    right = left
            add((source, right))
            source += 1  # the next packed id; a lone alternative has no next
    edges += packed_edges
    return pool, packed, edges


def _node_record(sppf: Sppf, nid: int, number: int) -> dict:
    key = sppf._keys[nid]
    rank = key[0]
    record: dict = {"id": number, "kind": _KINDS[rank], "left": key[-2], "right": key[-1]}
    if rank == 3:
        record["label"] = repr(sppf.grammar.slot(key[1], key[2]))
    elif rank != 1:
        record["label"] = key[1]
    if rank >= 2 and len(sppf._packed[nid]) >= 2:
        record["ambiguous"] = True
    return record


def export_json(
    sppf: Sppf,
    roots: Iterable[SppfNode] | None = None,
    *,
    verbose: bool = False,
    simplify: bool = False,
) -> str:
    """Serialize the forest (root-reachable part, or everything) as compact,
    single-line JSON.

    Non-packed records, whose labels may need escaping, and the edges go
    through ``json.dumps``; packed records hold only integers and are written
    as text.  The bytes equal ``json.dumps({"nodes": [...], "edges": [...]})``
    over one dict per node record.
    """
    pool, packed, edges = _layout(sppf, roots, simplify)
    records = [_node_record(sppf, nid, number) for number, nid in enumerate(pool)]
    nodes = [json.dumps(records, check_circular=False)[1:-1]] if records else []
    if packed:
        first = len(pool)
        if verbose:
            record = '{"id": %d, "kind": "packed", "production": %d, "pivot": %d}'
            nodes.append(", ".join([record % (n, *alt) for n, alt in enumerate(packed, first)]))
        else:
            ids = ', "kind": "packed"}, {"id": '.join(map(str, range(first, first + len(packed))))
            nodes.append(f'{{"id": {ids}, "kind": "packed"}}')
    edges_text = json.dumps(edges, check_circular=False)
    return '{"nodes": [%s], "edges": %s}' % (", ".join(nodes), edges_text)


_DOT_SHAPES = ("box", "box", "oval", "box")  # by kind: terminal, epsilon, nonterminal, intermediate


def export_dot(
    sppf: Sppf,
    roots: Iterable[SppfNode] | None = None,
    *,
    verbose: bool = False,
    simplify: bool = False,
) -> str:
    """Render the forest in DOT: boxes for terminal/intermediate nodes, ovals
    for nonterminals (filled when ambiguous), points for packed nodes."""
    pool, packed, edges = _layout(sppf, roots, simplify)
    lines = ["digraph sppf {"]
    for number, nid in enumerate(pool):
        key = sppf._keys[nid]
        label = _describe(sppf, key).replace('"', '\\"')
        attrs = f'shape={_DOT_SHAPES[key[0]]}, label="{label}"'
        if key[0] >= 2 and len(sppf._packed[nid]) >= 2:
            attrs += ", style=filled"
        lines.append(f"  n{number} [{attrs}];")
    for number, (production, pivot) in enumerate(packed, len(pool)):
        attrs = "shape=point"
        if verbose:
            attrs += f', xlabel="({production}, {pivot})"'
        lines.append(f"  n{number} [{attrs}];")
    for parent, child in edges:
        lines.append(f"  n{parent} -> n{child};")
    lines.append("}")
    return "\n".join(lines) + "\n"
