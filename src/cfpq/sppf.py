"""Binarized shared packed parse forest over graph vertices, stored as integer ids.

A terminal, epsilon, nonterminal or intermediate node is one integer id,
interned on its key, and carries an extension (start vertex, end vertex).
The store has three parts:

* ``_ids`` maps a key to its id;
* ``_keys`` maps an id back to its key.  The key is ``(0, label, left,
  right)`` for a terminal, ``(1, v, v)`` for the epsilon node at ``v``,
  ``(2, label, left, right)`` for a nonterminal and ``(3, production, dot,
  left, right)`` for an intermediate node, so its last two fields are the
  extension and the keys sort in export order.  A parent's key less its
  extension is ``GrammarSlot.node_prefix`` of the slot that builds it;
* ``_packed`` holds a node's packed nodes, each one int pair ``(production
  << 32 | pivot, left << 32 | right)`` (``GrammarSlot.packed_base`` is
  ``production << 32``): ``()`` for a leaf, the pair itself for a parent
  with one, and a dict of the pairs once a second, different one (an
  ambiguity) arrives.  Keys sort as ``(production, pivot)`` pairs do; a
  DUMMY left child makes the value negative, which ``>> 32`` and ``&
  0xFFFFFFFF`` still decode.  Vertices and ids must stay below 2**32: the
  engine rejects larger graphs, and each id holds a key tuple in memory.

``DUMMY = -1`` is the absent left child, and in the engine the empty forest
before anything matched.  The key layout stays inside this module and those
two slot fields, but for the extension, which the engine's checks and the
path tables read as ``_keys[nid][-2:]``: callers hold ids, call
:class:`Sppf` methods, and read nodes through :class:`SppfNode` views made
on demand.

Exports number non-packed nodes first, in key order (by kind: terminal,
epsilon, nonterminal, intermediate, then by the rest of the key); packed
nodes follow in parent order, and in (production, pivot) order under one
parent.  Edges are sorted by (source id, target id), so a packed node's
children are not listed left first: the left child is the one whose
``right`` is the other's ``left``.  Records and edges are written as text.
Each export number is formatted once, into a table of decimal texts, and
edges are written per parent from that table, with no ``%`` per edge; a
non-packed record joins its numbers to the four texts made once per
distinct kind, label and ambiguity, kept per grammar for later exports,
so only labels go through ``json.dumps``, once per distinct label and
grammar.  The bytes of :func:`export_json` equal one ``json.dumps`` of
the whole ``{"nodes": [...], "edges": [...]}`` object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import countOf
from typing import Callable, Iterable, Iterator
from weakref import WeakKeyDictionary

from .grammar import Grammar, GrammarSlot

DUMMY = -1
_LOW = 0xFFFFFFFF  # the low half of a packed key or value: the pivot or the right child

_KINDS = ("terminal", "epsilon", "nonterminal", "intermediate")

# the export's record texts by grammar (dying with it), template, ambiguity, key head
_RECORD_TEXTS: WeakKeyDictionary[Grammar, dict] = WeakKeyDictionary()


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
        return not self.alternative and type(self.sppf._packed[self.id]) is dict

    @property
    def children(self) -> tuple[SppfNode, ...]:
        """A parent's packed nodes in (production, pivot) order; a packed
        node's left child (when it has one) and right child; none for a leaf."""
        sppf, packed = self.sppf, self.sppf._packed[self.id]
        lone = type(packed) is tuple
        if self.alternative:
            value = packed[1] if lone else packed[self.alternative[0] << 32 | self.alternative[1]]
            return tuple(SppfNode(sppf, c) for c in (value >> 32, value & _LOW) if c != DUMMY)
        keys = packed[:1] if lone else sorted(packed)
        return tuple(SppfNode(sppf, self.id, (k >> 32, k & _LOW)) for k in keys)

    def __repr__(self) -> str:
        if self.alternative:
            return "packed(prod={}, pivot={})".format(*self.alternative)
        return _describe(self.sppf, self.sppf._keys[self.id])


def _label(sppf: Sppf, key: tuple) -> str:
    """The label text of a non-packed node: the edge label or nonterminal,
    the dotted slot of an intermediate node, ``eps`` for epsilon."""
    if key[0] == 1:
        return "eps"
    return repr(sppf.grammar.slot(key[1], key[2])) if key[0] == 3 else key[1]


def _describe(sppf: Sppf, key: tuple) -> str:
    """``(left, label, right)``, as views print and DOT labels read."""
    return f"({key[-2]}, {_label(sppf, key)}, {key[-1]})"


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
        self._packed: list[tuple[()] | tuple[int, int] | dict[int, int]] = []

    # -- node construction ---------------------------------------------------

    def _intern(self, key: tuple) -> int:
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self._keys)
            self._keys.append(key)
            self._packed.append(())
        return nid

    def terminal_node(self, source: int, label: str, target: int) -> int:
        return self._intern((0, label, source, target))

    def epsilon_node(self, vertex: int) -> int:
        return self._intern((1, vertex, vertex))

    def get_node_p(
        self, slot: GrammarSlot, left: int, right: int, start: int, pivot: int, end: int
    ) -> int:
        """Combine a partial derivation with the piece just parsed.

        Forwards ``right`` unchanged for pass-through slots; otherwise interns
        the nonterminal (dot at the end) or intermediate parent spanning both
        children and records the (production, pivot) alternative under it.
        The caller passes the extents, ``left`` on (start, pivot) or DUMMY with
        ``start == pivot`` and ``right`` on (pivot, end); a new parent checks them.
        """
        if slot.pass_through:
            return right
        key = slot.node_prefix + (start, end)
        parent = self._ids.get(key)
        alternative = slot.packed_base | pivot
        if parent is None:
            assert self._keys[right][-2:] == (pivot, end) and (
                start == pivot if left == DUMMY else self._keys[left][-2:] == (start, pivot)
            ), f"extents ({start}, {pivot}, {end}) contradict children {left}, {right}"
            parent = self._ids[key] = len(self._keys)
            self._keys.append(key)
            self._packed.append((alternative, left << 32 | right))
        elif type(packed := self._packed[parent]) is dict:
            packed.setdefault(alternative, left << 32 | right)
        elif packed[0] != alternative:  # a second packed node: the parent turns ambiguous
            self._packed[parent] = {packed[0]: packed[1], alternative: left << 32 | right}
        return parent

    # -- reads -----------------------------------------------------------------

    def node(self, nid: int) -> SppfNode:
        return SppfNode(self, nid)

    def terminal_edge(self, nid: int) -> tuple[int, str, int] | None:
        """The graph edge ``(source, label, target)`` of a terminal node, else None."""
        key = self._keys[nid]
        return (key[2], key[1], key[3]) if key[0] == 0 else None

    def alternatives(self, nid: int) -> list[tuple[int, int]]:
        """The ``(left id or DUMMY, right id)`` children of each packed node
        under a parent; none for a leaf."""
        packed = self._packed[nid]
        if type(packed) is tuple:  # a leaf or one packed node: no dict to read
            return [(packed[1] >> 32, packed[1] & _LOW)] if packed else []
        return [(value >> 32, value & _LOW) for value in packed.values()]

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
        lone = [p[1] for p in self._packed if type(p) is tuple and p]  # the lone pairs' values
        shared = [p for p in self._packed if type(p) is dict]
        packed = len(lone) + sum(map(len, shared))
        counts = (*(ranks.count(rank) for rank in range(len(_KINDS))), packed)
        # parent -> packed, packed -> right, packed -> left unless DUMMY (value < 0)
        negative = map((0).__gt__, chain(lone, chain.from_iterable(map(dict.values, shared))))
        edges = 3 * packed - countOf(negative, True)
        return SppfStats(*counts, nodes=sum(counts), edges=edges)


# -- serialization --------------------------------------------------------------


def _reachable(sppf: Sppf, roots: Iterable[int]) -> set[int]:
    """The ids of the non-packed nodes reachable from ``roots``, roots included."""
    packed = sppf._packed
    seen = set(roots)
    stack = list(seen)
    seen.add(DUMMY)  # so that an absent left child is never followed
    while stack:
        entry = packed[stack.pop()]
        for value in entry[1:] if type(entry) is tuple else entry.values():
            right, left = value & _LOW, value >> 32
            if right not in seen:
                seen.add(right)
                stack.append(right)
            if left not in seen:
                seen.add(left)
                stack.append(left)
    seen.remove(DUMMY)
    return seen


def _layout(sppf: Sppf, roots: Iterable[SppfNode] | None, simplify: bool, edge: str, sep: str):
    """Number the exported nodes (see the module docstring).  Returns the
    non-packed store ids in export order, the key of each exported packed
    node after them, ``numerals`` (each export number formatted once, as
    decimal text) and the edges, already sorted, as text chunks: joined,
    they are ``edge`` (a ``%d`` each for source and target) per edge,
    separated by ``sep``.  Edges are written per parent from the numerals,
    with no ``%``: one chunk for a parent's edges to its packed nodes, one
    for its packed nodes' edges to their children.  Parents come in id
    order, every packed id is larger than every non-packed id, and repeated
    edges are kept."""
    keys, packed_of = sppf._keys, sppf._packed
    pool = range(len(keys)) if roots is None else _reachable(sppf, (r.id for r in roots))
    pool = sorted(pool, key=keys.__getitem__)
    number = [DUMMY] * (len(keys) + 1)  # by store id; the last slot is number[DUMMY]
    for n, nid in enumerate(pool):
        number[nid] = n
    entries = list(map(packed_of.__getitem__, pool))
    shared = [entry for entry in entries if type(entry) is dict]
    lone = len(entries) - len(shared) - entries.count(())
    # simplify gives a lone packed node no number
    numerals = list(map(str, range(len(pool) + sum(map(len, shared)) + (not simplify) * lone)))
    # each edge is written after a separator; the first one loses it
    lead, mid, close = (sep + edge).split("%d")
    packed: list[int] = []
    chunks, packed_chunks = [], []  # edges out of non-packed nodes, out of packed nodes
    next_packed = len(pool)
    for parent, alternatives in enumerate(entries):
        if type(alternatives) is tuple:  # a leaf, or one packed node: no list or join
            if not alternatives:
                continue
            key, value = alternatives
            if simplify:  # the parent takes the packed node's children
                numeral, out = numerals[parent], chunks
            else:
                numeral, out = numerals[next_packed], packed_chunks
                next_packed += 1
                packed.append(key)
                chunks.append(f"{lead}{numerals[parent]}{mid}{numeral}{close}")
            left, right = number[value >> 32], number[value & _LOW]
            if right < left:  # never for a DUMMY left child
                left, right = right, left
            text = f"{lead}{numeral}{mid}{numerals[right]}{close}"
            out.append(text if left < 0 else f"{lead}{numeral}{mid}{numerals[left]}{close}{text}")
            continue
        order = sorted(alternatives)
        source = next_packed
        next_packed += len(order)
        packed += order
        head = f"{lead}{numerals[parent]}{mid}"
        chunks.append(f"{head}{(close + head).join(numerals[source:next_packed])}{close}")
        texts = []
        for value in map(alternatives.__getitem__, order):
            numeral = numerals[source]
            source += 1
            left, right = number[value >> 32], number[value & _LOW]
            if left < 0:
                texts.append(f"{lead}{numeral}{mid}{numerals[right]}{close}")
            else:
                if right < left:
                    left, right = right, left
                texts.append(
                    f"{lead}{numeral}{mid}{numerals[left]}{close}"
                    f"{lead}{numeral}{mid}{numerals[right]}{close}"
                )
        packed_chunks.append("".join(texts))
    chunks += packed_chunks
    if chunks:
        chunks[0] = chunks[0][len(sep) :]
    return pool, packed, numerals, chunks


def _node_records(
    sppf: Sppf, pool: list[int], template: Callable[[Sppf, tuple, bool], tuple[str, ...]]
) -> list[str]:
    """One text record per exported non-packed node, from one ``template(sppf,
    key, ambiguous)`` per distinct kind, label (the key less its extension)
    and ambiguity: the four texts around the number, left and right."""
    keys, packed_of = sppf._keys, sppf._packed
    templates = _RECORD_TEXTS.setdefault(sppf.grammar, {}).setdefault(template, ({}, {}))
    records = []
    for number, nid in enumerate(pool):
        key = keys[nid]
        ambiguous = type(packed_of[nid]) is dict
        text = templates[ambiguous].get(key[:-2])
        if text is None:
            text = templates[ambiguous][key[:-2]] = template(sppf, key, ambiguous)
        records.append(f"{text[0]}{number}{text[1]}{key[-2]}{text[2]}{key[-1]}{text[3]}")
    return records


def _json_template(sppf: Sppf, key: tuple, ambiguous: bool) -> tuple[str, ...]:
    label = "" if key[0] == 1 else ', "label": ' + json.dumps(_label(sppf, key))
    flag = ', "ambiguous": true' if ambiguous else ""
    return '{"id": ', f', "kind": "{_KINDS[key[0]]}", "left": ', ', "right": ', f"{label}{flag}}}"


def export_json(
    sppf: Sppf,
    roots: Iterable[SppfNode] | None = None,
    *,
    verbose: bool = False,
    simplify: bool = False,
) -> str:
    """Serialize the forest (root-reachable part, or everything) as compact,
    single-line JSON.  Only labels, which may need escaping, go through
    ``json.dumps``: once per distinct label and grammar."""
    pool, packed, numerals, edges = _layout(sppf, roots, simplify, "[%d, %d]", ", ")
    parts = ['{"nodes": [', ", ".join(_node_records(sppf, pool, _json_template))]
    if verbose:
        record = ', {"id": %d, "kind": "packed", "production": %d, "pivot": %d}'
        parts += [record % (n, k >> 32, k & _LOW) for n, k in enumerate(packed, len(pool))]
    elif packed:
        ids = ', "kind": "packed"}, {"id": '.join(numerals[len(pool) :])
        parts += (', {"id": ', ids, ', "kind": "packed"}')
    del numerals, packed  # about the size of the text: free them before the join
    parts += ('], "edges": [', *edges, "]}")
    return "".join(parts)


_DOT_SHAPES = ("box", "box", "oval", "box")  # by kind: terminal, epsilon, nonterminal, intermediate


def _dot_template(sppf: Sppf, key: tuple, ambiguous: bool) -> tuple[str, ...]:
    # Graphviz reads a backslash in a label as an escape: double it first.
    label = _label(sppf, key).replace("\\", "\\\\").replace('"', '\\"')
    style = ", style=filled" if ambiguous else ""
    return "  n", f' [shape={_DOT_SHAPES[key[0]]}, label="(', f", {label}, ", f')"{style}];'


def export_dot(
    sppf: Sppf,
    roots: Iterable[SppfNode] | None = None,
    *,
    verbose: bool = False,
    simplify: bool = False,
) -> str:
    """Render the forest in DOT: boxes for terminal, epsilon and intermediate
    nodes, ovals for nonterminals, points for packed nodes.  A nonterminal or
    intermediate node with two or more packed nodes is filled."""
    pool, packed, numerals, edges = _layout(sppf, roots, simplify, "  n%d -> n%d;", "\n")
    parts = ["\n".join(["digraph sppf {", *_node_records(sppf, pool, _dot_template)])]
    if verbose:
        point = '\n  n%d [shape=point, xlabel="(%d, %d)"];'
        parts += [point % (n, k >> 32, k & _LOW) for n, k in enumerate(packed, len(pool))]
    elif packed:
        parts += ("\n  n", " [shape=point];\n  n".join(numerals[len(pool) :]), " [shape=point];")
    del numerals, packed  # about the size of the text: free them before the join
    parts += ("\n", *edges, "\n}\n" if edges else "}\n")
    return "".join(parts)
