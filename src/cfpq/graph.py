"""Edge-labeled directed graphs: TSV and N-Triples ingestion, synthetic generators.

Vertices are dense integers internally.  Files whose vertex columns are all
canonical ASCII numbers keep them as ids; symbolic vertices are interned in
first appearance order and the name table is retained for output.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

Edge = tuple[int, str, int]


class GraphFormatError(ValueError):
    """Raised for malformed graph input, with the offending line number."""


class Graph:
    """A directed graph with labeled, deduplicated edges, which live in one
    index: ``{source: {label: sorted targets}}``, whose sources and labels
    keep the order in which they first gained an edge.

    ``add_edge`` inserts one edge in O(out-degree); the loaders build the
    whole index at once and sort each target list once.
    """

    def __init__(self, vertex_count: int = 0):
        self._out: dict[int, dict[str, list[int]]] = {}
        self._edge_count = 0
        self._max_vertex = vertex_count - 1
        self._names: list[str] | None = None
        self._ids: dict[str, int] | None = None

    # -- construction ------------------------------------------------------

    def add_edge(self, source: int, label: str, target: int) -> bool:
        """Insert an edge; returns False (no change) if it already exists."""
        targets = self._out.setdefault(source, {}).setdefault(label, [])
        i = bisect_left(targets, target)
        if i < len(targets) and targets[i] == target:
            return False
        targets.insert(i, target)
        self._edge_count += 1
        if source > self._max_vertex:
            self._max_vertex = source
        if target > self._max_vertex:
            self._max_vertex = target
        return True

    def touch_vertex(self, vertex: int) -> None:
        """Ensure the vertex exists even if no edge mentions it."""
        if vertex > self._max_vertex:
            self._max_vertex = vertex

    def copy_vertices(self) -> Graph:
        """A new graph over the same vertex universe (names included), no edges."""
        g = Graph(self.vertex_count)
        if self._names is not None:
            g._names = list(self._names)
            g._ids = dict(self._ids or {})
        return g

    # -- inspection --------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._max_vertex + 1

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def adjacency(self) -> dict[int, dict[str, list[int]]]:
        """Out-index {source: {label: sorted targets}}; treat as read-only."""
        return self._out

    def vertices(self) -> range:
        return range(self.vertex_count)

    def edges(self) -> list[Edge]:
        """Every edge, sorted by (source, label, target)."""
        return [
            (source, label, target)
            for source, labels in sorted(self._out.items())
            for label, targets in sorted(labels.items())
            for target in targets
        ]

    def out_degree(self, vertex: int) -> int:
        return sum(len(ts) for ts in self._out.get(vertex, {}).values())

    # -- vertex naming -----------------------------------------------------

    def vertex_name(self, vertex: int) -> str:
        if self._names is not None and 0 <= vertex < len(self._names):
            return self._names[vertex]
        return str(vertex)

    def resolve_vertex(self, token: str) -> int:
        """Map an external vertex token (name or number) to its id."""
        if self._ids is not None:
            if token in self._ids:
                return self._ids[token]
            raise KeyError(f"unknown vertex {token!r}")
        if not _is_number(token):
            raise KeyError(f"vertex {token!r} is not a number")
        vid = int(token)
        if vid >= self.vertex_count:
            raise KeyError(f"vertex {vid} out of range (graph has {self.vertex_count})")
        return vid

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"


@dataclass(frozen=True)
class Path:
    """A non-empty sequence of incident edges."""

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("a path has at least one edge")
        for a, b in zip(self.edges, self.edges[1:]):
            if a[2] != b[0]:
                raise ValueError(f"edges {a} and {b} are not incident")

    @property
    def start(self) -> int:
        return self.edges[0][0]

    @property
    def end(self) -> int:
        return self.edges[-1][2]

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)


def word(path: Path | Iterable[Edge]) -> tuple[str, ...]:
    """The label word read along a path."""
    return tuple(e[1] for e in path)


def format_path(path: Path, graph: Graph | None = None) -> str:
    name = graph.vertex_name if graph is not None else str
    parts = [name(path.edges[0][0])]
    for _, label, target in path.edges:
        parts.append(f"-{label}-> {name(target)}")
    return " ".join(parts)


def _is_number(token: str) -> bool:
    """Canonical ASCII digits: ``"0"`` or no leading zero, so that ``"01"``
    and ``"1"`` are not one vertex.  ``str.isdigit`` also holds for ``"²"``
    and ``"١"``."""
    return token.isascii() and token.isdigit() and (token[0] != "0" or token == "0")


def load_tsv(text: str) -> Graph:
    """Load a ``source<TAB>label<TAB>target`` edge list.

    Lines end at line feeds only, and fields are stripped of ASCII spaces,
    tabs and carriage returns only: CRLF lines load, a field may hold a form
    feed or U+2028, and ``y\\x85`` and ``y`` are two names.  Lines of only
    those three characters are ignored, and so are lines whose first other
    character is ``#``.  If every vertex is a canonical number (ASCII
    digits, ``0`` or no leading zero) the numbers become ids directly;
    otherwise all vertices are interned by first appearance, so ``01`` and
    ``1`` are two named vertices.  Numeric ids may leave gaps, but none may
    exceed ``2**20 + 16 * (number of distinct ids)``: every vertex up to the
    largest id is part of the graph, and a default query whose start symbol
    derives the empty word visits them all.
    Each distinct token is mapped to its id once, and each target list is
    sorted once, so a vertex of any out-degree loads in O(E log E).
    """
    rows: list[tuple[int, str, str, str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.lstrip(" \t\r")
        if not line or line[0] == "#":
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise GraphFormatError(
                f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        source, label, target = (f.strip(" \t\r") for f in fields)
        if not source or not label or not target:
            raise GraphFormatError(f"line {lineno}: empty field")
        rows.append((lineno, source, label, target))
    tokens = dict.fromkeys(v for _, s, _, t in rows for v in (s, t))  # first appearance order
    if all(map(_is_number, tokens)):
        ids = {token: int(token) for token in tokens}
        graph = Graph(max(ids.values(), default=-1) + 1)
        if graph.vertex_count > 2**20:  # below that, no id can exceed the limit
            limit = 2**20 + 16 * len(ids)  # canonical numbers: one token per id
            for lineno, source, _, target in rows:
                if max(ids[source], ids[target]) > limit:
                    raise GraphFormatError(
                        f"line {lineno}: vertex id {max(ids[source], ids[target])} exceeds "
                        f"{limit} (2**20 + 16 per distinct id)"
                    )
    else:
        ids = {token: vid for vid, token in enumerate(tokens)}
        graph = Graph(len(ids))
        graph._names, graph._ids = list(ids), ids
    out: dict[int, dict[str, list[int]]] = {}
    for _, source, label, target in rows:
        out.setdefault(ids[source], {}).setdefault(label, []).append(ids[target])
    return _with_index(graph, out)


_NT_IRI = r"<[^<>\s]*>"
_NT_BLANK = r"_:[A-Za-z0-9][A-Za-z0-9._-]*"
_NT_ESCAPE = r"\\(?:[tbnrf\"'\\]|u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})"
_NT_LITERAL = rf'"(?:[^"\\\n]|{_NT_ESCAPE})*"(?:\^\^{_NT_IRI}|@[A-Za-z0-9-]+)?'
_NT_SPACE = r"[^\S\n]"  # whitespace other than a line feed
# One match per line, none crossing a line feed: a comment or blank line sets
# no group, a triple sets the first four, anything else only the last.
_NT_SCAN = re.compile(
    rf"^{_NT_SPACE}*(?:#.*|({_NT_IRI}|{_NT_BLANK}){_NT_SPACE}+({_NT_IRI}){_NT_SPACE}+"
    rf"({_NT_IRI}|{_NT_BLANK}|{_NT_LITERAL}){_NT_SPACE}*(\.?){_NT_SPACE}*|(.*))$",
    re.MULTILINE,
)
_LITERAL_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'",
                    "\\": "\\"}
# A literal's vertex name escapes the characters that would split an output
# field or line; IRIs and blank nodes cannot hold tabs or line breaks.
_NAME_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def compact_uri(token: str) -> str:
    """Shorten ``<uri>`` to its fragment, else its last path segment."""
    uri = token[1:-1]
    if "#" in uri:
        frag = uri.rsplit("#", 1)[1]
        if frag:
            return frag
    return uri.rstrip("/").rsplit("/", 1)[-1] or uri


def _iri_name(token: str) -> str:
    name = compact_uri(token)
    if not name:
        raise GraphFormatError(f"IRI {token} has an empty name")
    return name


def _unescape(match: re.Match) -> str:
    escape = match.group()
    if len(escape) == 2:
        return _LITERAL_ESCAPES[escape[1]]
    code = int(escape[2:], 16)
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise GraphFormatError(f"escape {escape} is not a Unicode scalar value")
    return chr(code)


def _literal_name(token: str) -> str:
    value = re.sub(_NT_ESCAPE, _unescape, token[1 : token.rindex('"')])
    return value.translate(_NAME_ESCAPES)


def _node_name(token: str) -> str:
    if token.startswith("<"):
        return _iri_name(token)
    if token.startswith('"'):
        return _literal_name(token)
    return token  # blank node, keep the _: prefix as a namespace


def load_ntriples(text: str, inverse_suffix: str = "_r") -> Graph:
    """Load an N-Triples subset; every triple yields a forward and an inverse edge.

    For a triple ``(s, p, o)`` the edges ``(s, p, o)`` and
    ``(o, p + inverse_suffix, s)`` are added.  URIs are compacted to their
    fragment or last path segment, and one that compacts to nothing, such
    as ``<>``, is rejected.  Terms with the same compact name are one vertex:
    ``<http://a.org/x>``, ``<http://b.org/x>`` and the literal ``"x"`` all
    load as ``x``.  Literals become vertices: their escapes are decoded,
    then a backslash, tab, line feed and carriage return in the value are
    written as ``\\\\``, ``\\t``, ``\\n`` and ``\\r``, so distinct values keep
    distinct names and each name fits on one output line.  Lines end at line
    feeds only, so a literal may hold a form feed or U+2028; trailing
    whitespace, such as a CRLF line's carriage return, is allowed.  Each
    distinct term is named once, and vertices are numbered by first
    appearance, subject before object.
    """
    ids: dict[str, int] = {}  # vertex name -> id
    vertex: dict[str, int] = {}  # term as written -> id
    labels: dict[str, tuple[str, str]] = {}  # predicate as written -> label, inverse label
    out: dict[int, dict[str, list[int]]] = {}
    for lineno, (subj, pred, obj, dot, bad) in enumerate(_NT_SCAN.findall(text), start=1):
        if not subj:
            if bad:
                raise GraphFormatError(f"line {lineno}: malformed triple")
            continue
        if not dot:
            raise GraphFormatError(f"line {lineno}: unterminated statement (missing '.')")
        try:
            s = vertex.get(subj)
            if s is None:
                s = vertex[subj] = ids.setdefault(_node_name(subj), len(ids))
            label = labels.get(pred)
            if label is None:
                name = _iri_name(pred)
                label = labels[pred] = (name, name + inverse_suffix)
            o = vertex.get(obj)
            if o is None:
                o = vertex[obj] = ids.setdefault(_node_name(obj), len(ids))
        except GraphFormatError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
        out.setdefault(s, {}).setdefault(label[0], []).append(o)
        out.setdefault(o, {}).setdefault(label[1], []).append(s)
    graph = Graph(len(ids))
    graph._names, graph._ids = list(ids), ids
    return _with_index(graph, out)


def _with_index(graph: Graph, out: dict[int, dict[str, list[int]]]) -> Graph:
    """Give an edgeless graph the out-index ``out``, whose target lists are in
    row order and may repeat: each list is sorted and deduplicated once."""
    edges = 0
    for labels in out.values():
        for label, targets in labels.items():
            if len(targets) > 1:
                targets = labels[label] = sorted(set(targets))
            edges += len(targets)
    graph._out, graph._edge_count = out, edges
    return graph


def complete_graph(n: int, alphabet: Iterable[str], with_loops: bool = False) -> Graph:
    """A graph with an edge for every label between every two distinct vertices.

    ``with_loops=True`` also adds same-vertex edges.
    """
    labels = sorted(set(alphabet))
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    if not labels:
        raise ValueError("alphabet must not be empty")
    graph = Graph(vertex_count=n)
    for u in range(n):
        for v in range(n):
            if u == v and not with_loops:
                continue
            for label in labels:
                graph.add_edge(u, label, v)
    return graph
