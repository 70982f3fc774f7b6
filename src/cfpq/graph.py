"""Edge-labeled directed graphs: TSV and N-Triples ingestion, synthetic generators.

Vertices are dense integers internally.  Files with purely numeric vertex
columns keep their numbers as ids; symbolic vertices are interned in first
appearance order and the name table is retained for output.
"""

from __future__ import annotations

import re
from bisect import insort
from dataclasses import dataclass
from typing import Iterable, Iterator

Edge = tuple[int, str, int]


class GraphFormatError(ValueError):
    """Raised for malformed graph input, with the offending line number."""


class Graph:
    """A directed graph with labeled, deduplicated edges and a per-vertex out-index."""

    def __init__(self, vertex_count: int = 0):
        self._edges: set[Edge] = set()
        self._out: dict[int, dict[str, list[int]]] = {}
        self._max_vertex = vertex_count - 1
        self._names: list[str] | None = None
        self._ids: dict[str, int] | None = None

    # -- construction ------------------------------------------------------

    def add_edge(self, source: int, label: str, target: int) -> bool:
        """Insert an edge; returns False (no change) if it already exists."""
        edge = (source, label, target)
        if edge in self._edges:
            return False
        self._edges.add(edge)
        insort(self._out.setdefault(source, {}).setdefault(label, []), target)
        if source > self._max_vertex:
            self._max_vertex = source
        if target > self._max_vertex:
            self._max_vertex = target
        return True

    def touch_vertex(self, vertex: int) -> None:
        """Ensure the vertex exists even if no edge mentions it."""
        if vertex > self._max_vertex:
            self._max_vertex = vertex

    def _intern(self, name: str) -> int:
        assert self._names is not None and self._ids is not None
        vid = self._ids.get(name)
        if vid is None:
            vid = len(self._names)
            self._ids[name] = vid
            self._names.append(name)
            self.touch_vertex(vid)
        return vid

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
        return len(self._edges)

    @property
    def adjacency(self) -> dict[int, dict[str, list[int]]]:
        """Out-index {source: {label: sorted targets}}; treat as read-only."""
        return self._out

    def vertices(self) -> range:
        return range(self.vertex_count)

    def edges(self) -> list[Edge]:
        return sorted(self._edges)

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
        if not token.isdigit():
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


def _is_comment(line: str) -> bool:
    return line.lstrip().startswith("#")


def load_tsv(text: str) -> Graph:
    """Load a ``source<TAB>label<TAB>target`` edge list.

    Lines starting with ``#`` and blank lines are ignored.  If every vertex
    column is numeric the numbers become ids directly; otherwise all vertices
    are interned by first appearance.
    """
    rows: list[tuple[int, str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or _is_comment(raw):
            continue
        fields = raw.rstrip("\n").split("\t")
        if len(fields) != 3:
            raise GraphFormatError(
                f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        source, label, target = (f.strip() for f in fields)
        if not source or not label or not target:
            raise GraphFormatError(f"line {lineno}: empty field")
        rows.append((lineno, source, label, target))
    graph = Graph()
    numeric = all(s.isdigit() and t.isdigit() for _, s, _, t in rows)
    if not numeric:
        graph._names = []
        graph._ids = {}
    for _, source, label, target in rows:
        if numeric:
            graph.add_edge(int(source), label, int(target))
        else:
            graph.add_edge(graph._intern(source), label, graph._intern(target))
    return graph


_NT_IRI = r"<[^<>\s]*>"
_NT_BLANK = r"_:[A-Za-z0-9][A-Za-z0-9._-]*"
_NT_LITERAL = r'"(?:[^"\\]|\\.)*"(?:\^\^' + _NT_IRI + r"|@[A-Za-z0-9-]+)?"
_NT_LINE = re.compile(
    rf"^\s*({_NT_IRI}|{_NT_BLANK})\s+({_NT_IRI})\s+({_NT_IRI}|{_NT_BLANK}|{_NT_LITERAL})\s*(\.?)\s*$"
)
_LITERAL_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def compact_uri(token: str) -> str:
    """Shorten ``<uri>`` to its fragment, else its last path segment."""
    uri = token[1:-1]
    if "#" in uri:
        frag = uri.rsplit("#", 1)[1]
        if frag:
            return frag
    return uri.rstrip("/").rsplit("/", 1)[-1] or uri


def _literal_value(token: str) -> str:
    body = token[1 : token.rindex('"')]
    return re.sub(r"\\(.)", lambda m: _LITERAL_ESCAPES.get(m.group(1), m.group(1)), body)


def _node_name(token: str) -> str:
    if token.startswith("<"):
        return compact_uri(token)
    if token.startswith('"'):
        return _literal_value(token)
    return token  # blank node, keep the _: prefix as a namespace


def load_ntriples(text: str, inverse_suffix: str = "_r") -> Graph:
    """Load an N-Triples subset; every triple yields a forward and an inverse edge.

    For a triple ``(s, p, o)`` the edges ``(s, p, o)`` and
    ``(o, p + inverse_suffix, s)`` are added.  URIs are compacted to their
    fragment or last path segment; literals become vertices.
    """
    graph = Graph()
    graph._names = []
    graph._ids = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or _is_comment(raw):
            continue
        m = _NT_LINE.match(raw)
        if m is None:
            raise GraphFormatError(f"line {lineno}: malformed triple")
        if m.group(4) != ".":
            raise GraphFormatError(f"line {lineno}: unterminated statement (missing '.')")
        subj = graph._intern(_node_name(m.group(1)))
        pred = compact_uri(m.group(2))
        obj = graph._intern(_node_name(m.group(3)))
        graph.add_edge(subj, pred, obj)
        graph.add_edge(obj, pred + inverse_suffix, subj)
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
