"""Edge-labeled directed graphs: TSV and N-Triples ingestion, synthetic generators.

Vertices are dense integers internally.  Files whose vertex columns are all
canonical ASCII numbers keep them as ids; symbolic vertices are interned in
first appearance order and the name table is retained for output.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

Edge = tuple[int, str, int]
_Index = dict[int, dict[str, list[int]]]  # {source: {label: targets}}


class GraphFormatError(ValueError):
    """Raised for malformed graph input, with the offending line number."""


def _integer(value: object, name: str) -> int:
    """A vertex or limit from outside as an int, else a TypeError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


class Graph:
    """A directed graph with labeled, deduplicated edges, built once.

    ``edges`` are ``(source, label, target)`` triples of integer vertices and
    string labels, in any order, repeats allowed.  The vertices are 0 up to
    the largest of ``vertex_count - 1``, an edge's endpoint and an id in
    ``names`` (``{name: id}`` in id order).
    ``adjacency`` is the index ``{source: {label: sorted targets}}``, sources
    and labels in first-edge order; treat it and ``names`` as read-only.
    """

    def __init__(
        self, edges: Iterable[Edge] = (), vertex_count: int = 0, names: dict[str, int] | None = None
    ) -> None:
        out: _Index = {}
        for edge in edges:
            try:
                source, label, target = edge
                source, target = _integer(source, "a vertex"), _integer(target, "a vertex")
            except (TypeError, ValueError) as exc:  # not a triple, or a vertex not an integer
                raise type(exc)(f"edge {edge!r}: {exc}") from None
            if source < 0 or target < 0:
                raise ValueError(f"edge {edge!r}: a vertex must not be negative")
            if not isinstance(label, str):
                raise TypeError(f"edge {edge!r}: a label must be a string, got {label!r}")
            out.setdefault(source, {}).setdefault(label, []).append(target)
            vertex_count = max(vertex_count, source + 1, target + 1)
        if names is not None and list(names.values()) != list(range(len(names))):
            raise ValueError("names must map the names to the ids 0, 1, 2, ... in order")
        self._set_index(out, max(vertex_count, len(names or ())), names)

    @classmethod
    def _from_index(cls, out: _Index, vertex_count: int, names: dict[str, int] | None) -> Graph:
        """A loader's graph: its index has valid ids, targets in row order."""
        return cls.__new__(cls)._set_index(out, vertex_count, names)

    def _set_index(self, out: _Index, vertex_count: int, names: dict[str, int] | None) -> Graph:
        """Sort and deduplicate each target list of ``out`` once, and count."""
        edges = 0
        for labels in out.values():
            for label, targets in labels.items():
                if len(targets) > 1:
                    targets = labels[label] = sorted(set(targets))
                edges += len(targets)
        self.adjacency = out
        self.edge_count = edges
        self.vertex_count = vertex_count
        self.names = names
        self._names = None if names is None else list(names)
        return self

    # -- inspection --------------------------------------------------------

    def vertices(self) -> range:
        return range(self.vertex_count)

    def edges(self) -> list[Edge]:
        """Every edge, sorted by (source, label, target)."""
        return [
            (source, label, target)
            for source, labels in sorted(self.adjacency.items())
            for label, targets in sorted(labels.items())
            for target in targets
        ]

    # -- vertex naming -----------------------------------------------------

    def vertex_name(self, vertex: int) -> str:
        if self._names is not None and 0 <= vertex < len(self._names):
            return self._names[vertex]
        return str(vertex)

    def resolve_vertex(self, token: str) -> int:
        """Map an external vertex token (name or number) to its id."""
        if self.names is not None:
            if token in self.names:
                return self.names[token]
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
        names = None
        vertex_count = max(ids.values(), default=-1) + 1
        if vertex_count > 2**20:  # below that, no id can exceed the limit
            limit = 2**20 + 16 * len(ids)  # canonical numbers: one token per id
            for lineno, source, _, target in rows:
                if max(ids[source], ids[target]) > limit:
                    raise GraphFormatError(
                        f"line {lineno}: vertex id {max(ids[source], ids[target])} exceeds "
                        f"{limit} (2**20 + 16 per distinct id)"
                    )
    else:
        ids = names = {token: vid for vid, token in enumerate(tokens)}
        vertex_count = len(ids)
    out: _Index = {}
    for _, source, label, target in rows:
        out.setdefault(ids[source], {}).setdefault(label, []).append(ids[target])
    return Graph._from_index(out, vertex_count, names)


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


def _iri_name(token: str) -> str:
    """``<uri>`` shortened to its fragment, else its last path segment."""
    uri = token[1:-1]
    name = uri.rsplit("#", 1)[1] if "#" in uri else ""
    name = name or uri.rstrip("/").rsplit("/", 1)[-1] or uri
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
    out: _Index = {}
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
    return Graph._from_index(out, len(ids), ids)


def complete_graph(n: int, alphabet: Iterable[str], with_loops: bool = False) -> Graph:
    """A graph with an edge for every label between every two distinct vertices.

    ``with_loops=True`` also adds same-vertex edges.
    """
    labels = sorted(set(alphabet))
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    if not labels:
        raise ValueError("alphabet must not be empty")
    out = {
        u: {label: [v for v in range(n) if v != u or with_loops] for label in labels}
        for u in range(n)
        if n > 1 or with_loops  # a lone vertex without its loop has no edge
    }
    return Graph._from_index(out, n, None)
