from __future__ import annotations

import random
import re

import pytest

from cfpq.graph import (
    Graph,
    GraphFormatError,
    Path,
    complete_graph,
    format_path,
    load_ntriples,
    load_tsv,
    word,
)
from conftest import M_TSV, P0, P1

# Characters that end a line for str.splitlines but not for a split at line feeds.
SPLITLINES_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# Characters that str.strip() removes but the TSV field strip keeps.
OTHER_BLANKS = [
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u2029"
]

M_EDGES = {(0, "a", 1), (1, "a", 2), (2, "a", 0), (0, "b", 3), (3, "b", 0)}


class TestAddEdge:
    """Edges given to the constructor."""

    def test_insert_into_empty(self):
        g = Graph([(0, "a", 1)])
        assert g.edge_count == 1
        assert g.vertex_count == 2

    def test_duplicate_is_rejected(self):
        g = Graph([(0, "a", 1), (0, "a", 1)])
        assert g.edges() == [(0, "a", 1)]
        assert g.edge_count == 1

    def test_example_paths_rebuild_the_map(self):
        g = Graph(P0 + P1)
        assert set(g.edges()) == M_EDGES
        assert g.edge_count == 5

    def test_parallel_edges_with_distinct_labels_allowed(self):
        g = Graph([(0, "a", 1), (0, "b", 1)])
        assert g.edge_count == 2

    def test_shuffled_inserts_with_repeats_keep_one_sorted_index(self):
        rng = random.Random(8)
        distinct = [(u, label, v) for u in range(6) for label in "ab" for v in range(6)]
        inserted = rng.sample(distinct, 40) * 2 + rng.sample(distinct, 20)
        rng.shuffle(inserted)
        g = Graph(inserted)
        assert g.edges() == sorted(set(inserted))
        assert g.edge_count == len(set(inserted))
        assert list(g.adjacency) == list(dict.fromkeys(u for u, _, _ in inserted))
        for source, labels in g.adjacency.items():
            assert list(labels) == list(dict.fromkeys(l for u, l, _ in inserted if u == source))
            for targets in labels.values():
                assert targets == sorted(targets)

    def test_vertex_count_covers_edges_and_names(self):
        assert Graph(vertex_count=3).vertex_count == 3
        assert Graph([(0, "a", 7)], vertex_count=3).vertex_count == 8
        g = Graph([(0, "a", 1)], names={"x": 0, "y": 1, "z": 2})
        assert g.vertex_count == 3
        assert [g.vertex_name(v) for v in g.vertices()] == ["x", "y", "z"]
        assert g.resolve_vertex("z") == 2

    @pytest.mark.parametrize("names", [{"x": 1, "y": 0}, {"x": 0, "y": 2}, {"x": 1}])
    def test_names_must_hold_the_ids_in_order(self, names):
        with pytest.raises(ValueError, match="names must map the names to the ids 0, 1, 2"):
            Graph([(0, "a", 1)], names=names)

    @pytest.mark.parametrize(
        "edge, error, message",
        [
            ((-1, "a", 0), ValueError, "a vertex must not be negative"),
            ((0, "a", -1), ValueError, "a vertex must not be negative"),
            ((0, "a", 1.5), TypeError, "a vertex must be an integer"),
            (("1", "a", 0), TypeError, "a vertex must be an integer"),
        ],
    )
    def test_vertices_must_be_non_negative_integers(self, edge, error, message):
        with pytest.raises(error, match=f"edge {re.escape(repr(edge))}: {re.escape(message)}"):
            Graph([(0, "a", 1), edge])

    @pytest.mark.parametrize(
        "edge, error",
        [((0, 5, 1), TypeError), ((0, "a"), ValueError), ((0, "a", 1, 2), ValueError)],
    )
    def test_edges_must_be_triples_with_string_labels(self, edge, error):
        # a label of another type built, and then failed to sort in edges()
        with pytest.raises(error, match=f"^edge {re.escape(repr(edge))}: "):
            Graph([edge, (0, "a", 1)])


class TestLoadTsv:
    def test_motivating_graph(self):
        g = load_tsv(M_TSV)
        assert g.vertex_count == 4
        assert g.edge_count == 5
        assert set(g.edges()) == M_EDGES

    def test_empty_input(self):
        g = load_tsv("")
        assert g.vertex_count == 0
        assert g.edge_count == 0

    def test_duplicates_collapse(self):
        g = load_tsv(M_TSV + "\n" + M_TSV)
        assert set(g.edges()) == M_EDGES

    def test_comments_and_blanks(self):
        g = load_tsv("# edges\n\n \t#x\ta\ty\n0\ta\t1\n")
        assert g.edge_count == 1

    def test_malformed_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_tsv("0\ta\t1\n0 a 1\n")

    @pytest.mark.parametrize("char", SPLITLINES_BREAKS)
    def test_only_line_feeds_end_a_line(self, char):
        g = load_tsv(f"x\ta\ty{char}z\ny{char}z\tb{char}c\tx\n")
        assert g.edges() == [(0, "a", 1), (1, f"b{char}c", 0)]
        assert [g.vertex_name(v) for v in g.vertices()] == ["x", f"y{char}z"]

    @pytest.mark.parametrize("char", OTHER_BLANKS)
    def test_fields_keep_other_blanks(self, char):
        g = load_tsv(f"x\ta{char}\ty\nx\ta\ty\nx\ta\t{char}y\n")
        assert g.edges() == [(0, "a", 1), (0, "a", 2), (0, f"a{char}", 1)]
        assert [g.vertex_name(v) for v in g.vertices()] == ["x", "y", f"{char}y"]
        # a comment line starts with "#" after ASCII blanks only, as fields do
        g = load_tsv(f"{char}#x\ta\ty\n")
        assert [g.vertex_name(v) for v in g.vertices()] == [f"{char}#x", "y"]
        with pytest.raises(GraphFormatError, match="line 2: expected 3"):
            load_tsv(f"x\ta\ty\n{char}\n")

    def test_crlf_lines(self):
        g = load_tsv("# edges\r\n0\ta\t1\r\n\r\n1\tb\t2\r\n")
        assert g.edges() == [(0, "a", 1), (1, "b", 2)]

    def test_symbolic_vertices_are_interned(self):
        g = load_tsv("alpha\tknows\tbeta\nbeta\tknows\talpha")
        assert g.vertex_count == 2
        assert g.vertex_name(0) == "alpha"
        assert g.resolve_vertex("beta") == 1
        with pytest.raises(KeyError):
            g.resolve_vertex("gamma")

    def test_numeric_ids_are_preserved(self):
        g = load_tsv("5\ta\t7")
        assert g.vertex_count == 8
        assert g.resolve_vertex("5") == 5
        with pytest.raises(KeyError):
            g.resolve_vertex("9")

    @pytest.mark.parametrize(
        "text, names", [("\u00b2\ta\t1", ["\u00b2", "1"]), ("0\ta\t\u0661", ["0", "\u0661"])]
    )
    def test_non_ascii_digits_are_names(self, text, names):
        g = load_tsv(text)
        assert [g.vertex_name(v) for v in g.vertices()] == names
        assert g.edges() == [(0, "a", 1)]

    @pytest.mark.parametrize("token", ["\u0661", "\u00b2"])
    def test_non_ascii_digits_are_not_numeric_ids(self, token):
        g = load_tsv("0\ta\t1")
        with pytest.raises(KeyError, match="is not a number"):
            g.resolve_vertex(token)

    def test_zero_padded_tokens_are_names(self):
        g = load_tsv("01\ta\t1\n1\tb\t001")
        assert [g.vertex_name(v) for v in g.vertices()] == ["01", "1", "001"]
        assert g.edges() == [(0, "a", 1), (1, "b", 2)]
        assert g.resolve_vertex("01") == 0

    @pytest.mark.parametrize("token", ["001", "00"])
    def test_zero_padded_tokens_are_not_numeric_ids(self, token):
        g = load_tsv("0\ta\t1")
        assert g.resolve_vertex("0") == 0
        with pytest.raises(KeyError, match="is not a number"):
            g.resolve_vertex(token)

    def test_sparse_numeric_ids_within_the_bound_load(self):
        assert load_tsv("0\ta\t1000").vertex_count == 1001
        # two distinct ids allow up to 2**20 + 32
        assert load_tsv("0\ta\t1048608").vertex_count == 2**20 + 33

    @pytest.mark.parametrize("text", ["0\ta\t1000000000", "0\ta\t1\n# c\n1048625\tb\t0"])
    def test_sparse_numeric_ids_beyond_the_bound_are_rejected(self, text):
        line = text.count("\n") + 1
        with pytest.raises(GraphFormatError, match=f"line {line}: vertex id"):
            load_tsv(text)

    @pytest.mark.parametrize("text", ["0\t\t1", "0\ta\t1\n0\ta\t "])
    def test_empty_field_is_rejected(self, text):
        line = text.count("\n") + 1
        with pytest.raises(GraphFormatError, match=f"line {line}: empty field"):
            load_tsv(text)


class TestLoadNtriples:
    def test_single_triple_yields_both_directions(self):
        g = load_ntriples("<a> <subClassOf> <b> .", inverse_suffix="_r")
        assert {(g.vertex_name(u), lab, g.vertex_name(v)) for u, lab, v in g.edges()} == {
            ("a", "subClassOf", "b"),
            ("b", "subClassOf_r", "a"),
        }

    def test_empty_input(self):
        g = load_ntriples("")
        assert g.vertex_count == 0

    def test_uri_compaction(self):
        g = load_ntriples(
            "<http://example.org/ns#Widget> <http://example.org/p/type> "
            "<http://example.org/ns/Thing> ."
        )
        names = {g.vertex_name(v) for v in g.vertices()}
        assert names == {"Widget", "Thing"}
        assert {lab for _, lab, _ in g.edges()} == {"type", "type_r"}

    def test_literals_and_blank_nodes(self):
        g = load_ntriples('_:x <label> "a b \\"quoted\\"" .')
        names = {g.vertex_name(v) for v in g.vertices()}
        assert names == {"_:x", 'a b "quoted"'}

    def test_escapes_are_decoded(self):
        g = load_ntriples(
            '<s> <p> "\\u00e9" .\n<s> <p> "u00e9" .\n<s> <p> "\\U0001F600\\b\\f\\\'" .'
        )
        names = [g.vertex_name(v) for v in g.vertices()]
        assert names == ["s", "\u00e9", "u00e9", "\U0001F600\b\f'"]

    def test_tabs_line_breaks_and_backslashes_are_escaped_in_names(self):
        # an escaped tab, a raw tab, a backslash before t, and line breaks
        g = load_ntriples(
            '<s> <p> "a\\tb" .\n<s> <p> "a\tb" .\n<s> <p> "a\\\\tb" .\n<s> <p> "c\\nd\\re" .'
        )
        names = [g.vertex_name(v) for v in g.vertices()]
        assert names == ["s", "a\\tb", "a\\\\tb", "c\\nd\\re"]
        assert [g.resolve_vertex(name) for name in names] == [0, 1, 2, 3]

    @pytest.mark.parametrize("char", SPLITLINES_BREAKS)
    def test_only_line_feeds_end_a_line(self, char):
        g = load_ntriples(f'<s> <p> "a{char}b" .\n<s> <q> <o> .')
        assert [g.vertex_name(v) for v in g.vertices()] == ["s", f"a{char}b", "o"]
        assert g.edge_count == 4

    def test_literals_keep_other_blanks(self):
        g = load_ntriples('<s> <p> "y\x85" .\n<s> <p> "y" .')
        assert [g.vertex_name(v) for v in g.vertices()] == ["s", "y\x85", "y"]
        assert g.edge_count == 4

    def test_crlf_lines(self):
        g = load_ntriples('# triples\r\n<s> <p> "a b" .\r\n\r\n<s> <q> <o> .\r\n')
        assert [g.vertex_name(v) for v in g.vertices()] == ["s", "a b", "o"]
        assert g.edge_count == 4

    def test_inverse_suffix_flag(self):
        g = load_ntriples("<a> <p> <b> .", inverse_suffix="_inv")
        assert {lab for _, lab, _ in g.edges()} == {"p", "p_inv"}

    def test_duplicate_triples_do_not_duplicate_edges(self):
        g = load_ntriples("<a> <p> <b> .\n<a> <p> <b> .")
        assert g.edge_count == 2

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("<a> <p> .", "line 1: malformed"),
            ("<a> <p> <b>", "unterminated"),
            ("<a> <p> <b> .\nnot a triple .", "line 2"),
            ('<a> <p> "\\q" .', "line 1: malformed"),
            ('<a> <p> <b> .\n<a> <p> "\\uD800" .', "line 2: escape"),
            ('<a> <p> "\\U00110000" .', "line 1: escape"),
            ("<a> <> <b> .", "line 1: IRI <> has an empty name"),
            ("<a> <p> <b> .\n<> <p> <c> .", "line 2: IRI <> has an empty name"),
            ("<a> <p> <b> .\n<a> <p> <> .", "line 2: IRI <> has an empty name"),
            # a literal ends on its own line, and the first bad line is named
            ('<a> <p> "x .\n<a> <p> <b> .', "line 1: malformed"),
            ('<a> <p> "x\n# a comment " .', "line 1: malformed"),
            ('<a> <p> "x" .\n<a> <p> "x" .\n<a> <p> "y\\q" .\n<a> <p> <', "line 3: malformed"),
            ('<a> <p> "\\u00e9" .\n<b> <p> "\\u00e9" .\n<b> <p> "\\uDFFF" .', "line 3: escape"),
        ],
    )
    def test_malformed_lines(self, text, fragment):
        with pytest.raises(GraphFormatError, match=fragment):
            load_ntriples(text)

    def test_labels_closed_under_inverse_involution(self):
        text = "<a> <p> <b> .\n<b> <q> <c> .\n<a> <q> <c> ."
        g = load_ntriples(text, inverse_suffix="_r")
        labels = {label for _, label, _ in g.edges()}
        for label in labels:
            partner = label[: -len("_r")] if label.endswith("_r") else label + "_r"
            assert partner in labels


def index_in_order(graph: Graph) -> list:
    """The out-index with its source and label order."""
    return [(source, list(labels.items())) for source, labels in graph.adjacency.items()]


def assert_same_graph(
    loaded: Graph, rows: list[tuple[int, str, int]], vertex_count: int, names: list[str] | None
) -> None:
    """``loaded`` holds the index that adding each row's edge in turn gives:
    sources and labels in first appearance order, targets sorted and distinct."""
    index: dict[int, dict[str, list[int]]] = {}
    for source, label, target in rows:
        index.setdefault(source, {}).setdefault(label, []).append(target)
    index = {s: {l: sorted(set(ts)) for l, ts in labels.items()} for s, labels in index.items()}
    assert index_in_order(loaded) == [(s, list(labels.items())) for s, labels in index.items()]
    assert loaded.edges() == sorted(set(rows))
    assert loaded.vertex_count == vertex_count
    assert loaded.edge_count == len(set(rows))
    if names is not None:
        assert [loaded.vertex_name(v) for v in loaded.vertices()] == names
        assert [loaded.resolve_vertex(name) for name in names] == list(range(len(names)))


def interned(rows: list[tuple[str, str, str]]) -> tuple[list[tuple[int, str, int]], list[str]]:
    """The rows with vertices numbered by first appearance, and the names."""
    ids: dict[str, int] = {}
    numbered = [(ids.setdefault(s, len(ids)), l, ids.setdefault(t, len(ids))) for s, l, t in rows]
    return numbered, list(ids)


class TestLoadersMatchAddEdge:
    """Each loader gives the index that adding its rows' edges one at a time
    builds in plain Python, with the same order, ids, names and counts."""

    @staticmethod
    def shuffled_rows(rng: random.Random, tokens: list[str], count: int) -> list:
        rows = [(rng.choice(tokens), rng.choice("abc"), rng.choice(tokens)) for _ in range(count)]
        rows += rng.sample(rows, count // 3)  # duplicate rows
        rng.shuffle(rows)
        return rows

    @pytest.mark.parametrize("seed", range(5))
    def test_tsv_numeric_ids(self, seed):
        rng = random.Random(seed)
        rows = self.shuffled_rows(rng, [str(i) for i in range(0, 40, 3)], 120)
        numbered = [(int(source), label, int(target)) for source, label, target in rows]
        loaded = load_tsv("".join(f"{s}\t{l}\t{t}\n" for s, l, t in rows))
        assert_same_graph(loaded, numbered, max(max(s, t) for s, _, t in numbered) + 1, None)

    @pytest.mark.parametrize("seed", range(5))
    def test_tsv_named_vertices(self, seed):
        rng = random.Random(seed)
        rows = self.shuffled_rows(rng, ["x", "y", "01", "1", "z z", "\u00b2"], 120)
        numbered, names = interned(rows)
        loaded = load_tsv("".join(f"{s}\t{l}\t{t}\n" for s, l, t in rows))
        assert_same_graph(loaded, numbered, len(names), names)

    def test_high_degree_star(self):
        targets = list(range(1, 3001)) * 2
        random.Random(1).shuffle(targets)
        loaded = load_tsv("".join(f"0\ta\t{t}\n" for t in targets))
        assert_same_graph(loaded, [(0, "a", t) for t in targets], 3001, None)
        assert loaded.adjacency[0]["a"] == list(range(1, 3001))

    # (term as written, its vertex name); two IRIs and a literal share "x"
    TERMS = [
        ("<http://a.org/x>", "x"),
        ("<http://b.org/ns#x>", "x"),
        ('"x"', "x"),
        ("<http://a.org/y/>", "y"),
        ("_:b1", "_:b1"),
        ('"a\\tb"@en', "a\\tb"),
        ('"\\u00e9"^^<http://a.org/t>', "\u00e9"),
        ("<z>", "z"),
    ]
    PREDICATES = [("<http://a.org/p>", "p"), ("<http://a.org/ns#q>", "q"), ("<p>", "p")]

    @pytest.mark.parametrize("seed", range(5))
    def test_ntriples_repeated_terms(self, seed):
        rng = random.Random(seed)
        subjects = [t for t in self.TERMS if not t[0].startswith('"')]
        triples = [
            (rng.choice(subjects), rng.choice(self.PREDICATES), rng.choice(self.TERMS))
            for _ in range(80)
        ]
        triples += rng.sample(triples, 20)  # duplicate triples
        rng.shuffle(triples)
        rows = []
        for (_, s), (_, p), (_, o) in triples:
            rows += [(s, p, o), (o, p + "_inv", s)]
        numbered, names = interned(rows)
        loaded = load_ntriples(
            "".join(f"{s} {p} {o} .\n" for (s, _), (p, _), (o, _) in triples), "_inv"
        )
        assert_same_graph(loaded, numbered, len(names), names)


class TestCompleteGraph:
    def test_two_vertices_one_label(self):
        g = complete_graph(2, {"a"})
        assert set(g.edges()) == {(0, "a", 1), (1, "a", 0)}

    def test_counts(self):
        g = complete_graph(4, {"a", "b"})
        assert g.edge_count == 4 * 3 * 2

    def test_single_vertex_no_loops(self):
        g = complete_graph(1, {"a"})
        assert g.vertex_count == 1
        assert g.edge_count == 0
        assert g.adjacency == {}

    def test_with_loops(self):
        g = complete_graph(2, {"a"}, with_loops=True)
        assert set(g.edges()) == {(0, "a", 0), (0, "a", 1), (1, "a", 0), (1, "a", 1)}

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            complete_graph(3, set())

    def test_zero_vertices_rejected(self):
        with pytest.raises(ValueError):
            complete_graph(0, {"a"})

    def test_max_outdegree_matches_formula(self):
        for n in (2, 3, 5):
            g = complete_graph(n, {"a", "b"})
            assert max(out_degree(g, v) for v in g.vertices()) == (n - 1) * 2


class TestPathsAndWords:
    def test_word_of_p0(self):
        assert word(Path(P0)) == ("a", "a", "a", "b", "b", "b")

    def test_single_edge(self):
        assert word(Path(((0, "a", 1),))) == ("a",)

    def test_word_of_p1(self):
        assert word(Path(P1)) == ("a",) * 6 + ("b",) * 6

    def test_incidence_enforced(self):
        with pytest.raises(ValueError):
            Path(((0, "a", 1), (2, "b", 3)))
        with pytest.raises(ValueError):
            Path(())

    def test_format(self):
        assert format_path(Path(((0, "a", 1), (1, "b", 0)))) == "0 -a-> 1 -b-> 0"


def out_degree(graph: Graph, vertex: int) -> int:
    return sum(len(ts) for ts in graph.adjacency.get(vertex, {}).values())


def test_out_degrees_sum_to_edge_count():
    for g in (load_tsv(M_TSV), complete_graph(4, {"a", "b"}), Graph()):
        assert sum(out_degree(g, v) for v in g.vertices()) == g.edge_count
