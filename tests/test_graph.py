from __future__ import annotations

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

M_EDGES = {(0, "a", 1), (1, "a", 2), (2, "a", 0), (0, "b", 3), (3, "b", 0)}


class TestAddEdge:
    def test_insert_into_empty(self):
        g = Graph()
        assert g.add_edge(0, "a", 1) is True
        assert g.edge_count == 1

    def test_duplicate_is_rejected(self):
        g = Graph()
        assert g.add_edge(0, "a", 1) is True
        assert g.add_edge(0, "a", 1) is False
        assert g.edge_count == 1

    def test_example_paths_rebuild_the_map(self):
        g = Graph()
        for edge in P0 + P1:
            g.add_edge(*edge)
        assert set(g.edges()) == M_EDGES
        assert g.edge_count == 5

    def test_parallel_edges_with_distinct_labels_allowed(self):
        g = Graph()
        assert g.add_edge(0, "a", 1) and g.add_edge(0, "b", 1)
        assert g.edge_count == 2


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
        g = load_tsv("# edges\n\n0\ta\t1\n")
        assert g.edge_count == 1

    def test_malformed_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_tsv("0\ta\t1\n0 a 1\n")

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
            assert max(g.out_degree(v) for v in g.vertices()) == (n - 1) * 2


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


def test_out_degrees_sum_to_edge_count():
    for g in (load_tsv(M_TSV), complete_graph(4, {"a", "b"}), Graph()):
        assert sum(g.out_degree(v) for v in g.vertices()) == g.edge_count
