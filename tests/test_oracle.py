from __future__ import annotations

from itertools import product

import pytest

from cfpq.grammar import parse_grammar
from cfpq.graph import Graph, load_tsv
from cfpq.oracle import accepts, hellings_pairs, hellings_slice
from conftest import M_TSV


def test_single_edge_single_rule():
    g = parse_grammar("S -> a")
    assert hellings_pairs(Graph([(0, "a", 1)]), g) == {("S", 0, 1)}


def test_empty_graph():
    g = parse_grammar("S -> a")
    assert hellings_pairs(Graph(), g) == set()


def test_motivating_fixture_slice(g1):
    graph = load_tsv(M_TSV)
    assert hellings_slice(graph, g1, "S") == {(u, v) for u in (0, 1, 2) for v in (0, 3)}
    assert hellings_slice(graph, g1, "Middle") == {(2, 3)}


def test_epsilon_facts_cover_every_vertex(g0):
    facts = hellings_pairs(Graph([(0, "a", 1)], 4), g0)
    assert {("S", v, v) for v in range(4)} <= facts


def test_auxiliary_heads_are_not_reported():
    g = parse_grammar("S -> a b c d")  # binarized internally
    graph = Graph([(i, lab, i + 1) for i, lab in enumerate("abcd")])
    assert hellings_pairs(graph, g) == {("S", 0, 4)}


def test_unit_chains():
    g = parse_grammar("S -> A\nA -> B\nB -> a")
    assert hellings_pairs(Graph([(0, "a", 1)]), g) == {("S", 0, 1), ("A", 0, 1), ("B", 0, 1)}


class TestAccepts:
    @pytest.mark.parametrize(
        "w,ok",
        [
            ("ab", True),
            ("aabb", True),
            ("aaabbb", True),
            ("", False),
            ("aab", False),
            ("ba", False),
        ],
    )
    def test_balanced_with_marker(self, g1, w, ok):
        assert accepts(g1, tuple(w)) is ok

    def test_empty_word_nullable_grammar(self, g0):
        assert accepts(g0, ()) is True

    def test_equivalent_grammars_agree_on_all_short_words(self, g0, g2):
        # both describe balanced ab-brackets; exercises 4-symbol and epsilon rules
        for n in range(7):
            for w in product("ab", repeat=n):
                assert accepts(g0, w) == accepts(g2, w), w
