from __future__ import annotations

import random
from collections import deque

import pytest

from cfpq.grammar import (
    Grammar,
    GrammarError,
    build_parse_table,
    compute_first,
    compute_nullable,
    parse_grammar,
)
from cfpq.engine import QueryEngine
from conftest import G0_TEXT, G1_TEXT, G2_TEXT, random_graph

Q1_TEXT = (
    "S -> subClassOf_r S subClassOf\n"
    "S -> type_r S type\n"
    "S -> subClassOf_r subClassOf\n"
    "S -> type_r type"
)


class TestParseGrammar:
    def test_motivating_grammar(self, g1):
        assert g1.nonterminals == {"S", "Middle"}
        assert g1.terminals == {"a", "b"}
        assert g1.start == "S"
        assert [p.rhs for p in g1.productions] == [("a", "S", "b"), ("Middle",), ("a", "b")]

    def test_epsilon_only(self):
        g = parse_grammar("S -> eps")
        assert g.productions[0].rhs == ()
        assert g.terminals == frozenset()
        assert g.nullable == {"S"}

    def test_ontology_query_grammar(self):
        g = parse_grammar(Q1_TEXT)
        assert len(g.productions) == 4
        assert g.terminals == {"subClassOf", "subClassOf_r", "type", "type_r"}
        assert g.start == "S"

    def test_comments_and_blank_lines(self):
        g = parse_grammar("# header\n\nS -> a S b  # trailing\n\nS -> Middle\nMiddle -> a b\n")
        assert len(g.productions) == 3

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("S - a", "line 1"),
            ("S -> a\nbroken", "line 2"),
            ("S -> ", "line 1"),
            ("S T -> a", "single symbol"),
            ("S -> a eps b", "only right-hand-side symbol"),
            ("eps -> a", "rule head"),
        ],
    )
    def test_syntax_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(GrammarError, match=fragment):
            parse_grammar(text)

    def test_empty_rule_set(self):
        with pytest.raises(GrammarError, match="no rules"):
            parse_grammar("# only a comment\n")


class TestNullable:
    def test_g0(self, g0):
        assert compute_nullable(g0) == {"S"}

    def test_g1_has_none(self, g1):
        assert compute_nullable(g1) == frozenset()

    def test_two_step_fixpoint(self):
        g = parse_grammar("A -> B\nB -> eps")
        assert compute_nullable(g) == {"A", "B"}


class TestParseTable:
    def test_g1_cells(self, g1):
        table = build_parse_table(g1)
        cell = {s.key for s in table.cell("S", "a")}
        assert cell == {(0, 0), (1, 0)}  # S -> .aSb and S -> .Middle
        assert table.cell("S", "b") == ()
        assert {s.key for s in table.cell("Middle", "a")} == {(2, 0)}

    def test_g0_nullable_entries(self, g0):
        table = build_parse_table(g0)
        # cells are FIRST-only: a S b and S S start with a, and b starts no
        # alternative; nullable alternatives are listed apart from the cells
        assert {s.key for s in table.cell("S", "a")} == {(1, 0), (2, 0)}
        assert table.cell("S", "b") == ()
        # both the epsilon production and the nullable S S alternative qualify
        assert {s.key for s in table.nullable_alternatives("S")} == {(0, 0), (2, 0)}

    def test_without_lookahead_every_cell_has_all_alternatives(self, g1):
        table = build_parse_table(g1, lookahead=False)
        for t in g1.terminals:
            assert {s.key for s in table.cell("S", t)} == {(0, 0), (1, 0)}
            assert {s.key for s in table.cell("Middle", t)} == {(2, 0)}


class TestSlots:
    def test_g1_slot_count(self, g1):
        # rhs lengths 3, 1, 2 -> (3+1) + (1+1) + (2+1)
        assert len(g1.slots()) == 9

    def test_epsilon_grammar_single_slot(self):
        g = parse_grammar("S -> eps")
        assert len(g.slots()) == 1
        assert g.slots()[0].at_end

    def test_g2_slot_count(self, g2):
        assert len(g2.slots()) == 6

    def test_each_pair_enumerated_once_in_stable_order(self, g1):
        keys = [s.key for s in g1.slots()]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_interning(self, g1):
        assert g1.slots() is g1.slots()
        assert g1.slot(0, 1) is g1.slots()[1]
        again = parse_grammar(G1_TEXT)
        assert [s.key for s in again.slots()] == [s.key for s in g1.slots()]
        assert [repr(s) for s in again.slots()] == [repr(s) for s in g1.slots()]


# -- brute-force oracle over sentential forms ---------------------------------


def derivable_forms(grammar: Grammar, root: str, max_length: int) -> set[tuple[str, ...]]:
    seen = {(root,)}
    queue = deque(seen)
    while queue:
        form = queue.popleft()
        for i, sym in enumerate(form):
            if sym not in grammar.nonterminals:
                continue
            for p in grammar.alternatives[sym]:
                new = form[:i] + p.rhs + form[i + 1 :]
                if len(new) <= max_length and new not in seen:
                    seen.add(new)
                    queue.append(new)
    return seen


def brute_tables(grammar: Grammar, max_length: int = 8):
    nullable = set()
    first: dict[str, set[str]] = {a: set() for a in grammar.nonterminals}
    for a in grammar.nonterminals:
        for form in derivable_forms(grammar, a, max_length):
            if not form:
                nullable.add(a)
            elif form[0] in grammar.terminals:
                first[a].add(form[0])
    return nullable, first


@pytest.mark.parametrize("text", [G0_TEXT, G1_TEXT, G2_TEXT, Q1_TEXT])
def test_analysis_matches_brute_force(text):
    g = parse_grammar(text)
    nullable, first = brute_tables(g)
    assert compute_nullable(g) == nullable
    assert compute_first(g) == {a: frozenset(s) for a, s in first.items()}


def random_grammar(rng: random.Random) -> Grammar:
    nonterminals = ["S", "A", "B", "C"][: rng.randint(1, 4)]
    terminals = ["a", "b"]
    rules = []
    for lhs in nonterminals:
        for _ in range(rng.randint(1, 2)):
            rhs = tuple(
                rng.choice(nonterminals + terminals) for _ in range(rng.randint(0, 2))
            )
            rules.append((lhs, rhs))
    # keep every nonterminal reachable from the start symbol
    rules.append(("S", tuple(nonterminals)))
    return Grammar(rules, start="S")


def test_analysis_sound_on_random_grammars():
    rng = random.Random(20240817)
    for _ in range(40):
        g = random_grammar(rng)
        nullable, first = brute_tables(g, max_length=8)
        # the bounded brute force can only under-approximate
        assert nullable <= compute_nullable(g)
        for a in g.nonterminals:
            assert first[a] <= compute_first(g)[a]


def brute_first_of(grammar: Grammar, rhs, nullable, first) -> tuple[set[str], bool]:
    """FIRST of a right-hand side from brute-force tables, and whether it is nullable."""
    out: set[str] = set()
    for sym in rhs:
        if sym in grammar.terminals:
            return out | {sym}, False
        out |= first[sym]
        if sym not in nullable:
            return out, False
    return out, True


@pytest.mark.parametrize("text", [G0_TEXT, G1_TEXT, G2_TEXT, Q1_TEXT])
def test_table_invariant_cell_by_cell(text):
    g = parse_grammar(text)
    table = build_parse_table(g)
    nullable, first = brute_tables(g)
    for a in g.nonterminals:
        for t in g.terminals:
            expected = {
                (p.index, 0)
                for p in g.alternatives[a]
                if t in brute_first_of(g, p.rhs, nullable, first)[0]
            }
            assert {s.key for s in table.cell(a, t)} == expected, (a, t)


def test_prediction_matches_brute_force():
    """The engine predicts an alternative at a vertex iff its FIRST set meets
    the vertex's out-labels or it derives the empty word."""
    rng = random.Random(31337)
    for _ in range(40):
        g = random_grammar(rng)
        nullable, first = brute_tables(g, max_length=8)
        graph = random_graph(rng, max_vertices=6, labels="abc")
        graph.touch_vertex(graph.vertex_count)  # a sink with no out-edges
        engine = QueryEngine(graph, g)
        for v in graph.vertices():
            out_labels = set(graph.adjacency.get(v, ()))
            for a in g.nonterminals:
                expected = set()
                for p in g.alternatives[a]:
                    rhs_first, rhs_nullable = brute_first_of(g, p.rhs, nullable, first)
                    if rhs_first & out_labels or rhs_nullable:
                        expected.add((p.index, 0))
                assert {s.key for s in engine._predict(a, v)} == expected, (a, v)
