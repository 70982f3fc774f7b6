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
from cfpq.graph import Graph
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
        assert str(g1.productions[0]) == "S -> a S b"

    def test_epsilon_only(self):
        g = parse_grammar("S -> eps")
        assert g.productions[0].rhs == ()
        assert str(g.productions[0]) == "S -> eps"
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
            ("S -> a b\nS -> a S b | a b", "line 2: .* reserved; a rule per alternative"),
            ("S -> | a", "line 1: '\\|' and '->' are reserved"),
            ("S -> a\nS -> a -> b", "line 2: '\\|' and '->' are reserved"),
        ],
    )
    def test_syntax_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(GrammarError, match=fragment):
            parse_grammar(text)

    def test_start_symbol_needs_a_rule(self):
        with pytest.raises(GrammarError, match="start symbol 'X' has no rule"):
            Grammar([("S", ("a",))], start="X")

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


def cell(table, nonterminal, terminal):
    """The keys of the alternatives whose FIRST holds ``terminal``."""
    return {slot.key for slot, first, _ in table.rows[nonterminal] if terminal in first}


class TestParseTable:
    def test_g1_cells(self, g1):
        table = build_parse_table(g1)
        assert cell(table, "S", "a") == {(0, 0), (1, 0)}  # S -> .aSb and S -> .Middle
        assert cell(table, "S", "b") == set()
        assert cell(table, "Middle", "a") == {(2, 0)}

    def test_g0_nullable_entries(self, g0):
        table = build_parse_table(g0)
        # FIRST is terminals only: a S b and S S start with a, and b starts
        # no alternative; the empty-deriving flag is apart from FIRST
        assert cell(table, "S", "a") == {(1, 0), (2, 0)}
        assert cell(table, "S", "b") == set()
        # both the epsilon production and the nullable S S alternative qualify
        assert {slot.key for slot, _, empty in table.rows["S"] if empty} == {(0, 0), (2, 0)}


class TestSlots:
    def test_g1_slot_count(self, g1):
        # rhs lengths 3, 1, 2 -> (3+1) + (1+1) + (2+1)
        assert len(g1.slots()) == 9

    def test_epsilon_grammar_single_slot(self):
        g = parse_grammar("S -> eps")
        assert len(g.slots()) == 1
        assert g.slots()[0].symbol is None

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
    """Forms derivable from ``root`` through forms of at most ``max_length``
    symbols, each cut after its first terminal.  Symbols after the first
    terminal can change neither emptiness nor the first terminal, so only the
    nonterminals before it are expanded."""
    seen = {(root,)}
    queue = deque(seen)
    while queue:
        form = queue.popleft()
        for i, sym in enumerate(form):
            if sym not in grammar.nonterminals:
                break
            for rhs in [p.rhs for p in grammar.productions if p.lhs == sym]:
                new = form[:i] + rhs + form[i + 1 :]
                if len(new) > max_length:
                    continue
                for j in range(i, len(new)):
                    if new[j] not in grammar.nonterminals:
                        new = new[: j + 1]
                        break
                if new not in seen:
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
                for p in g.productions
                if p.lhs == a and t in brute_first_of(g, p.rhs, nullable, first)[0]
            }
            assert cell(table, a, t) == expected, (a, t)


def test_prediction_matches_brute_force():
    """The engine predicts an alternative at a vertex iff its FIRST set meets
    the vertex's out-labels or it derives the empty word, in grammar order."""
    rng = random.Random(31337)
    for _ in range(40):
        g = random_grammar(rng)
        nullable, first = brute_tables(g, max_length=8)
        graph = random_graph(rng, max_vertices=6, labels="abc")
        graph = Graph(graph.edges(), graph.vertex_count + 1)  # and a sink with no out-edges
        engine = QueryEngine(graph, g)
        for v in graph.vertices():
            out_labels = set(graph.adjacency.get(v, ()))
            for a in g.nonterminals:
                expected = []
                for p in g.productions:
                    rhs_first, rhs_nullable = brute_first_of(g, p.rhs, nullable, first)
                    if p.lhs == a and (rhs_first & out_labels or rhs_nullable):
                        expected.append((p.index, 0))
                # grammar order: it fixes the descriptor order, so forest ids
                assert [s.key for s in engine._predict(a, v)] == expected, (a, v)
