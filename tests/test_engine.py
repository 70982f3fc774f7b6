from __future__ import annotations

import random

import pytest

from cfpq.engine import QueryEngine, run_query, size_audit
from cfpq.grammar import build_parse_table, parse_grammar
from cfpq.graph import Graph, complete_graph, load_tsv
from cfpq.oracle import hellings_slice
from cfpq.results import reachable_pairs
from cfpq.sppf import DUMMY
from conftest import M_TSV, linear_graph, random_graph, run_checked, run_recording_dispatches


def fresh_engine(graph_m, g1):
    # seeding queues the two (S, a) alternatives at the start vertex
    return QueryEngine(graph_m, g1, start_vertices={0})


class TestAdd:
    def test_fresh_descriptor_enters_both_sets(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        seen, pending = len(eng._seen), len(eng._pending)
        bottom = eng._gss_node(None, 0)
        eng.add(g1.slot(2, 0), bottom, 0, DUMMY)
        assert (len(eng._seen), len(eng._pending)) == (seen + 1, pending + 1)

    def test_duplicate_descriptor_ignored(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        bottom = eng._gss_node(None, 0)
        eng.add(g1.slot(2, 0), bottom, 0, DUMMY)
        seen, pending = len(eng._seen), len(eng._pending)
        eng.add(g1.slot(2, 0), bottom, 0, DUMMY)
        assert (len(eng._seen), len(eng._pending)) == (seen, pending)

    def test_descriptors_differing_only_in_vertex_are_kept(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        bottom = eng._gss_node(None, 0)
        eng.add(g1.slot(2, 0), bottom, 0, DUMMY)
        seen = len(eng._seen)
        eng.add(g1.slot(2, 0), bottom, 1, DUMMY)
        assert len(eng._seen) == seen + 1


class TestPop:
    def test_pop_on_bottom_node_is_noop(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        bottom = eng._gss_node(None, 0)
        pending = len(eng._pending)
        eng.pop(bottom, 0, eng.sppf.terminal_node(0, "a", 1))
        assert len(eng._pending) == pending
        assert not bottom.pops

    def test_pop_offers_one_descriptor_per_stack_edge(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        bottom = eng._gss_node(None, 0)
        other = eng._gss_node(g1.slot(0, 2), 0)
        node = eng.create(g1.slot(1, 1), bottom, 0, DUMMY)
        eng.create(g1.slot(1, 1), other, 0, DUMMY)
        assert len(node.edges) == 2
        pending = len(eng._pending)
        # a completed Middle spanning (0, 3) resumes both callers
        middle = eng.sppf.get_node_p(
            g1.slot(2, 2),
            eng.sppf.terminal_node(0, "a", 1),
            eng.sppf.terminal_node(1, "b", 3),
        )
        eng.pop(node, 3, middle)
        assert len(eng._pending) == pending + 2

    def test_create_after_pop_replays_recorded_result(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        bottom = eng._gss_node(None, 0)
        node = eng.create(g1.slot(1, 1), bottom, 0, DUMMY)
        middle = eng.sppf.get_node_p(
            g1.slot(2, 2),
            eng.sppf.terminal_node(0, "a", 1),
            eng.sppf.terminal_node(1, "b", 3),
        )
        eng.pop(node, 3, middle)
        late_caller = eng._gss_node(g1.slot(0, 2), 0)
        pending = len(eng._pending)
        returned = eng.create(g1.slot(1, 1), late_caller, 0, DUMMY)
        assert returned is node  # interned on (slot, vertex)
        assert len(eng._pending) == pending + 1  # the pop replayed for the late caller


class TestProcessing:
    def test_terminal_step_offers_descriptor_at_edge_target(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        bottom = eng._gss_node(None, 0)
        eng._pending.clear()
        eng.processing((g1.slot(0, 0), bottom, 0, DUMMY))
        (descriptor,) = eng._pending
        slot, stack, vertex, sppf_node = descriptor
        assert slot is g1.slot(0, 1) and vertex == 1
        assert (sppf_node.left, sppf_node.label, sppf_node.right) == (0, "a", 1)

    def test_terminal_step_with_no_matching_edge_offers_nothing(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        bottom = eng._gss_node(None, 0)
        eng._pending.clear()
        eng.processing((g1.slot(0, 0), bottom, 3, DUMMY))  # no a-edge out of 3
        assert not eng._pending

    def test_nonterminal_step_predicts_table_cells(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        assert {s.key for s in eng._predict("S", 0)} == {(0, 0), (1, 0)}


class TestRunQuery:
    def test_motivating_example_roots(self, graph_m, g1):
        result = run_checked(graph_m, g1, starts={0})
        assert result.root_pairs() == {(0, 0), (0, 3)}

    def test_empty_graph_no_roots(self, g1):
        result = run_checked(Graph(), g1)
        assert result.roots == ()
        assert not result.success

    def test_all_pairs_match_oracle(self, graph_m, g1):
        result = run_checked(graph_m, g1)
        assert result.root_pairs() == {(u, v) for u in (0, 1, 2) for v in (0, 3)}
        assert result.root_pairs() == hellings_slice(graph_m, g1, "S")

    def test_finals_filter_roots_but_not_the_forest(self, graph_m, g1):
        result = run_checked(graph_m, g1, starts={0}, finals={3})
        assert result.root_pairs() == {(0, 3)}
        assert reachable_pairs(result, "S") == {(u, v) for u in (0, 1, 2) for v in (0, 3)}

    def test_vertex_validation(self, graph_m, g1):
        with pytest.raises(ValueError):
            run_query(graph_m, g1, {99})

    def test_single_terminal_production(self):
        g = parse_grammar("S -> a")
        graph = Graph()
        graph.add_edge(0, "a", 1)
        result = run_checked(graph, g)
        assert result.root_pairs() == {(0, 1)}

    def test_epsilon_grammar_on_sink_vertices(self, g0):
        graph = Graph(vertex_count=3)  # no edges at all
        result = run_checked(graph, g0)
        assert result.root_pairs() == {(v, v) for v in range(3)}


class TestOrderIndependence:
    def test_lifo_and_fifo_agree_on_everything(self, g0, g1, g2):
        fixtures = [
            (g1, load_tsv(M_TSV)),
            (g0, load_tsv(M_TSV)),
            (g0, linear_graph("ababab")),
            (g2, complete_graph(4, {"a", "b"})),
        ]
        for grammar, graph in fixtures:
            lifo = run_checked(graph, grammar, record_descriptors=True)
            fifo = run_checked(graph, grammar, worklist="fifo", record_descriptors=True)
            assert set(lifo.descriptor_keys) == set(fifo.descriptor_keys)
            assert lifo.root_pairs() == fifo.root_pairs()
            assert lifo.engine.descriptors == fifo.engine.descriptors
            assert lifo.engine.gss_nodes == fifo.engine.gss_nodes

    def test_unknown_worklist_rejected(self, graph_m, g1):
        with pytest.raises(ValueError):
            QueryEngine(graph_m, g1, worklist="random")


class TestLookaheadIsOnlyAnOptimization:
    def test_fixtures(self, g0, g1, g2):
        for grammar, graph in [
            (g1, load_tsv(M_TSV)),
            (g0, linear_graph("ababab")),
            (g2, complete_graph(3, {"a", "b"})),
        ]:
            fast = run_checked(graph, grammar)
            blind = run_checked(
                graph, grammar, table=build_parse_table(grammar, lookahead=False)
            )
            assert fast.root_pairs() == blind.root_pairs()
            for nt in grammar.nonterminals:
                assert reachable_pairs(fast, nt) == reachable_pairs(blind, nt)

    def test_random_graphs(self, g1):
        rng = random.Random(99)
        blind_table = build_parse_table(g1, lookahead=False)
        for _ in range(15):
            graph = random_graph(rng, max_vertices=7, labels="ab")
            fast = run_checked(graph, g1)
            blind = run_checked(graph, g1, table=blind_table)
            assert fast.root_pairs() == blind.root_pairs()


def test_random_grammars_against_the_oracle():
    from cfpq.grammar import Grammar
    from cfpq.oracle import hellings_pairs

    rng = random.Random(123456)

    def make_grammar():
        nts = ["S", "A", "B"][: rng.randint(1, 3)]
        ts = ["a", "b", "c"][: rng.randint(1, 3)]
        rules = []
        for lhs in nts:
            for _ in range(rng.randint(1, 3)):
                length = rng.choice([0, 1, 1, 2, 2, 3, 4])
                rules.append((lhs, tuple(rng.choice(nts + ts) for _ in range(length))))
        if not any(lhs == "S" for lhs, _ in rules):
            rules.append(("S", ()))
        return Grammar(rules, start="S")

    def make_graph():
        n = rng.randint(1, 7)
        graph = Graph(vertex_count=n)
        density = rng.uniform(0.1, 0.7)
        for u in range(n):
            for v in range(n):
                for label in "abc":
                    if rng.random() < density:
                        graph.add_edge(u, label, v)
        return graph

    for _ in range(60):
        grammar = make_grammar()
        graph = make_graph()
        result = run_checked(graph, grammar)
        facts = hellings_pairs(graph, grammar)
        for nt in grammar.nonterminals:
            engine = reachable_pairs(result, nt)
            oracle = {(u, v) for a, u, v in facts if a == nt}
            if nt == grammar.start:
                assert engine == oracle
            else:
                # non-start nonterminals appear only where some derivation
                # from the start actually predicted them
                assert engine <= oracle


def test_descriptor_extension_invariant_holds(graph_m, g1):
    result = run_checked(graph_m, g1, record_descriptors=True)
    for slot_key, stack_key, vertex, sppf_key in result.descriptor_keys:
        if sppf_key == "$":
            continue
        left, right = sppf_key[-2], sppf_key[-1]
        assert left == stack_key[1] and right == vertex


def test_dispatch_counts(graph_m, g1):
    result, processed = run_recording_dispatches(graph_m, g1)
    assert len(processed) == len(set(processed)) == result.engine.descriptors
    assert all(c.ok for c in size_audit(result))
