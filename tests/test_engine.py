from __future__ import annotations

import hashlib
import random

import pytest

from cfpq.engine import QueryEngine, run_query, size_audit
from cfpq.grammar import Grammar, parse_grammar
from cfpq.graph import Graph, complete_graph, load_tsv
from cfpq.oracle import hellings_pairs, hellings_slice
from cfpq.results import reachable_pairs
from cfpq.sppf import DUMMY, Sppf, export_json
from conftest import (
    M_TSV,
    blind_table,
    linear_graph,
    random_graph,
    run_checked,
    run_recording_dispatches,
)


def fresh_engine(graph_m, g1):
    # seeding queues the two (S, a) alternatives at the start vertex
    return QueryEngine(graph_m, g1, start_vertices={0})


def two_call_sites_engine():
    # A is called at vertex 0 from two return slots of S: S -> A . b, S -> A . c
    grammar = parse_grammar("S -> A b\nS -> A c\nA -> a")
    return QueryEngine(linear_graph("ab"), grammar, start_vertices={0}), grammar


def descriptor_count(eng):
    # the combined descriptors recorded so far; predictions are recorded nowhere
    return sum(map(len, eng._seen.values()))


class _OneStep(list):
    """A worklist that reads as empty once ``run`` has popped from it, so
    that ``run`` processes only the descriptor on top."""

    popped = False

    def pop(self):
        self.popped = True
        return super().pop()

    def __bool__(self):
        return not self.popped


def step(eng, descriptor):
    """Let ``run`` process ``descriptor`` alone, above the pending ones, and
    return what that step queued; it stays pending after the rest."""
    before = len(eng._pending)
    eng._pending = _OneStep([*eng._pending, descriptor])
    eng.run()
    eng._pending = list(eng._pending)
    return eng._pending[before:]


def completed_a(eng, grammar):
    # A -> a . on the edge (0, a, 1): the A node spanning (0, 1)
    leaf = eng.sppf.terminal_node(0, "a", 1)
    return eng.sppf.get_node_p(grammar.slot(2, 1), DUMMY, leaf, 0, 0, 1)


class TestAdd:
    def test_fresh_descriptor_enters_both_sets(self):
        eng, grammar = two_call_sites_engine()
        start = eng._call("S", 0)
        step(eng, (grammar.slot(0, 0), start, 0, DUMMY))  # S -> . A b calls A at 0
        node = eng._gss["A", 0]
        completed = completed_a(eng, grammar)
        pending = len(eng._pending)
        # the pop of A at 1 resumes S -> A . b, which holds A on (0, 1)
        queued = step(eng, (grammar.slot(2, 1), node, 1, completed))
        assert eng._seen[grammar.slot(0, 1)] == {completed}
        assert len(eng._pending) == pending + 1
        assert queued == [(grammar.slot(0, 1), start, 1, completed)]

    def test_duplicate_descriptor_ignored(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        pending = list(eng._pending)
        assert eng._call("S", 0) is not None  # seeded: its predictions are queued
        assert eng._pending == pending

    def test_descriptors_differing_only_in_vertex_are_kept(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        pending = len(eng._pending)
        node = eng._call("S", 2)
        assert eng._pending[pending:] == [
            (g1.slot(0, 0), node, 2, DUMMY),
            (g1.slot(1, 0), node, 2, DUMMY),
        ]
        assert not any(eng._seen.values())

    def test_stack_of_another_nonterminal_is_rejected(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        with pytest.raises(AssertionError):  # Middle -> . a b on the stack of S
            step(eng, (g1.slot(2, 0), eng._call("S", 0), 0, DUMMY))

    def test_forest_node_of_another_extent_is_rejected(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        leaf = eng.sppf.terminal_node(1, "a", 2)  # spans (1, 2), not (0, 2)
        with pytest.raises(AssertionError, match="descriptor mismatch"):
            step(eng, (g1.slot(0, 1), eng._call("S", 0), 2, leaf))

    def test_second_add_of_one_slot_and_forest_node_is_ignored(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        start = eng._call("S", 0)
        eng._pending.clear()
        for _ in range(2):  # S -> . a S b at 0 reads the edge (0, a, 1) twice
            step(eng, (g1.slot(0, 0), start, 0, DUMMY))
        (descriptor,) = eng._pending
        assert descriptor[:3] == (g1.slot(0, 1), start, 1)

    def test_one_forest_node_under_another_slot_is_kept(self):
        eng, grammar = two_call_sites_engine()
        start = eng._call("S", 0)
        step(eng, (grammar.slot(0, 0), start, 0, DUMMY))  # S -> . A b calls A at 0
        step(eng, (grammar.slot(2, 1), eng._gss["A", 0], 1, completed_a(eng, grammar)))
        seen = descriptor_count(eng)
        # S -> . A c calls A at 0 again: the replayed pop gives S -> A . c the same A
        step(eng, (grammar.slot(1, 0), start, 0, DUMMY))
        assert descriptor_count(eng) == seen + 1


class TestPop:
    def test_pop_without_callers_is_replayed_to_later_callers(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        start = eng._call("S", 0)  # seeded, but no caller attached
        caller = eng._call("S", 2)  # a new stack node queues its predictions here
        pending = len(eng._pending)
        middle = eng.sppf.get_node_p(
            g1.slot(2, 2),
            eng.sppf.terminal_node(0, "a", 1),
            eng.sppf.terminal_node(1, "b", 3),
            0,
            1,
            3,
        )
        completed = eng.sppf.get_node_p(g1.slot(1, 1), DUMMY, middle, 0, 0, 3)  # S on (0, 3)
        step(eng, (g1.slot(1, 1), start, 3, completed))  # S -> Middle . pops S at 3
        assert len(eng._pending) == pending
        assert list(start.pops) == [completed]
        # S -> a S . b after the edge (2, a, 0) calls S at 0: the start node
        leaf = eng.sppf.terminal_node(2, "a", 0)
        step(eng, (g1.slot(0, 1), caller, 0, leaf))
        assert list(start.edges) == [(g1.slot(0, 2), leaf, caller)]
        (descriptor,) = list(eng._pending)[pending:]
        slot, stack, vertex, sppf_id = descriptor
        sppf_node = eng.sppf.node(sppf_id)
        assert (slot, (stack.nonterminal, stack.index), vertex) == (g1.slot(0, 2), ("S", 2), 3)
        assert (sppf_node.left, sppf_node.right) == (2, 3)

    def test_pop_offers_one_descriptor_per_stack_edge(self):
        eng, grammar = two_call_sites_engine()
        start = eng._call("S", 0)
        step(eng, (grammar.slot(0, 0), start, 0, DUMMY))
        node = eng._gss["A", 0]
        step(eng, (grammar.slot(1, 0), start, 0, DUMMY))
        assert eng._gss["A", 0] is node
        assert (node.nonterminal, node.index) == ("A", 0) and len(node.edges) == 2
        pending = len(eng._pending)
        # a completed A spanning (0, 1) resumes both return slots
        step(eng, (grammar.slot(2, 1), node, 1, completed_a(eng, grammar)))
        assert len(eng._pending) == pending + 2

    def test_create_after_pop_replays_recorded_result(self):
        eng, grammar = two_call_sites_engine()
        start = eng._call("S", 0)
        step(eng, (grammar.slot(0, 0), start, 0, DUMMY))
        node = eng._gss["A", 0]
        step(eng, (grammar.slot(2, 1), node, 1, completed_a(eng, grammar)))
        pending = len(eng._pending)
        step(eng, (grammar.slot(1, 0), start, 0, DUMMY))
        assert eng._gss["A", 0] is node  # interned on (nonterminal, vertex)
        assert len(node.edges) == 2
        assert len(eng._pending) == pending + 1  # the pop replayed for the late return slot


class TestUnpredictedCall:
    def test_create_attaches_no_edge_to_a_call_that_predicts_nothing(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        start = eng._call("S", 0)
        assert step(eng, (g1.slot(1, 0), start, 3, DUMMY)) == []  # S -> . Middle at 3
        assert ("Middle", 3) not in eng._gss

    def test_sparse_ids_make_no_stack_node_per_vertex(self, monkeypatch):
        graph = Graph([(0, "a", 1), (1, "b", 100_000)], 100_001)
        calls = []
        predict = QueryEngine._predict

        def counted(engine, nonterminal, vertex):
            calls.append((nonterminal, vertex))
            return predict(engine, nonterminal, vertex)

        monkeypatch.setattr(QueryEngine, "_predict", counted)
        engine = QueryEngine(graph, parse_grammar("S -> a S b\nS -> a b"))
        result = engine.run()
        assert result.engine.gss_nodes == 1
        assert result.root_pairs() == {(0, 100_000)}
        # S derives no empty word, so a vertex with no out-edge is not seeded
        assert len(calls) <= 3


class TestProcessing:
    def test_terminal_step_offers_descriptor_at_edge_target(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        start = eng._call("S", 0)
        eng._pending.clear()
        step(eng, (g1.slot(0, 0), start, 0, DUMMY))
        (descriptor,) = eng._pending
        slot, stack, vertex, sppf_id = descriptor
        sppf_node = eng.sppf.node(sppf_id)
        assert slot is g1.slot(0, 1) and vertex == 1
        assert (sppf_node.left, sppf_node.label, sppf_node.right) == (0, "a", 1)

    def test_terminal_step_with_no_matching_edge_offers_nothing(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        start = eng._call("S", 0)
        eng._pending.clear()
        step(eng, (g1.slot(0, 0), start, 3, DUMMY))  # no a-edge out of 3
        assert not eng._pending

    def test_nonterminal_step_predicts_table_cells(self, graph_m, g1):
        eng = fresh_engine(graph_m, g1)
        assert [s.key for s in eng._predict("S", 0)] == [(0, 0), (1, 0)]


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

    @pytest.mark.parametrize("vertex", [1.5, 1.0, "1", None])
    @pytest.mark.parametrize("role", ["start_vertices", "final_vertices"])
    def test_vertices_must_be_integers(self, graph_m, g1, role, vertex):
        with pytest.raises(TypeError, match="a vertex must be an integer"):
            run_query(graph_m, g1, **{role: [vertex]})

    @pytest.mark.parametrize(
        "starts, finals", [({0}, {99}), ({0}, {-1}), ({0}, {0, 4}), ({-1}, None)]
    )
    def test_explicit_vertex_sets_are_validated(self, graph_m, g1, starts, finals):
        with pytest.raises(ValueError, match="outside the graph"):
            run_query(graph_m, g1, starts, finals)

    def test_vertices_must_fit_in_32_bits(self, g1):
        graph = Graph([(0, "a", 2**32)])  # 2**32 + 1 vertices, none of them stored
        with pytest.raises(ValueError, match=r"at most 2\*\*32"):
            QueryEngine(graph, g1, start_vertices={0})
        top = 2**32 - 1  # the largest vertex that fits: the pivot of the root
        graph = Graph([(0, "a", top), (top, "b", 1)])
        (root,) = run_query(graph, parse_grammar("S -> a b"), {0}).roots
        (packed,) = root.children
        assert (root.left, root.right, packed.pivot) == (0, 1, top)
        children = [(c.left, c.label, c.right) for c in packed.children]
        assert children == [(0, "a", top), (top, "b", 1)]

    def test_default_sets_cover_isolated_top_vertex(self, g0):
        graph = Graph([(0, "a", 1)], 5)
        result = run_checked(graph, g0)
        assert 4 in result.start_vertices and 4 in result.final_vertices
        assert result.root_pairs() == {(v, v) for v in range(5)}

    def test_single_terminal_production(self):
        g = parse_grammar("S -> a")
        result = run_checked(Graph([(0, "a", 1)]), g)
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
            lifo, lifo_keys = run_recording_dispatches(graph, grammar)
            fifo, fifo_keys = run_recording_dispatches(graph, grammar, worklist="fifo")
            assert set(lifo_keys) == set(fifo_keys)
            assert lifo.root_pairs() == fifo.root_pairs()
            assert lifo.engine.descriptors == fifo.engine.descriptors
            assert lifo.engine.gss_nodes == fifo.engine.gss_nodes


class TestLookaheadIsOnlyAnOptimization:
    def test_fixtures(self, g0, g1, g2):
        for grammar, graph in [
            (g1, load_tsv(M_TSV)),
            (g0, linear_graph("ababab")),
            (g2, complete_graph(3, {"a", "b"})),
        ]:
            fast = run_checked(graph, grammar)
            blind = run_checked(graph, grammar, table=blind_table(grammar))
            assert fast.root_pairs() == blind.root_pairs()
            for nt in grammar.nonterminals:
                assert reachable_pairs(fast, nt) == reachable_pairs(blind, nt)

    def test_random_graphs(self, g1):
        rng = random.Random(99)
        table = blind_table(g1)
        for _ in range(15):
            graph = random_graph(rng, max_vertices=7, labels="ab")
            fast = run_checked(graph, g1)
            blind = run_checked(graph, g1, table=table)
            assert fast.root_pairs() == blind.root_pairs()


def random_grammar(rng: random.Random) -> Grammar:
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


def random_abc_graph(rng: random.Random) -> Graph:
    n = rng.randint(1, 7)
    density = rng.uniform(0.1, 0.7)
    edges = [
        (u, label, v) for u in range(n) for v in range(n) for label in "abc" if rng.random() < density
    ]
    return Graph(edges, n)


def test_random_grammars_against_the_oracle():
    rng = random.Random(123456)
    for _ in range(60):
        grammar = random_grammar(rng)
        graph = random_abc_graph(rng)
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


class TestCallSiteSharing:
    """One stack node per (nonterminal, vertex), whatever the call sites."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_one_stack_node_per_vertex_on_complete_graphs(self, g0, n):
        # g0 calls S from three return slots, and the start vertices seed S too
        result, descriptor_keys = run_recording_dispatches(complete_graph(n, "ab"), g0)
        assert result.engine.gss_nodes == n
        initial = {(p.index, 0) for p in g0.productions if p.lhs == "S"}
        seeded = [
            (slot_key, vertex)
            for slot_key, stack_key, vertex, sppf_key in descriptor_keys
            if slot_key in initial and sppf_key == "$"
        ]
        assert sorted(seeded) == sorted((key, v) for key in initial for v in range(n))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_each_stack_node_is_predicted_once(self, g0, n, monkeypatch):
        calls = []
        predict = QueryEngine._predict

        def counted(engine, nonterminal, vertex):
            calls.append((nonterminal, vertex))
            return predict(engine, nonterminal, vertex)

        monkeypatch.setattr(QueryEngine, "_predict", counted)
        result = run_checked(complete_graph(n, "ab"), g0)
        assert len(calls) == result.engine.gss_nodes

    def test_stack_bounds_within_the_slot_keyed_bounds(self):
        rng = random.Random(4242)
        for _ in range(40):
            grammar = random_grammar(rng)
            graph = random_abc_graph(rng)
            result = run_checked(graph, grammar)
            n = graph.vertex_count
            rows = {c.name.split(" <=")[0]: c for c in size_audit(result)}
            assert rows["stack nodes"].bound <= (grammar.return_slot_count + 1) * n
            assert rows["stack edges"].bound <= ((grammar.return_slot_count + 1) * n) ** 2

    def test_every_stack_node_predicts_an_alternative(self):
        rng = random.Random(4242)  # the grammars and graphs of the test above
        for _ in range(40):
            grammar = random_grammar(rng)
            engine = QueryEngine(random_abc_graph(rng), grammar)
            engine.run()
            assert all(engine._predict(a, v) for a, v in engine._gss)

    def test_descriptor_sets_hold_forest_ids_only(self):
        rng = random.Random(4242)  # the grammars and graphs of the tests above
        for _ in range(40):
            grammar = random_grammar(rng)
            engine = QueryEngine(random_abc_graph(rng), grammar)
            engine.run()
            members = [m for seen in engine._seen.values() for m in seen]
            assert all(type(m) is int and m >= 0 for m in members)


# sha256 of export_json(result.sppf), the whole forest, all vertices to all.
FOREST_DIGESTS = {
    ("g0", "M"): "f75c587f3a75e9b69c784d1dea71894b518720947a3f519be95496a4a6eb10ad",
    ("g0", "K5"): "2ef9b1a915a207c941284fd72443e02304b4c02283a0f226fea93c048d55d9dc",
    ("g0", "random"): "e89bd3dc857437a298bbafef0438533be163168a9c514903fcde0a67fa1f7bd2",
    ("g1", "M"): "1eec77e293c1321d1e594168070bfa81e09fbdc216d342d427f8abcb2b664575",
    ("g1", "K5"): "64b575b93656bc7055a9288698d326e83b360f86e6532202f2b034f20b6faa3f",
    ("g1", "random"): "ef86a2276aae884fa06ac662c544b07a4e292858ab943b1999b4c767cfb29558",
    ("g2", "M"): "19bb187a713eb3010fd27b9e2aa599241cc618bf7defdf5bb60e10d1f4dd2d8b",
    ("g2", "K5"): "29db529f070a420c4d58a4bf5cba272da1095fe60745f58004363ce836103ab7",
    ("g2", "random"): "138d631e7e5d3d5e38cee9c4313e937abe621f5ca40242ab426534fda11a6153",
}


@pytest.mark.parametrize("grammar_id, graph_id", sorted(FOREST_DIGESTS))
def test_forest_is_pinned(request, grammar_id, graph_id):
    """Engine changes must not change the forest the paper defines."""
    graph = {
        "M": lambda: load_tsv(M_TSV),
        "K5": lambda: complete_graph(5, "ab"),
        "random": lambda: random_graph(random.Random(2024), max_vertices=6, labels="ab"),
    }[graph_id]()
    result = run_checked(graph, request.getfixturevalue(grammar_id))
    digest = hashlib.sha256(export_json(result.sppf).encode()).hexdigest()
    assert digest == FOREST_DIGESTS[grammar_id, graph_id]


def test_descriptor_extension_invariant_holds(graph_m, g1):
    _, descriptor_keys = run_recording_dispatches(graph_m, g1)
    for slot_key, stack_key, vertex, sppf_key in descriptor_keys:
        if sppf_key == "$":
            continue
        left, right = sppf_key[-2], sppf_key[-1]
        assert left == stack_key[1] and right == vertex


@pytest.mark.parametrize(
    "n, packed, descriptors", [(4, 180, 88), (6, 618, 192), (8, 1_480, 336)]
)
def test_one_get_node_p_call_per_combine(g0, n, packed, descriptors, monkeypatch):
    # perfbench counts combines by wrapping this method: a combine inlined
    # into the engine would drop out of sppf.get_node_p_calls and packed_yield
    calls = [0]
    get_node_p = Sppf.get_node_p

    def counted(sppf, *args):
        calls[0] += 1
        return get_node_p(sppf, *args)

    monkeypatch.setattr(Sppf, "get_node_p", counted)
    result = run_query(complete_graph(n, "ab"), g0)
    assert (calls[0], result.sppf.stats().packed, result.engine.descriptors) == (
        3 * n**3,
        packed,
        descriptors,
    )


@pytest.mark.parametrize("n, leaves", [(4, 24), (6, 60), (8, 112)])
def test_one_leaf_lookup_per_leaf_per_run(g0, n, leaves, monkeypatch):
    # a run interns each (vertex, label) pair's leaves once, not per descriptor
    calls = [0]
    terminal_node = Sppf.terminal_node

    def counted(sppf, *args):
        calls[0] += 1
        return terminal_node(sppf, *args)

    monkeypatch.setattr(Sppf, "terminal_node", counted)
    result = run_query(complete_graph(n, "ab"), g0)
    assert calls[0] == result.sppf.stats().terminal == leaves


def test_dispatch_counts(graph_m, g1):
    result, processed = run_recording_dispatches(graph_m, g1)
    assert len(processed) == len(set(processed)) == result.engine.descriptors
    assert all(c.ok for c in size_audit(result))
