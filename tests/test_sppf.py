from __future__ import annotations

from cfpq.sppf import DUMMY, Sppf, SppfStats, export_dot, export_json, load_json
from conftest import linear_graph, run_checked


def test_terminal_node_interning(g1):
    sp = Sppf(g1)
    first = sp.terminal_node(0, "a", 1)
    second = sp.terminal_node(0, "a", 1)
    assert first is second
    assert (first.left, first.label, first.right) == (0, "a", 1)
    assert sp.stats().terminal == 1


def test_epsilon_node_extension(g1):
    sp = Sppf(g1)
    node = sp.epsilon_node(2)
    assert (node.left, node.right) == (2, 2)
    assert sp.epsilon_node(2) is node


def test_pass_through_returns_right_unchanged(g1):
    sp = Sppf(g1)
    right = sp.terminal_node(0, "a", 1)
    # dot just after the leading terminal of S -> a S b, more symbols pending
    assert sp.get_node_p(g1.slot(0, 1), DUMMY, right) is right
    assert sp.stats().nonterminal == 0


def test_completed_production_builds_nonterminal_node(g1, graph_m):
    # replay the final combination step of the (0, S, 3) root on the real run
    result = run_checked(graph_m, g1, starts={0})
    sp = result.sppf
    intermediate = next(
        n for n in sp.nodes()
        if n.kind == "intermediate" and (n.left, n.right) == (0, 0) and n.label.key == (0, 2)
    )
    t03 = sp.terminal_node(0, "b", 3)
    before = sp.stats()
    parent = sp.get_node_p(g1.slot(0, 3), intermediate, t03)
    assert parent is sp.nonterminal_node("S", 0, 3)
    assert len(parent.children) == 1
    assert sp.stats() == before  # repeated combination is a no-op


def test_packed_children_record_pivot(g1, graph_m):
    result = run_checked(graph_m, g1, starts={0})
    middle = result.sppf.nonterminal_node("Middle", 2, 3)
    assert middle is not None
    (packed,) = middle.children
    assert packed.pivot == 0
    assert [c.kind for c in packed.children] == ["terminal", "terminal"]


def test_empty_stats(g1):
    assert Sppf(g1).stats() == SppfStats(0, 0, 0, 0, 0, nodes=0, edges=0)


def test_terminal_count_bounded_by_edges(g1, graph_m):
    result = run_checked(graph_m, g1)
    assert result.sppf.stats().terminal <= graph_m.edge_count


def test_stats_match_full_traversal_recount(g0):
    from cfpq.graph import complete_graph

    result = run_checked(complete_graph(4, {"a", "b"}), g0)
    sp = result.sppf
    counts = {"terminal": 0, "epsilon": 0, "nonterminal": 0, "intermediate": 0, "packed": 0}
    edges = 0
    for node in sp.nodes():
        counts[node.kind] += 1
        if node.kind in ("nonterminal", "intermediate", "packed"):
            edges += len(node.children)
    stats = sp.stats()
    assert counts == {
        "terminal": stats.terminal,
        "epsilon": stats.epsilon,
        "nonterminal": stats.nonterminal,
        "intermediate": stats.intermediate,
        "packed": stats.packed,
    }
    assert stats.nodes == sum(counts.values())
    assert stats.edges == edges


def test_every_forest_nonterminal_is_witnessed(g0, g1, g2):
    # soundness of node construction: a node (u, A, v) may only exist when
    # some word derived from A labels an actual u -> v path
    import random

    from cfpq.grammar import Grammar
    from cfpq.oracle import hellings_pairs
    from conftest import brute_matching_endpoints, random_graph

    rng = random.Random(31337)
    for _ in range(6):
        graph = random_graph(rng, max_vertices=6, labels="ab")
        for grammar in (g0, g1, g2):
            result = run_checked(graph, grammar)
            facts = hellings_pairs(graph, grammar)
            for node in result.sppf.nonterminal_nodes():
                assert (node.label, node.left, node.right) in facts
            # the bounded enumeration agrees from the other direction: every
            # short witness it finds is present in the fact set
            for a in grammar.nonterminals:
                rooted = Grammar([(p.lhs, p.rhs) for p in grammar.productions], start=a)
                for u, v in brute_matching_endpoints(graph, rooted, max_length=8):
                    assert (a, u, v) in facts


class TestExport:
    def test_empty_forest_header_only(self, g1):
        sp = Sppf(g1)
        assert load_json(export_json(sp)).stats().nodes == 0
        dot = export_dot(sp)
        assert dot.startswith("digraph sppf {") and dot.rstrip().endswith("}")
        assert "->" not in dot

    def test_json_round_trip_preserves_stats(self, g1, graph_m):
        result = run_checked(graph_m, g1)
        text = export_json(result.sppf)
        assert load_json(text).stats() == result.sppf.stats()

    def test_export_is_deterministic(self, g0, graph_m):
        first = run_checked(graph_m, g0)
        second = run_checked(graph_m, g0, worklist="fifo")
        assert export_json(first.sppf) == export_json(second.sppf)
        assert export_dot(first.sppf) == export_dot(second.sppf)

    def test_ambiguous_nodes_are_flagged(self, g0):
        result = run_checked(linear_graph("ababab"), g0, starts={0}, finals={6})
        assert result.success
        text = export_json(result.sppf, result.roots)
        assert '"ambiguous": true' in text
        dot = export_dot(result.sppf, result.roots)
        assert "style=filled" in dot

    def test_roots_restrict_export_to_reachable_part(self, g1, graph_m):
        result = run_checked(graph_m, g1, starts={0})
        full = load_json(export_json(result.sppf)).stats()
        reachable = load_json(export_json(result.sppf, result.roots)).stats()
        assert reachable.nodes <= full.nodes

    def test_simplify_drops_lone_packed_nodes(self, g1, graph_m):
        result = run_checked(graph_m, g1, starts={0})
        plain = load_json(export_json(result.sppf, result.roots)).stats()
        slim = load_json(export_json(result.sppf, result.roots, simplify=True)).stats()
        assert slim.packed < plain.packed
        assert slim.nodes < plain.nodes

    def test_verbose_packed_labels(self, g1, graph_m):
        result = run_checked(graph_m, g1, starts={0})
        assert '"production"' not in export_json(result.sppf, result.roots)
        assert '"production"' in export_json(result.sppf, result.roots, verbose=True)
        assert "xlabel" in export_dot(result.sppf, result.roots, verbose=True)

    def test_dot_uses_distinct_shapes_per_kind(self, g1, graph_m):
        result = run_checked(graph_m, g1, starts={0})
        dot = export_dot(result.sppf, result.roots)
        assert "shape=box" in dot and "shape=oval" in dot and "shape=point" in dot
