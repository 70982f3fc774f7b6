from __future__ import annotations

import gc
import hashlib
import json
import random
import sys
import tracemalloc
from types import SimpleNamespace

import pytest

from cfpq import sppf as sppf_module
from cfpq.cli import load_builtin_grammar
from cfpq.engine import run_query
from cfpq.grammar import Grammar, parse_grammar
from cfpq.graph import complete_graph, load_ntriples, load_tsv
from cfpq.sppf import DUMMY, Sppf, SppfStats, export_dot, export_json
from conftest import (
    G0_TEXT,
    G1_TEXT,
    G2_TEXT,
    M_TSV,
    export_stats,
    linear_graph,
    random_graph,
    reference_export_dot,
    reference_export_json,
    reference_layout,
    run_checked,
)
from test_acceptance import SYNTHETIC_ONTOLOGY

EXPORT_GRAMMARS = {
    "g0": G0_TEXT,
    "g1": G1_TEXT,
    "g2": G2_TEXT,
    "SS": "S -> S S\nS -> a\nS -> eps",
    # S is not nullable, so S -> S S builds no intermediate node: over a cycle
    # at v, (v, S, v) has a packed node whose two children are (v, S, v)
    "SSa": "S -> S S\nS -> a",
    "unit": "S -> A S\nS -> a\nA -> eps\nA -> A A",
    "nested": "S -> A B b\nA -> eps\nA -> a\nB -> eps\nB -> B a\nB -> S",
}


def test_terminal_node_interning(g1):
    sp = Sppf(g1)
    first = sp.node(sp.terminal_node(0, "a", 1))
    second = sp.node(sp.terminal_node(0, "a", 1))
    assert first == second
    assert (first.left, first.label, first.right) == (0, "a", 1)
    assert sp.stats().terminal == 1


def test_epsilon_node_extension(g1):
    sp = Sppf(g1)
    node = sp.node(sp.epsilon_node(2))
    assert (node.left, node.right) == (2, 2)
    assert sp.node(sp.epsilon_node(2)) == node
    assert node.label is None


def test_pass_through_returns_right_unchanged(g1):
    sp = Sppf(g1)
    right = sp.terminal_node(0, "a", 1)
    # dot just after the leading terminal of S -> a S b, more symbols pending
    assert sp.get_node_p(g1.slot(0, 1), DUMMY, right, 0, 0, 1) is right
    assert sp.stats().nonterminal == 0


@pytest.mark.parametrize(
    "left, start, pivot, end",
    [
        ((0, "a", 1), 0, 0, 3),  # pivot is not where the left child ends
        ((0, "a", 1), 1, 1, 3),  # start is not where the left child starts
        ((0, "a", 1), 0, 1, 2),  # end is not where the right child ends
        (None, 0, 1, 3),  # no left child, yet start differs from the pivot
    ],
)
def test_new_parent_checks_the_extents_against_its_children(g1, left, start, pivot, end):
    sp = Sppf(g1)
    left = DUMMY if left is None else sp.terminal_node(*left)
    right = sp.terminal_node(1, "b", 3)
    with pytest.raises(AssertionError):
        sp.get_node_p(g1.slot(2, 2), left, right, start, pivot, end)  # Middle -> a b .
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
    parent = sp.node(sp.get_node_p(g1.slot(0, 3), intermediate.id, t03, 0, 0, 3))
    assert parent == sp.nonterminal_node("S", 0, 3)
    assert len(parent.children) == 1
    assert sp.stats() == before  # repeated combination is a no-op


def test_packed_children_record_pivot(g1, graph_m):
    result = run_checked(graph_m, g1, starts={0})
    middle = result.sppf.nonterminal_node("Middle", 2, 3)
    assert middle is not None
    (packed,) = middle.children
    assert packed.pivot == 0
    assert packed.label is None and repr(packed) == "packed(prod=2, pivot=0)"
    assert [c.kind for c in packed.children] == ["terminal", "terminal"]


def test_views_of_one_node_are_equal(g0, graph_m):
    result = run_checked(graph_m, g0)
    sp = result.sppf
    for root in result.roots:
        view = sp.nonterminal_node("S", root.left, root.right)
        assert view == root and view is not root
        assert hash(view) == hash(root)
    assert set(result.roots) <= set(sp.nonterminal_nodes("S"))
    assert len({*result.roots, *(sp.node(r.id) for r in result.roots)}) == len(result.roots)
    parent = next(node for node in sp.nodes() if node.ambiguous)
    packed = parent.children
    assert len(packed) >= 2
    assert [(p.production, p.pivot) for p in packed] == sorted((p.production, p.pivot) for p in packed)
    assert all(p.kind == "packed" for p in packed) and packed[0] != packed[1]
    assert parent.children == packed
    for p in packed:
        assert 1 <= len(p.children) <= 2
        assert p.children[-1].right == parent.right
        assert p.children[0].left == (parent.left if len(p.children) == 2 else p.pivot)


@pytest.mark.parametrize("graph", [load_tsv(M_TSV), complete_graph(5, "ab")], ids=["M", "K5"])
def test_alternatives_are_the_packed_childrens_ids(g0, g1, graph):
    for grammar in (g0, g1):
        sppf = run_checked(graph, grammar).sppf
        for node in sppf.nodes():
            if node.kind == "packed":
                continue
            # a lone child is the right one, under a DUMMY left child
            expected = [((DUMMY,) + tuple(c.id for c in p.children))[-2:] for p in node.children]
            assert sorted(sppf.alternatives(node.id)) == sorted(expected)


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython's GC objects")
def test_packed_nodes_are_not_gc_tracked(g0):
    """A packed node is one int pair, inline in its parent or an entry of its
    parent's dict, so a query makes fewer objects for the cyclic collector to
    track than packed nodes; what it does track (stack, descriptor and
    parent-key tuples, and one inline pair per one-alternative parent) grows
    like |V|**2, not like |V|**3."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()[0]
        result = run_query(complete_graph(12, "ab"), g0)
        growth = gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()
    assert growth < result.sppf.stats().packed


def test_empty_stats(g1):
    assert Sppf(g1).stats() == SppfStats(0, 0, 0, 0, 0, nodes=0, edges=0)


def test_second_alternative_makes_the_parent_ambiguous():
    # over 0 -a-> 1 -a-> 2, S(0, 2) is S a and a S; the larger key arrives first
    grammar = parse_grammar("S -> a S\nS -> S a\nS -> a")
    sp = Sppf(grammar)
    t01, t12 = sp.terminal_node(0, "a", 1), sp.terminal_node(1, "a", 2)
    s01 = sp.get_node_p(grammar.slot(2, 1), DUMMY, t01, 0, 0, 1)
    s12 = sp.get_node_p(grammar.slot(2, 1), DUMMY, t12, 1, 1, 2)
    s02 = sp.get_node_p(grammar.slot(1, 2), s01, t12, 0, 1, 2)
    assert not sp.node(s02).ambiguous and sp.alternatives(s02) == [(s01, t12)]
    assert sp.get_node_p(grammar.slot(0, 2), t01, s12, 0, 1, 2) == s02
    root = sp.node(s02)
    assert root.ambiguous and not sp.node(s01).ambiguous
    assert [(p.production, p.pivot) for p in root.children] == [(0, 1), (1, 1)]
    assert [[c.id for c in p.children] for p in root.children] == [[t01, s12], [s01, t12]]
    assert sorted(sp.alternatives(s02)) == sorted([(t01, s12), (s01, t12)])
    before = sp.stats()
    assert (before.packed, before.edges) == (4, 10)
    for slot, left, right in ((grammar.slot(0, 2), t01, s12), (grammar.slot(1, 2), s01, t12)):
        assert sp.get_node_p(slot, left, right, 0, 1, 2) == s02
    assert sp.stats() == before  # repeated combinations are no-ops
    _assert_matches_reference(SimpleNamespace(sppf=sp), [None, [root], ()])
    engine_root = run_checked(linear_graph("aa"), grammar).sppf.nonterminal_node("S", 0, 2)
    assert [(p.production, p.pivot) for p in engine_root.children] == [(0, 1), (1, 1)]


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython's allocations")
def test_store_memory_per_node_is_bounded():
    """The q1 forest of the synthetic ontology, where most parents have one
    packed node, takes at most 128 traced bytes per forest node (about 120
    on CPython 3.11-3.13 and 114 on 3.10; a dict per parent takes 135-147)."""
    graph, grammar = load_ntriples(SYNTHETIC_ONTOLOGY), load_builtin_grammar("q1")
    # CPython reuses freed tuples and dicts without calling the allocator, so
    # tracemalloc would miss store objects made from them: hold enough first
    # (the store's tuples have 2 to 5 items)
    held = [(i,) * n for n in range(2, 6) for i in range(2500)], [{i: i} for i in range(100)]
    tracemalloc.start()
    try:
        forests = [run_query(graph, grammar).sppf for _ in range(10)]
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    del held
    store = snapshot.filter_traces([tracemalloc.Filter(True, sppf_module.__file__)])
    size = sum(stat.size for stat in store.statistics("filename"))
    per_node = size / sum(forest.stats().nodes for forest in forests)
    assert per_node <= 128, per_node


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
        assert export_stats(export_json(sp)).nodes == 0
        dot = export_dot(sp)
        assert dot.startswith("digraph sppf {") and dot.rstrip().endswith("}")
        assert "->" not in dot

    def test_json_round_trip_preserves_stats(self, g1, graph_m):
        result = run_checked(graph_m, g1)
        text = export_json(result.sppf)
        assert export_stats(text) == result.sppf.stats()

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
        full = export_stats(export_json(result.sppf))
        reachable = export_stats(export_json(result.sppf, result.roots))
        assert reachable.nodes <= full.nodes

    def test_simplify_drops_lone_packed_nodes(self, g1, graph_m):
        result = run_checked(graph_m, g1, starts={0})
        plain = export_stats(export_json(result.sppf, result.roots))
        slim = export_stats(export_json(result.sppf, result.roots, simplify=True))
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


EXPORT_VARIANTS = {
    "json": lambda sppf, roots: export_json(sppf, roots),
    "json-simplify": lambda sppf, roots: export_json(sppf, roots, simplify=True),
    "json-verbose": lambda sppf, roots: export_json(sppf, roots, verbose=True),
    "dot": lambda sppf, roots: export_dot(sppf, roots),
    "dot-verbose-simplify": lambda sppf, roots: export_dot(sppf, roots, verbose=True, simplify=True),
}

# sha256 of each export variant of the accepted-roots forest, all vertices to all.
EXPORT_DIGESTS = {
    ("g0", "M", "json"): "97b1e8841e568a9fac592e9913cfebe2edec5466cad599b92766736d296b486f",
    ("g0", "M", "json-simplify"): "92086f9efb5c8f6e61b6e3f9c0b518f3a118fb6be1648acced9d5d97f06aedaf",
    ("g0", "M", "json-verbose"): "eb4ff0a234579a345b940ec5b12626a27f289a307345d5a2a8f56c3e5fdbe138",
    ("g0", "M", "dot"): "121ec6f85acbe87d525091a81339c3136d12dc88fd4e633701b56c08320c63c1",
    ("g0", "M", "dot-verbose-simplify"): "778cf21d68cf4bccf63a4ee535c1f0d85928275c4c5f6df5d2e80f7b4286b65d",
    ("g0", "K5", "json"): "2ef9b1a915a207c941284fd72443e02304b4c02283a0f226fea93c048d55d9dc",
    ("g0", "K5", "json-simplify"): "0650949b8dc8aaa151ef1ab03faa0964e07d7c7b32c62baec7d226995663ff1a",
    ("g0", "K5", "json-verbose"): "1f5a72a35501f699c3f91464c316df27ab15834cbc07693f0e8daa58eac8aaa3",
    ("g0", "K5", "dot"): "1d264d0c56d98ad7e49e6f49bdcd953dd2afce8ba5b705b678c07fb11888d5d0",
    ("g0", "K5", "dot-verbose-simplify"): "a952d0be35104fd3073e6c17b43de0b696d1fc2c3d754e75fa3ee9ffa6f2d033",
    ("g0", "random", "json"): "797906fe77fc8699bd1cf409829afbf79172f5251a464b79aee30e40b7897361",
    ("g0", "random", "json-simplify"): "3ab0323b55a625004f03bb8a2dcc0db5a90753bf418f0444bbad4cbb3018db5d",
    ("g0", "random", "json-verbose"): "63b7e4edd3b9c028dd144bb09f3b2ea073855d9fbfe65720f126cf620799a0ee",
    ("g0", "random", "dot"): "eabf7f39fa1d9b66a5c29325ea9ea80df42566ab378918678ac0273d0692a366",
    ("g0", "random", "dot-verbose-simplify"): "82587baa518b0986265546330e65c81c24e3882ea327a046f643e3391ca9cbaf",
    ("g1", "M", "json"): "1eec77e293c1321d1e594168070bfa81e09fbdc216d342d427f8abcb2b664575",
    ("g1", "M", "json-simplify"): "a7aa4c053bb96461357cf555baa79c95d4405bf13c462fa7189d436f5f8bbf6c",
    ("g1", "M", "json-verbose"): "636ae8a1396f8f5c9c75b82156d07aefbf6ee2d45c63d134c01be732808e0cf7",
    ("g1", "M", "dot"): "1b9c0446868ca6e8f9e04540957fd13dd378ae48bdc1a39894232ff157a007dd",
    ("g1", "M", "dot-verbose-simplify"): "8902060c57a1a0d258ecc7807b1ca8022232a797f904fab94fefb98be51506d2",
    ("g1", "K5", "json"): "64b575b93656bc7055a9288698d326e83b360f86e6532202f2b034f20b6faa3f",
    ("g1", "K5", "json-simplify"): "64b575b93656bc7055a9288698d326e83b360f86e6532202f2b034f20b6faa3f",
    ("g1", "K5", "json-verbose"): "c4fd59d61a7b3546be103584bc69c69d484bb210394bf5a188401a8c595c197d",
    ("g1", "K5", "dot"): "59b990185d9670ca7e9ba1033ff2705a43b5bbfec51f739c4d0485bbfa47c415",
    ("g1", "K5", "dot-verbose-simplify"): "303714f5af90ee60fbe18a37486efbf67707115c84215300f8033e588641068b",
    ("g1", "random", "json"): "b397170b0e1373fa3e71dcfc9cf7e31f542fceaef28a54c78b01bc40f05acffc",
    ("g1", "random", "json-simplify"): "b397170b0e1373fa3e71dcfc9cf7e31f542fceaef28a54c78b01bc40f05acffc",
    ("g1", "random", "json-verbose"): "b397170b0e1373fa3e71dcfc9cf7e31f542fceaef28a54c78b01bc40f05acffc",
    ("g1", "random", "dot"): "ccd140b099e57336a0de2e91d9145fa2583fbc0ca1b933af50a14141fd005915",
    ("g1", "random", "dot-verbose-simplify"): "ccd140b099e57336a0de2e91d9145fa2583fbc0ca1b933af50a14141fd005915",
    ("g2", "M", "json"): "c52231143873311303743cb56f17f8bab9f999b2a834ce7d3bdfedf3c3fd5c75",
    ("g2", "M", "json-simplify"): "c6bda6558d717c13c4659f2413dd87d11fe189e1a9c411ded661f7cbfa09fe2a",
    ("g2", "M", "json-verbose"): "71960b4fca9abb332b3eea30233b9b3c2611ca175b8744e5797c5a2cee193ae9",
    ("g2", "M", "dot"): "aadd68d0a9128b00d31e8eafd3c43d9147b03805ec0299b0bbe73d7d7a0986c2",
    ("g2", "M", "dot-verbose-simplify"): "440fb3412f4af401ae29938884ae222e8595b7284dc208df775ce97245a15d1d",
    ("g2", "K5", "json"): "29db529f070a420c4d58a4bf5cba272da1095fe60745f58004363ce836103ab7",
    ("g2", "K5", "json-simplify"): "29db529f070a420c4d58a4bf5cba272da1095fe60745f58004363ce836103ab7",
    ("g2", "K5", "json-verbose"): "958924edc6bb3955f865ea23964c26563ca6254e7e24022035dcca78dbf97720",
    ("g2", "K5", "dot"): "8b5f5cdb997a21ca65fdee17460f0ad59599ed49fc32dd7947f4f8e30a4725bc",
    ("g2", "K5", "dot-verbose-simplify"): "5b497fe3d73ed7660591055f9e748b4739393be1054323b7600e16f7e6f332e7",
    ("g2", "random", "json"): "b905a470f6d7f3ad2217c43f4d2f4660a030a01969955d692952f2f4d2da4b3b",
    ("g2", "random", "json-simplify"): "08837784559cce768b8c881c6fc93faf760a63edd89cc6c551690b4b6c15f1fd",
    ("g2", "random", "json-verbose"): "5fe56005056d54cefae90a5ec04f25b3a984b40411c0b4370545dede7edc2897",
    ("g2", "random", "dot"): "9bba047532e046837d82d52e9bd4417cda931b25ff22353be0ee5c04f68c7f48",
    ("g2", "random", "dot-verbose-simplify"): "13d0e6eb9dfc0f65eecc5a91f829595bfee5adbc31c43b8fca84487b719ec029",
    ("SS", "M", "json"): "c0d1704330b1d5da37c23904dbe36b3eaf24a011daffcd3df764fdaa3e8b31a9",
    ("SS", "M", "json-simplify"): "0907b2a75f5a8966aa7b13b6c5ebaf08cd86dfab209250cb4d5400a2733c97ec",
    ("SS", "M", "json-verbose"): "da38b7530d4da645b2276263a35bd163f6c84453a604cb56db4ba97f60dc887e",
    ("SS", "M", "dot"): "282aaed4caf38cdbd90ec112231d5bcdcf400b6eb10b9b45bfbae62345e5a128",
    ("SS", "M", "dot-verbose-simplify"): "6a930dadf21d78eb53997a23de3105a7261a74b2c48d33e29023eaad555b928b",
    ("SSa", "M", "json"): "97fc3114949acf3067d090d5805b7f9d51c3401902299201a4a029061e9082c9",
    ("SSa", "M", "json-simplify"): "97fc3114949acf3067d090d5805b7f9d51c3401902299201a4a029061e9082c9",
    ("SSa", "M", "json-verbose"): "d8e5f9f652ec2f154c74d4dfd1ed7dce869776f99e183347a8cd28943154e176",
    ("SSa", "M", "dot"): "1082e3e58e6f38402df939676c5158532d6753187cd27b2e406ef4394356d28e",
    ("SSa", "M", "dot-verbose-simplify"): "206b17fe5e5d02fa527f22f56f07138e654d1ab96933b64211d63b5f5c33de40",
}


@pytest.mark.parametrize("grammar_id, graph_id, variant", sorted(EXPORT_DIGESTS))
def test_export_is_pinned(grammar_id, graph_id, variant):
    """The export format (ids, edge order, records) must not drift."""
    graph = {
        "M": lambda: load_tsv(M_TSV),
        "K5": lambda: complete_graph(5, "ab"),
        "random": lambda: random_graph(random.Random(2024), max_vertices=6, labels="ab"),
    }[graph_id]()
    result = run_checked(graph, parse_grammar(EXPORT_GRAMMARS[grammar_id]))
    text = EXPORT_VARIANTS[variant](result.sppf, result.roots)
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_DIGESTS[grammar_id, graph_id, variant]


def test_export_structure_on_random_graphs():
    rng = random.Random(515)
    grammars = [parse_grammar(text) for text in EXPORT_GRAMMARS.values()]
    for _ in range(25):
        graph = random_graph(rng, max_vertices=6, labels="ab")
        for grammar in grammars:
            result = run_checked(graph, grammar)
            for roots in (None, result.roots):
                for simplify in (False, True):
                    text = export_json(result.sppf, roots, simplify=simplify)
                    payload = json.loads(text)
                    kinds = [node["kind"] for node in payload["nodes"]]
                    assert [node["id"] for node in payload["nodes"]] == list(range(len(kinds)))
                    packed = kinds.count("packed")
                    assert "packed" not in kinds[: len(kinds) - packed]
                    edges = [tuple(edge) for edge in payload["edges"]]
                    assert edges == sorted(edges)
                    for source, target in edges:
                        assert 0 <= source < len(kinds) and 0 <= target < len(kinds)
                        assert kinds[source] in ("nonterminal", "intermediate", "packed")
                    if roots is None and not simplify:
                        assert export_stats(text) == result.sppf.stats()


def _assert_matches_reference(result, root_sets=None):
    for roots in (None, result.roots, ()) if root_sets is None else root_sets:
        for simplify in (False, True):
            layout = reference_layout(result.sppf, roots, simplify)
            for verbose in (False, True):
                for export, reference in ((export_json, reference_export_json),
                                          (export_dot, reference_export_dot)):
                    text = export(result.sppf, roots, verbose=verbose, simplify=simplify)
                    assert text == reference(layout, verbose), (export, roots, verbose, simplify)


def test_export_equals_reference_encoder_on_random_graphs():
    rng = random.Random(8080)
    grammars = [parse_grammar(text) for text in EXPORT_GRAMMARS.values()]
    for _ in range(12):
        graph = random_graph(rng, max_vertices=6, labels="ab")
        for grammar in grammars:
            _assert_matches_reference(run_checked(graph, grammar))


def test_export_equals_reference_encoder_with_escaped_labels():
    graph = load_tsv('x\t"\ty\ny\t\\\tz\nz\té\tx\nx\té\tx\ny\t"\tx')
    grammar = parse_grammar('S -> " S \\\nS -> é\nS -> S S\nS -> eps')
    result = run_checked(graph, grammar)
    assert result.success
    text = export_json(result.sppf, result.roots, verbose=True)
    for label in ('"\\""', '"\\\\"', '"\\u00e9"'):
        assert f'"label": {label}' in text
    _assert_matches_reference(result)


def test_dot_labels_escape_backslashes():
    # Graphviz would read b\n as a line break and drop the backslash of a\"
    graph = load_tsv('0\ta\\"\t1\n1\tb\\n\t2')
    result = run_checked(graph, parse_grammar('S -> a\\" b\\n T\nT -> eps'))
    assert result.root_pairs() == {(0, 2)}
    dot = export_dot(result.sppf, result.roots)
    assert r'label="(0, a\\\", 1)"' in dot
    assert r'label="(1, b\\n, 2)"' in dot
    assert r'label="(0, S -> a\\\" b\\n . T, 2)"' in dot
    _assert_matches_reference(result)


def test_export_equals_reference_encoder_with_percent_labels():
    # a % in a label must reach the export's records literally
    graph = load_tsv("x\t%d\ty\ny\t%%\tz\nz\t%s\tx\nx\t%s\tx\ny\t%d\tx")
    grammar = parse_grammar("S -> %d S %%\nS -> %s\nS -> S S\nS -> eps")
    result = run_checked(graph, grammar)
    assert result.success
    text = export_json(result.sppf, result.roots, verbose=True)
    for label in ('"%d"', '"%%"', '"%s"', '"S -> %d S . %%"'):
        assert f'"label": {label}' in text
    _assert_matches_reference(result)


def test_export_equals_reference_encoder_for_grammars_made_and_dropped_in_turn():
    # the export keeps record texts per grammar: the intermediate node (3, 0, 2)
    # reads "S -> a S . b" under the first grammar and "S -> a b . S" under the
    # next; on CPython each grammar here takes the memory, so the id, of the
    # one dropped before it
    graph = complete_graph(3, "ab")
    texts = ["S -> a S b\nS -> eps", "S -> a b S\nS -> eps", "S -> b a S\nS -> eps"] * 2
    rules = [[(p.lhs, p.rhs) for p in parse_grammar(text).productions] for text in texts]
    for text, grammar_rules in zip(texts, rules):
        result = run_checked(graph, Grammar(grammar_rules))
        assert '"label": "S -> ' + text[5:8] + " . " + text[9] in export_json(result.sppf)
        _assert_matches_reference(result)
        del result


def test_export_equals_reference_encoder_on_a_q1_ontology_forest():
    result = run_checked(load_ntriples(SYNTHETIC_ONTOLOGY), load_builtin_grammar("q1"))
    sppf = result.sppf
    parents = [n for n in map(len, map(sppf.alternatives, range(len(sppf._keys)))) if n]
    assert parents.count(1) > len(parents) / 2  # most parents have one packed node
    _assert_matches_reference(result)


@pytest.fixture(scope="module")
def k16_forest(g0):
    """g0 over K16: 13,312 forest nodes, so export ids reach five digits."""
    return run_checked(complete_graph(16, "ab"), g0)


def test_export_equals_reference_encoder_past_four_digit_ids(k16_forest):
    # the pinned forests stay below ~1,000 ids, where a slip in the export's
    # number texts past them would not show; the accepted roots keep this fast
    assert '{"id": 10000, ' in export_json(k16_forest.sppf, k16_forest.roots)
    _assert_matches_reference(k16_forest, root_sets=[k16_forest.roots])


def test_export_memory_peak_is_bounded(k16_forest):
    """One export's traced allocation peak stays within 2.75 times its text."""
    sppf, roots = k16_forest.sppf, k16_forest.roots
    tracemalloc.start()
    try:
        text = export_json(sppf, roots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * len(text), peak / len(text)
