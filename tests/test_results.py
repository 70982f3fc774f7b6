from __future__ import annotations

import random
import tracemalloc
from collections import defaultdict

import pytest

from cfpq.graph import word
from cfpq.oracle import accepts, hellings_slice
from cfpq.results import (
    PathQueryLimits,
    _PathTables,
    enumerate_paths,
    extract_subgraph,
    format_triples,
    reachable_pairs,
)
from cfpq.grammar import parse_grammar
from cfpq.graph import Graph, complete_graph, load_ntriples
from cfpq.sppf import _reachable
from conftest import (
    P0,
    P1,
    all_paths,
    brute_matching_endpoints,
    linear_graph,
    random_graph,
    run_checked,
    sparse_graph,
)


def indexed_nodes(tables: _PathTables) -> int:
    """The forest nodes the path tables expanded: those with a non-empty
    length window."""
    return len(tables.alts)


class TestReachablePairs:
    def test_marker_nonterminal_shows_the_turning_point(self, graph_m, g1):
        result = run_checked(graph_m, g1, starts={0})
        assert reachable_pairs(result, "Middle") == {(2, 3)}
        # the single marked segment turns from a to b at vertex 0
        (middle,) = result.sppf.nonterminal_nodes("Middle")
        assert {p.pivot for p in middle.children} == {0}

    def test_empty_forest(self, g1):
        result = run_checked(Graph(), g1)
        assert reachable_pairs(result, "S") == set()

    def test_all_pairs_match_oracle(self, graph_m, g1):
        result = run_checked(graph_m, g1)
        assert reachable_pairs(result, "S") == {(u, v) for u in (0, 1, 2) for v in (0, 3)}

    def test_unknown_nonterminal_rejected(self, graph_m, g1):
        result = run_checked(graph_m, g1)
        with pytest.raises(ValueError, match="unknown nonterminal"):
            reachable_pairs(result, "Nope")

    def test_triples_are_sorted_lexicographically(self, graph_m, g1):
        result = run_checked(graph_m, g1)
        text = format_triples(result, "S")
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert "S\t0\t3" in lines


class TestAnswersRespectStartsAndFinals:
    def test_roots_and_triples_equal_the_oracle_slice(self, g0, g1, g2):
        grammars = [g0, g1, g2, parse_grammar("S -> A S\nS -> a\nA -> eps\nA -> A A")]
        rng = random.Random(4242)
        for grammar in grammars:
            for _ in range(15):
                graph = random_graph(rng, max_vertices=7, labels="ab")
                vertices = list(graph.vertices())
                starts = set(rng.sample(vertices, rng.randint(1, len(vertices))))
                finals = set(rng.sample(vertices, rng.randint(1, len(vertices))))
                expected = {
                    (u, v)
                    for u, v in hellings_slice(graph, grammar, "S")
                    if u in starts and v in finals
                }
                result = run_checked(graph, grammar, starts, finals)
                assert result.root_pairs() == expected
                assert format_triples(result).splitlines() == sorted(
                    f"S\t{u}\t{v}" for u, v in expected
                )


class TestEnumeratePaths:
    def test_first_path_is_the_shortest(self, graph_m, g1):
        result = run_checked(graph_m, g1, starts={0})
        paths = list(enumerate_paths(result, 0, 3, PathQueryLimits(2, 12)))
        assert [p.edges for p in paths] == [P0]

    def test_cycle_unrolling_reaches_the_long_witness(self, graph_m, g1):
        result = run_checked(graph_m, g1, starts={0})
        paths = list(enumerate_paths(result, 0, 0, PathQueryLimits(2, 12)))
        assert [p.edges for p in paths] == [P1]

    def test_absent_root_yields_nothing(self, graph_m, g1):
        result = run_checked(graph_m, g1)
        assert list(enumerate_paths(result, 3, 3, PathQueryLimits(5, 12))) == []

    def test_soundness_every_word_is_accepted(self, graph_m, g0, g1):
        for grammar in (g0, g1):
            result = run_checked(graph_m, grammar)
            for u, v in result.root_pairs():
                for path in enumerate_paths(result, u, v, PathQueryLimits(5, 10)):
                    assert path.start == u and path.end == v
                    assert accepts(grammar, word(path))

    def test_no_duplicates_and_monotone_limits(self, graph_m, g1):
        result = run_checked(graph_m, g1)
        small = [p.edges for p in enumerate_paths(result, 0, 3, PathQueryLimits(2, 12))]
        large = [p.edges for p in enumerate_paths(result, 0, 3, PathQueryLimits(10, 18))]
        assert len(set(large)) == len(large)
        assert set(small) <= set(large)
        assert [len(p) for p in large] == sorted(len(p) for p in large)

    def test_limits_validated(self):
        with pytest.raises(ValueError):
            PathQueryLimits(0, 12)
        with pytest.raises(ValueError):
            PathQueryLimits(1, 0)
        # a non-integer limit is named where it is made, not failed on in range() or islice()
        with pytest.raises(TypeError, match="max_length must be an integer, got 2.5"):
            PathQueryLimits(2, 2.5)
        with pytest.raises(TypeError, match="max_paths must be an integer, got 1.5"):
            PathQueryLimits(1.5, 2)
        with pytest.raises(TypeError, match="max_paths must be an integer, got '3'"):
            PathQueryLimits("3", 2)
        # the type is checked before the range
        with pytest.raises(TypeError, match="max_length must be an integer, got 2.5"):
            PathQueryLimits(0, 2.5)

    @pytest.mark.parametrize("vertex", ["0", 0.0, None])
    @pytest.mark.parametrize("role", ["source", "target"])
    def test_endpoints_must_be_integers(self, graph_m, g1, role, vertex):
        # "0" yielded nothing, as no vertex equals it, and 0.0 found vertex 0
        result = run_checked(graph_m, g1)
        endpoints = {"source": 0, "target": 0, role: vertex}
        with pytest.raises(TypeError, match=f"{role} must be an integer, got {vertex!r}"):
            list(enumerate_paths(result, **endpoints, limits=PathQueryLimits(2, 12)))

    def test_ambiguous_forest_paths_deduplicated(self, g0):
        # both g0 derivations of "abab" describe the same two-edge-cycle paths
        graph = Graph([(0, "a", 1), (1, "b", 0)])
        result = run_checked(graph, g0, starts={0}, finals={0})
        paths = [p.edges for p in enumerate_paths(result, 0, 0, PathQueryLimits(10, 6))]
        assert len(set(paths)) == len(paths)
        assert [len(p) for p in paths] == [2, 4, 6]

    def test_only_accepted_roots_yield_paths(self):
        # S(0, 4) and S(1, 3) are in the forest, but neither spans a start
        # vertex to a final vertex, so neither is an accepted root.
        grammar = parse_grammar("S -> a S b\nS -> a b")
        result = run_checked(linear_graph("aabb"), grammar, starts={0}, finals={3})
        assert result.root_pairs() == set()
        limits = PathQueryLimits(5, 8)
        assert list(enumerate_paths(result, 1, 3, limits)) == []
        assert list(enumerate_paths(result, 0, 4, limits)) == []
        accepted = run_checked(linear_graph("aabb"), grammar, starts={0}, finals={4})
        assert [len(p) for p in enumerate_paths(accepted, 0, 4, limits)] == [4]

    def test_root_longer_than_the_limit_reads_little(self, g0):
        # The only path from 0 to 12 has 12 edges, so no window holds a
        # length that the root can reach within 8.
        graph = linear_graph("a" * 6 + "b" * 6)
        result = run_checked(graph, g0, starts={0}, finals={12})
        (root,) = result.roots
        assert list(enumerate_paths(result, 0, 12, PathQueryLimits(5, 8))) == []
        assert [len(p) for p in enumerate_paths(result, 0, 12, PathQueryLimits(5, 12))] == [12]
        tables = _PathTables(result.sppf, graph, root.id, 8, 5)
        assert indexed_nodes(tables) < len(_reachable(result.sppf, [root.id]))

    @staticmethod
    def count_mask_passes(monkeypatch) -> list[int]:
        passes: list[int] = []
        grow = _PathTables._grow_masks

        def counted(self, length: int) -> None:
            passes.append(length)
            grow(self, length)

        monkeypatch.setattr(_PathTables, "_grow_masks", counted)
        return passes

    def test_lengths_stop_where_the_forest_stops(self, monkeypatch):
        # The root derives only "ab": lengths 3 and 4 are read, as a length
        # above twice the longest derivable one can hold no path.
        result = run_checked(linear_graph("ab"), parse_grammar("S -> a b"))
        passes = self.count_mask_passes(monkeypatch)
        paths = [p.edges for p in enumerate_paths(result, 0, 2, PathQueryLimits(5, 50_000))]
        assert paths == [((0, "a", 1), (1, "b", 2))]
        assert len(passes) <= 5

    def test_empty_word_root_reads_no_length(self, g0, monkeypatch):
        result = run_checked(Graph(vertex_count=3), g0)
        passes = self.count_mask_passes(monkeypatch)
        assert list(enumerate_paths(result, 1, 1, PathQueryLimits(5, 10**6))) == []
        assert passes == [0]

    def test_lengths_go_on_past_empty_lengths(self):
        # Only lengths 1, 2, 4 and 8 are derivable: 5 to 7 are empty, but
        # none lies above twice the longest length set before it.
        grammar = parse_grammar("S -> A A\nA -> B B\nB -> C C\nC -> a")
        result = run_checked(linear_graph("a" * 8), grammar)
        paths = list(enumerate_paths(result, 0, 8, PathQueryLimits(5, 100)))
        assert [len(p) for p in paths] == [8]

    def test_table_memory_does_not_follow_max_length(self, g0):
        result = run_checked(complete_graph(8, "ab"), g0)

        def traced(max_length: int) -> tuple[list, int]:
            tracemalloc.start()
            try:
                paths = list(enumerate_paths(result, 0, 1, PathQueryLimits(10, max_length)))
                return paths, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, short_peak = traced(8)
        long, long_peak = traced(10**6)
        assert len(short) == 10 and long == short
        assert long_peak <= 2 * short_peak, (long_peak, short_peak)


UNIT_CYCLES = "S -> A S\nS -> a\nA -> eps\nA -> A A"
# S(u, v) -> B(u, v) -> C(u, v) -> D(u, v) -> S(u, v): a zero-length cycle
# through four forest nodes, entered from a longer key through C.
LONG_UNIT_CYCLE = "S -> B\nB -> C\nC -> D\nD -> S\nB -> b\nS -> a C"
# Four nested nullable levels, each also reaching back to S: many (u, u)
# nodes that derive the empty sequence, cycles through them, and self-children.
NULLABLE_CHAIN = "S -> N1 S\nS -> S N1\nS -> a\nS -> b S a\n" + "".join(
    f"N{i} -> N{i + 1} N{i}\nN{i} -> N{i} N{i + 1}\nN{i} -> eps\nN{i} -> S N{i + 1} N{i}\n"
    for i in range(1, 4)
) + "N4 -> eps"


def test_split_parts_span_the_parent_extent(g0, g1, g2):
    # The path tables rest on this: under a parent spanning (u, v), a packed
    # node with pivot p has its left child on (u, p), or none with p == u,
    # and its right child on (p, v).  So a part of 0 edges leaves the other
    # on (u, v) itself.
    rng = random.Random(11)
    grammars = (g0, g1, g2, parse_grammar(UNIT_CYCLES), parse_grammar(LONG_UNIT_CYCLE),
                parse_grammar(NULLABLE_CHAIN))
    parents = 0
    for _ in range(6):
        graph = random_graph(rng, max_vertices=6, labels="ab")
        for grammar in grammars:
            for parent in run_checked(graph, grammar).sppf.nodes():
                if parent.kind not in ("nonterminal", "intermediate"):
                    continue
                parents += 1
                for packed in parent.children:
                    *left, right = packed.children
                    assert (right.left, right.right) == (packed.pivot, parent.right)
                    if left:
                        assert (left[0].left, left[0].right) == (parent.left, packed.pivot)
                    else:
                        assert packed.pivot == parent.left
    assert parents > 1000


class TestEnumeratePathsAgainstWalks:
    """The exact listing, cut at max_paths, equals brute-force walk
    enumeration filtered by word membership and sorted by (length, edges)."""

    MAX_LENGTH = 5

    def reference(self, graph, grammar, max_length: int = MAX_LENGTH) -> dict:
        listing: dict[tuple[int, int], list] = defaultdict(list)
        memo: dict[tuple[str, ...], bool] = {}
        for edges in all_paths(graph, max_length):
            w = tuple(e[1] for e in edges)
            if w not in memo:
                memo[w] = accepts(grammar, w)
            if memo[w]:
                listing[edges[0][0], edges[-1][2]].append(edges)
        for walks in listing.values():
            walks.sort(key=lambda walk: (len(walk), walk))
        return listing

    def test_listing_matches_walks(self, g0, g1, g2):
        graphs = random.Random(2017)
        draws = random.Random(5)
        # NULLABLE_CHAIN draws from its own stream, so the others keep theirs.
        grammars = [(grammar, draws) for grammar in (g0, g1, g2, parse_grammar(UNIT_CYCLES),
                                                   parse_grammar(LONG_UNIT_CYCLE))]
        grammars.append((parse_grammar(NULLABLE_CHAIN), random.Random(6)))
        tie_cuts = 0
        for _ in range(8):
            graph = random_graph(graphs, max_vertices=6, labels="ab")
            vertices = list(graph.vertices())
            for grammar, rng in grammars:
                listing = self.reference(graph, grammar)
                starts = set(rng.sample(vertices, rng.randint(1, len(vertices))))
                finals = set(rng.sample(vertices, rng.randint(1, len(vertices))))
                result = run_checked(graph, grammar, starts, finals)
                for u in vertices:
                    for v in vertices:
                        accepted = u in starts and v in finals
                        expected = listing.get((u, v), []) if accepted else []
                        k = rng.choice((1, 2, 3, 7, 40))
                        limits = PathQueryLimits(k, self.MAX_LENGTH)
                        got = [p.edges for p in enumerate_paths(result, u, v, limits)]
                        assert got == expected[:k], (grammar, u, v, k)
                        if len(expected) > k and len(expected[k - 1]) == len(expected[k]):
                            tie_cuts += 1
        # the cut falls inside one length often enough to pin top-k at ties
        assert tie_cuts >= 20

    def test_length_windows_prune_and_keep_every_path(self, g0, g1, g2):
        # On sparse graphs much of the forest below a root lies too far from
        # its ends for a short path: the windows skip it, and the listing
        # stays exact.
        rng = random.Random(2)
        grammars = (g0, g1, g2, parse_grammar(UNIT_CYCLES), parse_grammar(LONG_UNIT_CYCLE),
                    parse_grammar(NULLABLE_CHAIN))
        pruned = 0
        for _ in range(12):
            graph = sparse_graph(rng)
            max_length = rng.choice((5, 6))
            for grammar in grammars:
                listing = self.reference(graph, grammar, max_length)
                result = run_checked(graph, grammar)
                for root in result.roots:
                    k = rng.choice((1, 2, 3, 7, 40))
                    limits = PathQueryLimits(k, max_length)
                    got = [p.edges for p in enumerate_paths(result, root.left, root.right, limits)]
                    assert got == listing.get((root.left, root.right), [])[:k], (grammar, root, k)
                    tables = _PathTables(result.sppf, graph, root.id, max_length, k)
                    below = len(_reachable(result.sppf, [root.id]))
                    pruned += indexed_nodes(tables) < below
        # 193 of the 803 root queries skip nodes
        assert pruned >= 100


class TestExtractSubgraph:
    def test_every_edge_of_the_map_is_matched(self, graph_m, g1):
        result = run_checked(graph_m, g1)
        sub = extract_subgraph(result)
        assert set(sub.edges()) == set(graph_m.edges())

    def test_unmatchable_grammar_gives_empty_subgraph(self, graph_m):
        grammar = parse_grammar("S -> c")
        result = run_checked(graph_m, grammar)
        sub = extract_subgraph(result)
        assert sub.edge_count == 0

    def test_requerying_the_subgraph_is_a_closure(self, graph_m, g1):
        result = run_checked(graph_m, g1)
        sub = extract_subgraph(result)
        again = run_checked(sub, g1)
        assert again.root_pairs() == result.root_pairs()

    def test_partial_match_keeps_only_witnessed_edges(self, g1):
        graph = Graph([*P0, (3, "c", 2)])  # (3, c, 2) is never on a matched path
        result = run_checked(graph, g1)
        sub = extract_subgraph(result)
        assert (3, "c", 2) not in set(sub.edges())
        assert set(sub.edges()) <= set(graph.edges())

    def test_ntriples_vertex_names_are_kept(self):
        graph = load_ntriples('<i> <type> <c1> .\n<i> <type> <c2> .\n<i> <label> "x" .')
        result = run_checked(graph, parse_grammar("S -> type_r type"))
        sub = extract_subgraph(result)
        assert [sub.vertex_name(v) for v in sub.vertices()] == ["i", "c1", "c2", "x"]
        assert {(sub.vertex_name(u), label, sub.vertex_name(v)) for u, label, v in sub.edges()} == {
            ("i", "type", "c1"), ("i", "type", "c2"), ("c1", "type_r", "i"), ("c2", "type_r", "i"),
        }
        assert sub.resolve_vertex("c2") == graph.resolve_vertex("c2")


class TestCompletenessAtSmallScale:
    def test_short_witnesses_are_all_reported(self, g0, g1, g2):
        rng = random.Random(4242)
        for _ in range(8):
            graph = random_graph(rng, max_vertices=5, labels="ab")
            for grammar in (g0, g1, g2):
                result = run_checked(graph, grammar)
                engine_pairs = reachable_pairs(result, "S")
                brute = brute_matching_endpoints(graph, grammar, max_length=8)
                assert brute <= engine_pairs
                assert engine_pairs == hellings_slice(graph, grammar, "S")
