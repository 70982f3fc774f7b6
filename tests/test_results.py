from __future__ import annotations

import random
from collections import defaultdict

import pytest

from cfpq.graph import word
from cfpq.oracle import accepts, hellings_slice
from cfpq.results import (
    PathQueryLimits,
    enumerate_paths,
    extract_subgraph,
    format_triples,
    reachable_pairs,
)
from cfpq.grammar import parse_grammar
from cfpq.graph import Graph
from conftest import (
    P0,
    P1,
    all_paths,
    brute_matching_endpoints,
    linear_graph,
    random_graph,
    run_checked,
)


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

    def test_ambiguous_forest_paths_deduplicated(self, g0):
        # both g0 derivations of "abab" describe the same two-edge-cycle paths
        graph = Graph(vertex_count=2)
        graph.add_edge(0, "a", 1)
        graph.add_edge(1, "b", 0)
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


UNIT_CYCLES = "S -> A S\nS -> a\nA -> eps\nA -> A A"
# S(u, v) -> B(u, v) -> C(u, v) -> D(u, v) -> S(u, v): a zero-length cycle
# through four forest nodes, entered from a longer key through C.
LONG_UNIT_CYCLE = "S -> B\nB -> C\nC -> D\nD -> S\nB -> b\nS -> a C"


class TestEnumeratePathsAgainstWalks:
    """The exact listing, cut at max_paths, equals brute-force walk
    enumeration filtered by word membership and sorted by (length, edges)."""

    MAX_LENGTH = 5

    def reference(self, graph, grammar) -> dict:
        listing: dict[tuple[int, int], list] = defaultdict(list)
        memo: dict[tuple[str, ...], bool] = {}
        for edges in all_paths(graph, self.MAX_LENGTH):
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
        rng = random.Random(5)
        grammars = (g0, g1, g2, parse_grammar(UNIT_CYCLES), parse_grammar(LONG_UNIT_CYCLE))
        tie_cuts = 0
        for _ in range(8):
            graph = random_graph(graphs, max_vertices=6, labels="ab")
            vertices = list(graph.vertices())
            for grammar in grammars:
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
        graph = Graph()
        for edge in P0:
            graph.add_edge(*edge)
        graph.add_edge(3, "c", 2)  # never on a matched path
        result = run_checked(graph, g1)
        sub = extract_subgraph(result)
        assert (3, "c", 2) not in set(sub.edges())
        assert set(sub.edges()) <= set(graph.edges())


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
