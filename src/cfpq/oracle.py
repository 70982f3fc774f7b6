"""Relational worklist oracle for grammar-constrained reachability.

Computes every (nonterminal, source, target) fact by fixpoint over a
privately binarized copy of the grammar.  Deliberately independent of the
query engine and the forest: tests compare the two routes against each other.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Hashable, Sequence

from .grammar import Grammar
from .graph import Graph


def _binarize(grammar: Grammar):
    """Split productions into epsilon / terminal / unit / pair rules.

    Auxiliary heads are tuples, so they can never collide with the grammar's
    own string-named nonterminals; only string heads are reported.
    """
    eps_heads: list[Hashable] = []
    term_rules: dict[str, list[Hashable]] = defaultdict(list)
    unit_rules: dict[Hashable, list[Hashable]] = defaultdict(list)
    by_first: dict[Hashable, list[tuple[Hashable, Hashable]]] = defaultdict(list)
    by_second: dict[Hashable, list[tuple[Hashable, Hashable]]] = defaultdict(list)
    wrappers: set[str] = set()

    def wrap(symbol: str) -> Hashable:
        if symbol in grammar.nonterminals:
            return symbol
        wrappers.add(symbol)
        return ("wrap", symbol)

    def add_pair(head: Hashable, first: Hashable, second: Hashable) -> None:
        by_first[first].append((second, head))
        by_second[second].append((first, head))

    for p in grammar.productions:
        if not p.rhs:
            eps_heads.append(p.lhs)
        elif len(p.rhs) == 1:
            sym = p.rhs[0]
            if sym in grammar.terminals:
                term_rules[sym].append(p.lhs)
            else:
                unit_rules[sym].append(p.lhs)
        else:
            symbols = [wrap(s) for s in p.rhs]
            head: Hashable = p.lhs
            for i in range(len(symbols) - 2):
                rest = ("rest", p.index, i)
                add_pair(head, symbols[i], rest)
                head = rest
            add_pair(head, symbols[-2], symbols[-1])
    for terminal in wrappers:
        term_rules[terminal].append(("wrap", terminal))
    return eps_heads, dict(term_rules), dict(unit_rules), dict(by_first), dict(by_second)


def hellings_pairs(graph: Graph, grammar: Grammar) -> set[tuple[str, int, int]]:
    """All facts (A, u, v) such that some word derived from A labels a path u -> v."""
    eps_heads, term_rules, unit_rules, by_first, by_second = _binarize(grammar)
    facts: set[tuple[Hashable, int, int]] = set()
    succ: dict[tuple[Hashable, int], set[int]] = defaultdict(set)
    pred: dict[tuple[Hashable, int], set[int]] = defaultdict(set)
    queue: deque[tuple[Hashable, int, int]] = deque()

    def discover(head: Hashable, u: int, v: int) -> None:
        fact = (head, u, v)
        if fact in facts:
            return
        facts.add(fact)
        succ[(head, u)].add(v)
        pred[(head, v)].add(u)
        queue.append(fact)

    for head in eps_heads:
        for v in range(graph.vertex_count):
            discover(head, v, v)
    for u, label, v in graph.edges():
        for head in term_rules.get(label, ()):
            discover(head, u, v)
    while queue:
        b, u, v = queue.popleft()
        for head in unit_rules.get(b, ()):
            discover(head, u, v)
        for second, head in by_first.get(b, ()):
            for w in tuple(succ.get((second, v), ())):
                discover(head, u, w)
        for first, head in by_second.get(b, ()):
            for t in tuple(pred.get((first, u), ())):
                discover(head, t, v)
    return {(a, u, v) for a, u, v in facts if isinstance(a, str)}


def hellings_slice(graph: Graph, grammar: Grammar, nonterminal: str) -> set[tuple[int, int]]:
    """The (source, target) pairs of one nonterminal's facts."""
    return {(u, v) for a, u, v in hellings_pairs(graph, grammar) if a == nonterminal}


def accepts(grammar: Grammar, word: Sequence[str]) -> bool:
    """Word membership, decided by running the oracle on a linear graph."""
    graph = Graph([(i, symbol, i + 1) for i, symbol in enumerate(word)], len(word) + 1)
    return (grammar.start, 0, len(word)) in hellings_pairs(graph, grammar)
