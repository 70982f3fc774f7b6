"""Context-free grammars: text format, nullable/FIRST and the prediction table.

A grammar is read from plain text, one rule per line (``lhs -> sym sym ...``,
``eps`` for an empty right-hand side, ``#`` starts a comment; ``->`` and
``|`` are not symbols).  A symbol is a nonterminal iff it occurs on the left
of some rule; everything else is a terminal.  The first rule's left-hand
side is the start symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

EPSILON_TOKEN = "eps"
ARROW = "->"


class GrammarError(ValueError):
    """Raised for malformed grammar text or inconsistent rule sets."""


@dataclass(frozen=True)
class Production:
    index: int
    lhs: str
    rhs: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.lhs} -> {' '.join(self.rhs) if self.rhs else EPSILON_TOKEN}"


class GrammarSlot:
    """A dotted production ``A -> alpha . beta``; interned, one instance per grammar.

    Engine-facing fields are precomputed: ``symbol`` is the symbol after the
    dot (None at the end), ``next_slot`` the slot with the dot advanced, and
    ``pass_through`` whether forest construction forwards the right child
    unchanged (dot after a single terminal or non-nullable nonterminal, with
    more symbols to come).  ``node_prefix`` and ``packed_base`` key the
    forest parent a combine at this slot builds (layout in :mod:`cfpq.sppf`).
    """

    __slots__ = (
        "production",
        "dot",
        "key",
        "symbol",
        "symbol_is_terminal",
        "next_slot",
        "pass_through",
        "node_prefix",
        "packed_base",
    )

    def __init__(self, production: Production, dot: int):
        self.production = production
        self.dot = dot
        self.key = (production.index, dot)
        self.symbol = production.rhs[dot] if dot < len(production.rhs) else None
        self.symbol_is_terminal = False
        self.next_slot: GrammarSlot | None = None
        self.pass_through = False
        self.node_prefix = (2, production.lhs) if self.symbol is None else (3, production.index, dot)
        self.packed_base = production.index << 32

    def __repr__(self) -> str:
        rhs = self.production.rhs
        marked = " ".join((*rhs[: self.dot], ".", *rhs[self.dot :]))
        return f"{self.production.lhs} -> {marked}"


class Grammar:
    """An immutable context-free grammar plus its derived parsing artifacts.

    Nullable set, FIRST and the slot inventory are computed at construction;
    instances are safe to share across concurrent queries.  There is no
    FOLLOW: a graph vertex has no end-of-input marker, so the engine predicts
    nullable alternatives unconditionally and FOLLOW could not change a
    prediction.
    """

    def __init__(self, rules: Iterable[tuple[str, tuple[str, ...]]], start: str | None = None):
        productions: list[Production] = []
        for lhs, rhs in rules:
            productions.append(Production(len(productions), lhs, tuple(rhs)))
        if not productions:
            raise GrammarError("grammar has no rules")
        self.productions: tuple[Production, ...] = tuple(productions)
        self.nonterminals: frozenset[str] = frozenset(p.lhs for p in productions)
        self.start: str = start if start is not None else productions[0].lhs
        if self.start not in self.nonterminals:
            raise GrammarError(f"start symbol {self.start!r} has no rule")
        terminals: set[str] = set()
        for p in productions:
            for sym in p.rhs:
                if sym not in self.nonterminals:
                    terminals.add(sym)
        self.terminals: frozenset[str] = frozenset(terminals)
        self.nullable: frozenset[str] = compute_nullable(self)
        self.first: dict[str, frozenset[str]] = compute_first(self)
        self._build_slots()

    def _build_slots(self) -> None:
        slots: list[GrammarSlot] = []
        by_key: dict[tuple[int, int], GrammarSlot] = {}
        for p in self.productions:
            for dot in range(len(p.rhs) + 1):
                slot = GrammarSlot(p, dot)
                slots.append(slot)
                by_key[slot.key] = slot
        self.return_slot_count = 0  # slots right after a nonterminal
        for slot in slots:
            if slot.symbol is not None:
                slot.symbol_is_terminal = slot.symbol in self.terminals
                slot.next_slot = by_key[(slot.production.index, slot.dot + 1)]
            if slot.dot > 0 and slot.production.rhs[slot.dot - 1] in self.nonterminals:
                self.return_slot_count += 1
            if slot.dot == 1 and slot.symbol is not None:
                prev = slot.production.rhs[0]
                slot.pass_through = prev in self.terminals or prev not in self.nullable
        self._slots: tuple[GrammarSlot, ...] = tuple(slots)
        self._slots_by_key = by_key

    def slots(self) -> tuple[GrammarSlot, ...]:
        """All (production, dot) slots in stable order."""
        return self._slots

    def slot(self, production_index: int, dot: int) -> GrammarSlot:
        return self._slots_by_key[(production_index, dot)]

    @cached_property
    def parse_table(self) -> ParseTable:
        return build_parse_table(self)

    def __repr__(self) -> str:
        return f"Grammar(start={self.start!r}, productions={len(self.productions)})"


class ParseTable:
    """Prediction table: one row per nonterminal, one entry per alternative.

    ``rows[A]`` lists ``(initial slot, FIRST of the right-hand side, whether
    it derives the empty word)`` for each alternative of ``A``, in grammar
    order.  A call of ``A`` at a vertex predicts the alternatives whose FIRST
    meets the vertex's out-labels, plus every empty-deriving one, whatever
    the out-labels, so that empty derivations survive at vertices without
    matching out-edges.
    """

    def __init__(self, rows: Mapping[str, Iterable[tuple[GrammarSlot, frozenset[str], bool]]]):
        self.rows = {a: tuple(row) for a, row in rows.items()}


def parse_grammar(text: str) -> Grammar:
    """Parse grammar text into a :class:`Grammar`.

    Raises :class:`GrammarError` with a line number for malformed rules and
    for an empty rule set.
    """
    rules: list[tuple[str, tuple[str, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ARROW not in line:
            raise GrammarError(f"line {lineno}: expected 'lhs -> rhs', got {raw.strip()!r}")
        lhs_part, rhs_part = line.split(ARROW, 1)
        lhs_tokens = lhs_part.split()
        if len(lhs_tokens) != 1:
            raise GrammarError(f"line {lineno}: left-hand side must be a single symbol")
        lhs = lhs_tokens[0]
        if lhs == EPSILON_TOKEN:
            raise GrammarError(f"line {lineno}: {EPSILON_TOKEN!r} cannot be a rule head")
        rhs_tokens = rhs_part.split()
        if "|" in rhs_tokens or ARROW in rhs_tokens:
            raise GrammarError(f"line {lineno}: '|' and '->' are reserved; a rule per alternative")
        if not rhs_tokens:
            raise GrammarError(
                f"line {lineno}: empty right-hand side; write {EPSILON_TOKEN!r} explicitly"
            )
        if EPSILON_TOKEN in rhs_tokens:
            if rhs_tokens != [EPSILON_TOKEN]:
                raise GrammarError(
                    f"line {lineno}: {EPSILON_TOKEN!r} must be the only right-hand-side symbol"
                )
            rhs_tokens = []
        rules.append((lhs, tuple(rhs_tokens)))
    return Grammar(rules)


def compute_nullable(grammar: Grammar) -> frozenset[str]:
    """Fixpoint of {A | A derives the empty word}."""
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for p in grammar.productions:
            if p.lhs not in nullable and all(s in nullable for s in p.rhs):
                nullable.add(p.lhs)
                changed = True
    return frozenset(nullable)


def _first_of_sequence(
    symbols: Iterable[str], first: Mapping[str, Iterable[str]], nullable: frozenset[str]
) -> set[str]:
    """FIRST of a symbol sequence; ``first`` maps each nonterminal to its FIRST
    set, and a symbol missing from it is a terminal."""
    out: set[str] = set()
    for sym in symbols:
        if sym not in first:
            out.add(sym)
            break
        out.update(first[sym])
        if sym not in nullable:
            break
    return out


def compute_first(grammar: Grammar) -> dict[str, frozenset[str]]:
    """FIRST sets over terminals for every nonterminal."""
    first: dict[str, set[str]] = {a: set() for a in grammar.nonterminals}
    changed = True
    while changed:
        changed = False
        for p in grammar.productions:
            target = first[p.lhs]
            before = len(target)
            target |= _first_of_sequence(p.rhs, first, grammar.nullable)
            changed |= len(target) != before
    return {a: frozenset(s) for a, s in first.items()}


def build_parse_table(grammar: Grammar) -> ParseTable:
    """Build the prediction table from FIRST and the nullable set.

    The table is an optimization, not a filter: a table that predicted
    every alternative everywhere would give the same query results.
    """
    rows: dict[str, list[tuple[GrammarSlot, frozenset[str], bool]]] = {}
    for p in grammar.productions:
        first = _first_of_sequence(p.rhs, grammar.first, grammar.nullable)
        empty = all(sym in grammar.nullable for sym in p.rhs)
        rows.setdefault(p.lhs, []).append((grammar.slot(p.index, 0), frozenset(first), empty))
    return ParseTable(rows)
