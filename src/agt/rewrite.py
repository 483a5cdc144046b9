"""Shortlex-compatible string rewriting and bounded Knuth-Bendix completion.

A rewrite system holds shortlex-oriented rules lhs -> rhs indexed by
insertion order; reduction always fires the leftmost, lowest-indexed
match, so results are deterministic.  Completion processes critical
pairs first-in first-out, orienting unresolved pairs into new rules,
deleting rules whose left side becomes reducible (their equation is
re-queued) and re-reducing right sides.
"""

from __future__ import annotations

import time
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .errors import UsageError
from .limits import Limits
from .words import Alphabet, Word


# -- the reduction kernel ----------------------------------------------
#
# The trie over left-hand sides is a flat table ``next_tab`` of width
# ``n_syms`` per node (node 0 is the root, -1 means no edge) and
# ``node_rule`` holds the rule index ending at a node (-1 for none).


def _reduce_word(word, next_tab, node_rule, rhs_list, n_syms, max_lhs):
    """Replace the leftmost, lowest-indexed matching left-hand side until
    the word is irreducible.  Right-hand sides never exceed their
    left-hand sides in length, so the buffer only shrinks."""
    buf = bytearray(word)
    i = 0
    while i < len(buf):
        node = 0
        best_rule = -1
        best_len = 0
        j = i
        n = len(buf)
        while j < n:
            node = next_tab[node * n_syms + buf[j]]
            if node < 0:
                break
            j += 1
            r = node_rule[node]
            if r >= 0 and (best_rule < 0 or r < best_rule):
                best_rule = r
                best_len = j - i
        if best_rule < 0:
            i += 1
            continue
        buf[i : i + best_len] = rhs_list[best_rule]
        i = i - max_lhs + 1
        if i < 0:
            i = 0
    return bytes(buf)


class Presentation:
    """A group presentation: alphabet with inverses plus relator words.

    Relators are freely reduced on input; relators that reduce to the
    empty word are dropped (recorded in ``warnings``).  Note that for a
    self-inverse generator the square x*x is an inverse pair, so
    Coxeter-style square relators are implicit.
    """

    __slots__ = ("alphabet", "relators", "warnings")

    def __init__(self, alphabet: Alphabet, relators: Iterator[Word] | tuple = ()):
        self.alphabet = alphabet
        reduced = []
        warnings = []
        for r in relators:
            alphabet.check_word(r)
            rr = alphabet.free_reduce(r)
            if rr == b"":
                warnings.append(
                    f"relator {alphabet.format_word(r)!r} reduces to the empty word; ignored"
                )
            else:
                reduced.append(rr)
        self.relators = tuple(reduced)
        self.warnings = tuple(warnings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Presentation):
            return NotImplemented
        return self.alphabet == other.alphabet and self.relators == other.relators

    def __repr__(self) -> str:
        rels = [self.alphabet.format_word(r) for r in self.relators]
        return f"Presentation({list(self.alphabet.names)!r}, relators={rels!r})"


class RewriteRule(NamedTuple):
    lhs: Word
    rhs: Word


class RewriteSystem:
    """Indexed shortlex rewrite system with a trie over left-hand sides.

    Mutable and single-owner while completion runs.
    """

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.confluent = False
        self._rules: list[RewriteRule | None] = []
        self._rhs: list[Word] = []  # indexed like _rules; stale after deletion
        self._n_syms = alphabet.size
        self._next = array("i", [-1] * self._n_syms)
        self._node_rule = array("i", [-1])
        self.max_lhs_len = 1
        self.num_live = 0

    # -- rule bookkeeping ---------------------------------------------

    def _new_node(self) -> int:
        self._next.extend([-1] * self._n_syms)
        self._node_rule.append(-1)
        return len(self._node_rule) - 1

    def _trie_walk(self, lhs: Word) -> int:
        node = 0
        for c in lhs:
            node = self._next[node * self._n_syms + c]
            if node < 0:
                return -1
        return node

    def has_lhs(self, lhs: Word) -> bool:
        node = self._trie_walk(lhs)
        return node >= 0 and self._node_rule[node] >= 0

    def add_rule(self, lhs: Word, rhs: Word) -> int:
        """Insert a shortlex-oriented rule; returns its index."""
        if not self.alphabet.shortlex_less(rhs, lhs):
            raise UsageError("rule must be oriented: rhs <_slex lhs")
        if self.has_lhs(lhs):
            raise UsageError("duplicate left-hand side")
        idx = len(self._rules)
        self._rules.append(RewriteRule(lhs, rhs))
        self._rhs.append(rhs)
        node = 0
        for c in lhs:
            slot = node * self._n_syms + c
            nxt = self._next[slot]
            if nxt < 0:
                nxt = self._new_node()
                self._next[slot] = nxt
            node = nxt
        self._node_rule[node] = idx
        self.max_lhs_len = max(self.max_lhs_len, len(lhs))
        self.num_live += 1
        self.confluent = False
        return idx

    def remove_rule(self, idx: int) -> None:
        rule = self._rules[idx]
        if rule is None:
            return
        node = self._trie_walk(rule.lhs)
        assert node >= 0 and self._node_rule[node] == idx
        self._node_rule[node] = -1
        self._rules[idx] = None
        self.num_live -= 1
        self.confluent = False

    def set_rhs(self, idx: int, rhs: Word) -> None:
        rule = self._rules[idx]
        assert rule is not None
        self._rules[idx] = RewriteRule(rule.lhs, rhs)
        self._rhs[idx] = rhs

    def live_items(self) -> list[tuple[int, RewriteRule]]:
        return [(i, r) for i, r in enumerate(self._rules) if r is not None]

    @property
    def rules(self) -> list[RewriteRule]:
        return [r for r in self._rules if r is not None]

    # -- reduction ------------------------------------------------------

    def reduce(self, w: Word) -> Word:
        """Normal form of w under leftmost lowest-indexed rewriting."""
        return _reduce_word(
            w, self._next, self._node_rule, self._rhs, self._n_syms, self.max_lhs_len
        )

    def __repr__(self) -> str:
        return f"RewriteSystem(rules={self.num_live}, confluent={self.confluent})"

    def dump(self) -> str:
        """One 'lhs -> rhs' line per live rule, in index order."""
        fmt = self.alphabet.format_word
        return "\n".join(f"{fmt(r.lhs)} -> {fmt(r.rhs)}" for r in self.rules)


def system_from_presentation(pres: Presentation) -> RewriteSystem:
    """Initial rewrite system: inverse cancellation plus one oriented rule
    per relator.

    A relator r is split at the midpoint, r = u * w with |u| = ceil(|r|/2),
    giving the relation u = w^-1 whose longer side (shortlex ties by the
    smaller right side) becomes the left-hand side; r is then a cyclic
    conjugate of lhs * rhs^-1 or its inverse.  When both sides coincide
    as strings (self-inverse letters), the whole relator rewrites to the
    empty word instead.
    """
    A = pres.alphabet
    rs = RewriteSystem(A)
    for i in range(A.size):
        lhs = bytes((i, A.inverse[i]))
        if not rs.has_lhs(lhs):
            rs.add_rule(lhs, b"")
    for r in pres.relators:
        half = (len(r) + 1) // 2
        u = r[:half]
        v = A.invert(r[half:])
        if u == v:
            lhs, rhs = r, b""
        elif A.shortlex_less(v, u):
            lhs, rhs = u, v
        else:
            lhs, rhs = v, u
        if not rs.has_lhs(lhs):
            rs.add_rule(lhs, rhs)
        # sanity: the relator is recoverable from the rule
        recovered = lhs + A.invert(rhs)
        doubled = r + r
        inv_doubled = A.invert(r) + A.invert(r)
        assert recovered in doubled or recovered in inv_doubled
    return rs


def _overlap_equations(
    r1: RewriteRule, r2: RewriteRule, same_rule: bool
) -> list[tuple[Word, Word]]:
    """Critical-pair equations from overlaps of two left-hand sides.

    Covers proper suffix/prefix overlaps and full containment of r2.lhs
    inside r1.lhs; each equation is the two one-step reducts of the
    superposition word.
    """
    out = []
    l1, q1 = r1
    l2, q2 = r2
    # suffix of l1 == prefix of l2
    top = min(len(l1), len(l2)) - 1
    for k in range(1, top + 1):
        if l1[-k:] == l2[:k]:
            out.append((q1 + l2[k:], l1[:-k] + q2))
    if not same_rule and len(l2) < len(l1):
        start = l1.find(l2)
        while start >= 0:
            out.append((q1, l1[:start] + q2 + l1[start + len(l2) :]))
            start = l1.find(l2, start + 1)
    return out


@dataclass
class CompletionResult:
    status: str  # "complete" | "paused" | "limitHit"
    which: str | None = None
    processed: int = 0
    added: int = 0
    queue_size: int = 0


class Completion:
    """FIFO critical-pair completion over a single-owner RewriteSystem.

    ``on_rule`` (if set) is called for every added rule; it supports the
    driver's word-difference stability heuristic.  ``processed`` counts
    equations taken off the queue.
    """

    def __init__(self, system: RewriteSystem, limits: Limits | None = None):
        self.sys = system
        self.limits = limits or Limits()
        self.queue: deque[tuple[Word, Word]] = deque()
        self.lost_pairs = False
        self.processed = 0
        self.added = 0
        self.limit_hit: str | None = None
        self.on_rule: Callable[[Word, Word], None] | None = None
        self._seed()

    def _seed(self) -> None:
        items = self.sys.live_items()
        for i, r1 in items:
            for j, r2 in items:
                for eq in _overlap_equations(r1, r2, i == j):
                    self.queue.append(eq)

    def enqueue(self, eq: tuple[Word, Word]) -> None:
        self.queue.append(eq)

    def _add_rule(self, lhs: Word, rhs: Word) -> None:
        rs = self.sys
        if rs.num_live >= self.limits.max_rules:
            self.limit_hit = "maxRules"
            return
        idx = rs.add_rule(lhs, rhs)
        self.added += 1
        if self.on_rule is not None:
            self.on_rule(lhs, rhs)
        # interreduction: a now-reducible left side retires its rule (the
        # equation is re-queued); reducible right sides are re-reduced.
        for j, rule in rs.live_items():
            if j == idx:
                continue
            if lhs in rule.lhs:
                rs.remove_rule(j)
                self.queue.append((rule.lhs, rule.rhs))
            elif lhs in rule.rhs:
                rs.set_rhs(j, rs.reduce(rule.rhs))
        new_rule = RewriteRule(lhs, rhs)
        for j, rule in rs.live_items():
            if j == idx:
                continue
            for eq in _overlap_equations(new_rule, rule, False):
                self.queue.append(eq)
            for eq in _overlap_equations(rule, new_rule, False):
                self.queue.append(eq)
        for eq in _overlap_equations(new_rule, new_rule, True):
            self.queue.append(eq)

    def step(self) -> None:
        """Process one queued equation."""
        w1, w2 = self.queue.popleft()
        self.processed += 1
        rs = self.sys
        a = rs.reduce(w1)
        b = rs.reduce(w2)
        if a == b:
            return
        if rs.alphabet.shortlex_less(a, b):
            lhs, rhs = b, a
        else:
            lhs, rhs = a, b
        if len(lhs) > self.limits.max_lhs_len or len(rhs) > self.limits.max_rhs_len:
            self.lost_pairs = True
            return
        self._add_rule(lhs, rhs)

    def run(
        self, pause_when: Callable[["Completion"], bool] | None = None
    ) -> CompletionResult:
        deadline = None
        if self.limits.max_seconds is not None:
            deadline = time.monotonic() + self.limits.max_seconds
        while self.queue:
            if self.limit_hit:
                return self._result("limitHit", self.limit_hit)
            if deadline is not None and time.monotonic() > deadline:
                return self._result("limitHit", "maxSeconds")
            self.step()
            if pause_when is not None and pause_when(self):
                return self._result("paused")
        if self.limit_hit:
            return self._result("limitHit", self.limit_hit)
        if self.lost_pairs:
            return self._result("limitHit", "maxLhsLen/maxRhsLen")
        self.sys.confluent = True
        return self._result("complete")

    def _result(self, status: str, which: str | None = None) -> CompletionResult:
        return CompletionResult(
            status, which, self.processed, self.added, len(self.queue)
        )
