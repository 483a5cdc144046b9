"""Shortlex-compatible string rewriting and bounded Knuth-Bendix completion.

A rewrite system holds shortlex-oriented rules lhs -> rhs indexed by
insertion order.  Its left sides are factor-free: no left side is a
factor of another, because a rule is only added with an irreducible left
side, and adding it retires every rule whose left side contains it.  So
at most one left side starts, and at most one ends, at any position of
a word, and the match that ends first is also the one that starts
first: a match starting earlier and ending later would contain it as a
factor.  Reduction reads a word once through the index automaton of
the left sides (Sims, *Computation with Finitely Presented Groups*,
1994, ch. 3) and rewrites the first match to end, which is the leftmost
match, so normal forms are deterministic.  The automaton's state is the
trie node of the longest suffix read that is a proper prefix of a left
side, named by the offset of its row in the move table, so reading a
letter is one table read.  The move on a left side's last letter holds
that rule's code instead of a node, so the trie has no leaf nodes.  A
move the trie lacks is found by looking up the suffixes by word; all
such moves are dropped whenever the trie changes.

Completion processes critical pairs first-in first-out, orienting
unresolved pairs into new rules, retiring rules whose left side becomes
reducible (their equation is re-queued) and re-reducing right sides.
The system keeps its left sides and its right sides as two word lists
indexed by rule, so a new left side finds the rules it touches with
one ``bytes.find`` search of each list joined by byte 255, which no
word contains; the hits come in index order.
The critical pairs of a new rule are read from an index of the proper
prefixes and suffixes of the live left sides.  They are queued as one
batch of references to the rules involved, and a pair's equation is
built only when it is popped, so a pair that is never reached costs a
list slot and an int instead of two words.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .errors import UsageError
from .limits import Limits
from .words import MAX_SYMBOLS, Alphabet, Word


class Presentation:
    """A group presentation: alphabet with inverses plus relator words.

    Relators are freely reduced on input; relators that reduce to the
    empty word are dropped.  Note that for a self-inverse generator the
    square x*x is an inverse pair, so Coxeter-style square relators are
    implicit.
    """

    __slots__ = ("alphabet", "relators")

    def __init__(self, alphabet: Alphabet, relators: Iterator[Word] | tuple = ()):
        self.alphabet = alphabet
        self.relators = tuple(filter(None, map(alphabet.free_reduce, relators)))

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


class OverlapBatch(NamedTuple):
    """The critical pairs of one rule, as references to the rules.

    Pair i overlaps ``rule`` with ``partners[i]`` on k letters in the
    direction ``way``, where ``codes[i] = k * 2 + way``.  Rules are never
    edited in place (``add_rule`` replaces a rule whose right side it
    reduces again), so the references keep the versions the batch was
    made from, and a pair expands to the same equation whenever it is
    read.
    """

    rule: RewriteRule
    partners: list[RewriteRule]
    codes: list[int]

    def equation(self, i: int) -> tuple[Word, Word]:
        """The two one-step reducts of pair i's superposition word."""
        l1, r1 = self.rule
        l2, r2 = self.partners[i]
        k, way = divmod(self.codes[i], 2)
        return (r2 + l1[k:], l2[:-k] + r1) if way else (r1 + l2[k:], l1[:-k] + r2)


# Byte 255 is no letter (words.MAX_SYMBOLS reserves it), so a word found
# in sides joined by it lies within one side.
_SEP = bytes((MAX_SYMBOLS,))


def _sides_containing(sides: list[Word], w: Word) -> list[int]:
    """The indices of the sides that contain the nonempty word w, in
    increasing order, from one search of the joined sides.

    A hit's index is the number of separators before it; the search
    then goes on from the end of that side.
    """
    blob = _SEP.join(sides)
    found = []
    j = end = 0
    p = blob.find(w)
    while p >= 0:
        j += blob.count(_SEP, end, p)
        found.append(j)
        end = blob.find(_SEP, p)
        if end < 0:
            break
        p = blob.find(w, end)
    return found


class RewriteSystem:
    """Indexed shortlex rewrite system with factor-free left sides.

    The left sides form a trie whose states are named by row offsets:
    state s is the row ``_next[s : s + n]``, the root is 0, and
    ``_next[s + c]`` is the state of the child on letter c, -1 for no
    child, or ``-2 - r`` when the child's word is the left side of rule
    r.  A left side's last letter thus leads to its rule's code, and no
    state ends a left side.  ``_word`` maps each state to its word, and
    ``_node_of`` maps each proper prefix of a live left side (``b""``
    included) to its state and each live left side to its rule's code.
    Reduction runs the index automaton of the trie; its moves
    (``_goto``) start as the trie's own, the missing ones are filled in
    on first use, and all are dropped whenever the trie changes (patching
    only the moves a change touches needs an index of the states by
    suffix, which costs as much to keep up as the refills it saves).
    ``_prefixes`` and ``_suffixes`` map each proper prefix and each
    proper suffix of a live left side to the indices of its rules, in
    increasing order.  ``_lhs`` and ``_rhs`` hold the sides of each rule
    (``b""`` once it is retired), which ``add_rule`` searches joined, for
    the left sides to retire and then for the right sides to reduce
    again.

    Mutable and single-owner while completion runs.
    """

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.confluent = False
        self._rules: list[RewriteRule | None] = []
        self._lhs: list[Word] = []  # per rule: its sides, b"" once retired
        self._rhs: list[Word] = []
        # per rule: (|lhs| - 1, rhs reversed), as reduce reads them; stale after retirement
        self._rewrite: list[tuple[int, Word]] = []
        self._n_syms = alphabet.size
        self._next = [-1] * self._n_syms
        self._word: dict[int, Word] = {0: b""}
        self._node_of: dict[Word, int] = {b"": 0}
        self._free: list[int] = []  # pruned states, reused first
        self._goto: list[int] | None = None
        self._prefixes: dict[Word, list[int]] = {}
        self._suffixes: dict[Word, list[int]] = {}
        self.num_live = 0

    # -- rule bookkeeping ---------------------------------------------

    def _new_node(self, s: int, c: int) -> int:
        word = self._word[s] + bytes((c,))
        if self._free:
            t = self._free.pop()
        else:
            t = len(self._next)
            self._next += [-1] * self._n_syms
        self._word[t] = word
        self._node_of[word] = t
        self._next[s + c] = t
        return t

    def add_rule(self, lhs: Word, rhs: Word) -> tuple[int, list[RewriteRule]]:
        """Insert lhs -> rhs, which must be shortlex-oriented with lhs
        irreducible, and keep the left sides factor-free.

        Every rule whose left side contains lhs is retired first; then
        the rule is inserted and the other right sides containing lhs are
        reduced again.  Returns the new rule's index and the retired
        rules in index order, whose equations the caller still owes.
        """
        if not self.alphabet.shortlex_less(rhs, lhs):
            raise UsageError("rule must be oriented: rhs <_slex lhs")
        if self.reduce(lhs) != lhs:
            raise UsageError("left-hand side must be irreducible")
        retired = []
        for j in _sides_containing(self._lhs, lhs):
            retired.append(self._rules[j])
            self.remove_rule(j)
        stale = _sides_containing(self._rhs, lhs)
        idx = len(self._rules)
        self._rules.append(RewriteRule(lhs, rhs))
        self._lhs.append(lhs)
        self._rhs.append(rhs)
        self._rewrite.append((len(lhs) - 1, rhs[::-1]))
        s = 0
        for c in lhs[:-1]:
            t = self._next[s + c]
            s = t if t >= 0 else self._new_node(s, c)
            # a proper prefix, keyed by its state's own word
            self._prefixes.setdefault(self._word[s], []).append(idx)
        self._next[s + lhs[-1]] = self._node_of[lhs] = -2 - idx
        for k in range(1, len(lhs)):
            self._suffixes.setdefault(lhs[-k:], []).append(idx)
        self._goto = None
        self.num_live += 1
        self.confluent = False
        for j in stale:
            u, v = self._rules[j]
            v = self._rhs[j] = self.reduce(v)
            self._rules[j] = RewriteRule(u, v)
            self._rewrite[j] = (len(u) - 1, v[::-1])
        return idx, retired

    def remove_rule(self, idx: int) -> None:
        """Retire rule idx; trie states that lead to no rule are pruned."""
        rule = self._rules[idx]
        if rule is None:
            return
        lhs = word = rule.lhs
        n = self._n_syms
        del self._node_of[lhs]
        while True:  # cut word's move, then prune its parent if that left a row of -1
            s = self._node_of[word[:-1]]
            self._next[s + word[-1]] = -1
            if not s or self._next[s : s + n].count(-1) < n:
                break
            word = self._word.pop(s)
            del self._node_of[word]
            self._free.append(s)
        for k in range(1, len(lhs)):
            for table, key in ((self._prefixes, lhs[:k]), (self._suffixes, lhs[-k:])):
                ids = table[key]
                ids.remove(idx)
                if not ids:
                    del table[key]
        self._rules[idx] = None
        self._lhs[idx] = self._rhs[idx] = b""
        self._goto = None
        self.num_live -= 1
        self.confluent = False

    def live_items(self) -> list[tuple[int, RewriteRule]]:
        return [(i, r) for i, r in enumerate(self._rules) if r is not None]

    @property
    def rules(self) -> list[RewriteRule]:
        return [r for r in self._rules if r is not None]

    def overlaps(self, idx: int, both_ways: bool) -> OverlapBatch:
        """The critical pairs of rule idx with the live rules, unexpanded.

        Way 0: a suffix of length k of lhs_idx is a prefix of lhs_j, j = idx
        included.  Way 1, only if ``both_ways``: a suffix of length k of
        lhs_j is a prefix of lhs_idx, j != idx.  Each overlap is proper on
        both sides; the pairs come sorted by (j, way, k), and
        ``OverlapBatch.equation`` gives the two one-step reducts of a
        pair's superposition word.  Containment overlaps need no search,
        since the left sides are factor-free.
        """
        rule = self._rules[idx]
        l1 = rule.lhs
        found = []
        for k in range(1, len(l1)):
            found += [(j, 0, k) for j in self._prefixes.get(l1[-k:], ())]
            if both_ways:
                found += [(j, 1, k) for j in self._suffixes.get(l1[:k], ()) if j != idx]
        found.sort()
        rules = self._rules
        return OverlapBatch(
            rule, [rules[j] for j, _, _ in found], [k * 2 + way for _, way, k in found]
        )

    # -- reduction ------------------------------------------------------

    def _move(self, s: int, c: int) -> int:
        """The index automaton's move from state s on letter c, which the
        trie lacks: the state of the longest proper suffix of s's word
        followed by c that is in the trie (the root at worst), or its
        rule's code if that suffix is a whole left side.
        """
        node_of = self._node_of
        w = self._word[s] + bytes((c,))
        k = 1
        while (t := node_of.get(w[k:])) is None:
            k += 1
        self._goto[s + c] = t
        return t

    def reduce(self, w: Word) -> Word:
        """Normal form of w: rewrite the leftmost match until none is left.

        One pass, one move-table read per letter: ``stack`` holds the
        index ``s + c`` of each move read and kept, so its entries give
        the letters (``k % n``) and the states (``goto[k]``) alike.  A
        move to a rule's code drops the match's other letters and puts
        the right side back in front of the unread input.
        """
        self.alphabet.check_word(w)
        goto = self._goto
        if goto is None:
            goto = self._goto = self._next.copy()
        n = self._n_syms
        rewrite = self._rewrite
        stack: list[int] = []
        s = 0
        unread = bytearray(w[::-1])  # next letter last
        while unread:
            k = s + unread.pop()
            t = goto[k]
            if t == -1:
                t = self._move(s, k - s)
            if t >= 0:
                stack.append(k)
                s = t
            else:
                drop, rhs = rewrite[-2 - t]
                if drop:
                    del stack[-drop:]
                s = goto[stack[-1]] if stack else 0
                unread += rhs
        return bytes([k % n for k in stack])

    def __repr__(self) -> str:
        return f"RewriteSystem(rules={self.num_live}, confluent={self.confluent})"

    def dump(self) -> str:
        """One 'lhs -> rhs' line per live rule, in index order."""
        fmt = self.alphabet.format_word
        return "\n".join(f"{fmt(r.lhs)} -> {fmt(r.rhs)}" for r in self.rules)


def system_from_presentation(pres: Presentation) -> RewriteSystem:
    """Initial rewrite system: inverse cancellation plus one rule per
    relator, interreduced.

    A relator r is split at the midpoint, r = u * w with |u| = ceil(|r|/2),
    giving the relation u = w^-1 (the two differ, as r is freely
    reduced).  The relations x x^-1 = 1 come first, then one per relator
    in order.  Each has both sides reduced by the rules added so far;
    unless they then coincide, the shortlex-greater side becomes a left
    side.  A rule that a later one retires re-enters as a relation, so
    no relator is lost.
    """
    A = pres.alphabet
    rs = RewriteSystem(A)
    todo = deque((bytes((i, A.inverse[i])), b"") for i in range(A.size))
    for r in pres.relators:
        half = (len(r) + 1) // 2
        todo.append((r[:half], A.invert(r[half:])))
    while todo:
        u, v = map(rs.reduce, todo.popleft())
        if u != v:
            lhs, rhs = (u, v) if A.shortlex_less(v, u) else (v, u)
            todo.extend(rs.add_rule(lhs, rhs)[1])
    return rs


@dataclass
class CompletionResult:
    status: str  # "complete" | "paused" | "limitHit"
    which: str | None = None
    processed: int = 0
    added: int = 0
    queue_size: int = 0


class Completion:
    """FIFO critical-pair completion over a single-owner RewriteSystem.

    The queue holds plain equations (enqueued ones and the equations of
    retired rules) and, per added rule, one ``OverlapBatch`` of its
    critical pairs, never an empty one.  ``_cursor`` counts the pairs of
    the head batch already popped; a pair's equation is built when it is
    popped, so the order and the count are those of a queue of expanded
    equations.  ``pending`` counts the equations not yet processed, and
    ``processed`` those taken off the queue.  ``on_rule`` (if set) is
    called for every added rule; it supports the word-difference
    stability heuristic of ``derive_shortlex_structure``.
    """

    def __init__(self, system: RewriteSystem, limits: Limits | None = None):
        self.sys = system
        self.limits = limits or Limits()
        self.queue: deque[tuple[Word, Word] | OverlapBatch] = deque()
        self.pending = 0
        self._cursor = 0
        self.lost_pairs = False
        self.processed = 0
        self.added = 0
        self.limit_hit: str | None = None
        self.on_rule: Callable[[Word, Word], None] | None = None
        self._seed()

    def _seed(self) -> None:
        for i, _ in self.sys.live_items():
            self._push(self.sys.overlaps(i, both_ways=False))

    def _push(self, batch: OverlapBatch) -> None:
        if batch.codes:
            self.queue.append(batch)
            self.pending += len(batch.codes)

    def enqueue(self, eq: tuple[Word, Word]) -> None:
        self.queue.append(eq)
        self.pending += 1

    def pending_equations(self) -> list[tuple[Word, Word]]:
        """The equations not yet processed, in queue order."""
        out = []
        start = self._cursor
        for item in self.queue:
            if isinstance(item, OverlapBatch):
                out += map(item.equation, range(start, len(item.codes)))
            else:
                out.append(item)
            start = 0
        return out

    def _add_rule(self, lhs: Word, rhs: Word) -> None:
        rs = self.sys
        if rs.num_live >= self.limits.max_rules:
            self.limit_hit = "maxRules"
            return
        idx, retired = rs.add_rule(lhs, rhs)
        self.added += 1
        if self.on_rule is not None:
            self.on_rule(lhs, rhs)
        self.queue.extend(retired)
        self.pending += len(retired)
        self._push(rs.overlaps(idx, both_ways=True))

    def _pop(self) -> tuple[Word, Word]:
        """Take the next equation off the queue."""
        head = self.queue[0]
        self.pending -= 1
        if not isinstance(head, OverlapBatch):
            return self.queue.popleft()
        i = self._cursor
        if i + 1 == len(head.codes):
            self.queue.popleft()
            self._cursor = 0
        else:
            self._cursor = i + 1
        return head.equation(i)

    def step(self) -> None:
        """Process one queued equation."""
        w1, w2 = self._pop()
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
        while self.pending:
            if self.limit_hit:
                return self._result("limitHit", self.limit_hit)
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
        return CompletionResult(status, which, self.processed, self.added, self.pending)
