"""Word-difference machines: the engine recognizing fellow travelling.

States are reduced words d = u(i)^-1 v(i) collected from the prefixes
of rewrite rules (and their inverses).  A pair of words is accepted as
long as every prefix difference is represented in the state set: the
transition on a pair symbol (a, b) from state d is the reduction of
a^-1 d b, defined exactly when that reduction is again a state.  Pad
symbols (a,$) and ($,b) are ordinary transitions, so the automaton
constructions downstream need no special cases.
"""

from __future__ import annotations

from collections.abc import Iterator

from .pairfsa import PairAlphabet
from .rewrite import RewriteSystem
from .words import Word


class WordDifferenceMachine:
    __slots__ = ("alphabet", "pairs", "words", "index", "table", "reducer")

    def __init__(
        self,
        alphabet,
        pairs: PairAlphabet,
        words: tuple[Word, ...],
        table: tuple[tuple[int, ...], ...],
        reducer: RewriteSystem | None,
    ):
        self.alphabet = alphabet
        self.pairs = pairs
        self.words = words
        self.index = {w: i for i, w in enumerate(words)}
        self.table = table
        self.reducer = reducer

    @property
    def num_states(self) -> int:
        return len(self.words)

    @property
    def initial(self) -> int:
        return 0  # the empty difference

    def max_difference_length(self) -> int:
        """The realized fellow-traveller bound k: longest state word."""
        return max(len(w) for w in self.words)

    def step(self, state: int, a: int, b: int) -> int:
        """Transition on component symbols (pad = alphabet size); -1 if undefined."""
        return self.table[state][self.pairs.index(a, b)]

    def step_sym(self, state: int, pair_symbol: int) -> int:
        return self.table[state][pair_symbol]

    def state_of(self, w: Word) -> int | None:
        return self.index.get(w)


def rule_differences(rs: RewriteSystem, lhs: Word, rhs: Word) -> Iterator[Word]:
    """The reduced differences lhs(i)^-1 rhs(i) of a rule lhs -> rhs,
    for i = 1..max(|lhs|, |rhs|)."""
    inv = rs.alphabet.invert
    for i in range(1, max(len(lhs), len(rhs)) + 1):
        yield rs.reduce(inv(lhs[:i]) + rhs[:i])


def accumulate_from_rules(rs: RewriteSystem) -> WordDifferenceMachine:
    """Build the word-difference machine of a rewrite system.

    For every rule u -> v and prefix index i, the reduction of
    u(i)^-1 v(i) becomes a state; the state set is closed under
    (reduced) inversion, and the transition table is the full closure
    over the collected set.  Deterministic: states appear in discovery
    order starting from the empty difference.
    """
    A = rs.alphabet
    pa = PairAlphabet(A)
    red = rs.reduce
    inv = A.invert

    ordered: dict[Word, None] = {b"": None}
    for _, (u, v) in rs.live_items():
        for d in rule_differences(rs, u, v):
            ordered.setdefault(d, None)
    # inversion closure (reduced inverses are states too); the list
    # grows while it is walked
    work = list(ordered)
    for d in work:
        di = red(inv(d))
        if di not in ordered:
            ordered[di] = None
            work.append(di)

    words = tuple(ordered)
    index = {w: i for i, w in enumerate(words)}
    pad = pa.pad
    table = []
    for d in words:
        row = [-1] * pa.alphabet.size
        for k in range(pa.alphabet.size):
            a, b = pa.parts(k)
            left = bytes((A.inverse[a],)) if a != pad else b""
            right = bytes((b,)) if b != pad else b""
            d2 = red(left + d + right)
            if d2 in index:
                row[k] = index[d2]
        table.append(tuple(row))
    return WordDifferenceMachine(A, pa, words, tuple(table), rs)
