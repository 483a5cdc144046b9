"""Deterministic finite automata over a generator alphabet.

Transition tables are dense, one row per state in alphabet order, with
``FAIL = -1`` as an absorbing failure sentinel (the failure state is
implicit and never counted in ``num_states``).  Minimized automata are
canonical: states are live (reachable and co-reachable) and numbered
breadth-first from the initial state with symbols taken in alphabet
order, so two minimized automata accept the same language iff they are
structurally equal.  Minimization reads defined transitions only, as
sparse rows of ``(symbol, target)`` pairs: one backward search finds
the live states and the moves into each, Hopcroft refinement runs on
the live states with no sink state, and the breadth-first renumbering
keeps the classes reachable from the initial state.  The subset
construction uses the same backward search and hands its rows to that
core directly, returning the minimal automaton; ``minimize`` is the
adapter from a dense table.

Language analytics (finiteness, counting, growth series) are exact over
arbitrary-precision integers, with no rational arithmetic; growth series
are returned as integer polynomial fractions.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import compress, islice
from math import gcd
from typing import AbstractSet, Callable, Iterable, Sequence

from .errors import ResourceLimitError, UsageError
from .words import Alphabet, Word

FAIL = -1

DEFAULT_STATE_CAP = 10**6


class Dfa:
    """Immutable deterministic automaton; FAIL (-1) is the implicit sink.

    The constructor checks every table it is given, read from a file or
    built here: the state count, the initial and accepting states, one
    row per state as wide as the alphabet, every target a state or FAIL.
    """

    __slots__ = ("alphabet", "num_states", "initial", "accepting", "transitions")

    def __init__(
        self,
        alphabet: Alphabet,
        num_states: int,
        initial: int,
        accepting: Iterable[int],
        transitions: Sequence[Sequence[int]],
    ):
        if num_states <= 0:
            raise UsageError("a Dfa needs at least one state")
        if not 0 <= initial < num_states:
            raise UsageError("initial state out of range")
        accepting = frozenset(accepting)
        if accepting and (min(accepting) < 0 or max(accepting) >= num_states):
            raise UsageError("accepting state out of range")
        rows = tuple(map(tuple, transitions))
        if len(rows) != num_states:
            raise UsageError("transition table must have one row per state")
        # whole-table checks in C, with no Python-level loop per row
        if set(map(len, rows)) != {alphabet.size}:
            raise UsageError("transition row width must match alphabet size")
        targets = set().union(*rows)
        if targets and (min(targets) < FAIL or max(targets) >= num_states):
            raise UsageError("transition target out of range")
        self.alphabet = alphabet
        self.num_states = num_states
        self.initial = initial
        self.accepting = accepting
        self.transitions = rows

    @property
    def num_states_with_sink(self) -> int:
        """State count including the failure sink when it is reachable."""
        if any(FAIL in row for row in self.transitions):
            return self.num_states + 1
        return self.num_states

    def run(self, w: Word) -> int:
        state = self.initial
        for c in w:
            state = self.transitions[state][c]
            if state == FAIL:
                return FAIL
        return state

    def accepts(self, w: Word) -> bool:
        self.alphabet.check_word(w)
        return self.run(w) in self.accepting

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dfa):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.num_states == other.num_states
            and self.initial == other.initial
            and self.accepting == other.accepting
            and self.transitions == other.transitions
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.num_states, self.initial, self.accepting, self.transitions))

    def __repr__(self) -> str:
        return (
            f"Dfa(states={self.num_states}, accepting={sorted(self.accepting)}, "
            f"alphabet={list(self.alphabet.names)!r})"
        )


def explore(start, expand, state_cap: int, what: str) -> tuple[list, list]:
    """Breadth-first exploration of a subset or product construction.

    ``expand(state, index)`` says how one state expands, typically by
    returning its transition row, and numbers each successor by looking
    it up as ``index[successor]``.  ``index`` is a ``defaultdict`` whose
    factory ``iter(range(state_cap)).__next__`` numbers a new state in C:
    states are numbered in discovery order, ``start`` as 0, and at the
    (state_cap + 1)-th its ``StopIteration`` becomes
    ``ResourceLimitError(what, state_cap)``.  So ``expand`` must look
    successors up in a loop or a list comprehension, never in ``map()``
    or a generator expression, which that ``StopIteration`` would end
    silently or turn into a ``RuntimeError``.  Each round expands the
    states the last one found, the newest keys of ``index``.  Returns
    ``(order, rows)``: ``order[i]`` is state ``i`` and ``rows[i]`` what
    ``expand`` gave for it.
    """
    index = defaultdict(iter(range(state_cap)).__next__)
    order, rows, frontier = [], [], [start]
    try:
        index[start]  # numbered 0
        while frontier:
            order += frontier
            rows += [expand(state, index) for state in frontier]
            frontier = [*islice(reversed(index), len(index) - len(order))]
            frontier.reverse()
    except StopIteration:
        raise ResourceLimitError(what, state_cap) from None
    return order, rows


def determinize(
    alphabet: Alphabet,
    start,
    expand: Callable,
    accepting: Callable,
    state_cap: int = DEFAULT_STATE_CAP,
    what: str = "subset construction states",
) -> Dfa:
    """The minimal automaton of a nondeterministic machine given by
    moves, by the subset construction over its live states.

    ``expand(state, index)`` lists a state's ``(symbol, target)`` moves,
    with ``None`` as the symbol of an epsilon move, under the contract
    of :func:`explore`: each target is numbered as ``index[target]``,
    in a loop or a list comprehension, so the caller builds each row
    once, already numbered.  ``accepting(state)`` says whether a state
    accepts.  A move on a symbol may target ``FAIL``, given as ``FAIL``
    and never looked up: a subset with such a member has no move on
    that symbol, and ``FAIL`` is never expanded.

    One walk from ``start`` numbers each reachable machine state once
    through :func:`explore`, asking for its moves and its acceptance
    once; for a composition that is at most (|p| + 1)(|q| + 1) product
    states.  A state is live when it can reach an accepting state or a
    move to ``FAIL``, found by the backward search of :func:`_live`
    over the walked moves, the one minimisation runs, and only the
    moves into live states and the moves to ``FAIL`` are kept.  A dead
    member never accepts and never kills a symbol, so removing it
    changes no subset's language; subsets that differ only in dead
    members become one, and a symbol whose targets are all dead has no
    move.  When ``start`` is not live the result is the one-state
    empty automaton.

    The subsets of walk numbers reachable from ``start``, each closed
    under epsilon moves, are numbered by a second :func:`explore`.  Both
    run under ``state_cap``/``what``: the cap bounds the machine states
    walked and the subsets.  Their rows go to :func:`minimal` as sorted
    ``(symbol, target)`` lists, with no intermediate :class:`Dfa`.
    """
    order, walked = explore(start, expand, state_cap, what)
    final = {i for i, s in enumerate(order) if accepting(s)}
    del order
    live = _live(walked, final)[0]
    if 0 not in live:
        return minimal(alphabet, 0, (), [()])
    epsilon: dict = {}  # live state -> its epsilon moves into live states
    step: dict = {}  # live state -> its other kept moves
    for s in live:
        m = walked[s]
        epsilon[s] = [t for c, t in m if c is None and t in live]
        step[s] = [(c, t) for c, t in m if c is not None and (t == FAIL or t in live)]
    del walked

    def closure(states: set) -> frozenset:
        stack = [s for s in states if epsilon[s]]
        while stack:
            for t in epsilon[stack.pop()]:
                if t not in states:
                    states.add(t)
                    stack.append(t)
        return frozenset(states)

    def expand_subset(subset: frozenset, index: dict) -> list[tuple[int, int]]:
        targets: dict[int, set] = {}
        for s in subset:
            for c, t in step[s]:
                if c in targets:
                    targets[c].add(t)
                else:
                    targets[c] = {t}
        return [(c, index[closure(targets[c])]) for c in sorted(targets) if FAIL not in targets[c]]

    order, rows = explore(closure({0}), expand_subset, state_cap, what)
    accept = [i for i, subset in enumerate(order) if not final.isdisjoint(subset)]
    del order
    return minimal(alphabet, 0, accept, rows)


# -- minimization ------------------------------------------------------
#
# The core reads sparse rows: ``rows[s]`` lists state s's defined moves
# as ``(symbol, target)`` pairs with the symbols ascending.


def minimal(
    alphabet: Alphabet,
    initial: int,
    accepting: Iterable[int],
    rows: Sequence[Sequence[tuple[int, int]]],
) -> Dfa:
    """Canonical minimal automaton of the table ``rows`` (sparse, symbols
    ascending) from ``initial``, the states ``accepting`` accepting.

    Hopcroft partition refinement on the live states, then
    :func:`canonical` on the quotient.  Equal languages give
    structurally identical results, which is the automaton equality
    used everywhere else.
    """
    # the refinement's tables are freed before the renumbering runs
    return canonical(alphabet, *_hopcroft_quotient(initial, accepting, rows))


def minimize(dfa: Dfa) -> Dfa:
    """Canonical minimal automaton for the language of ``dfa``: the
    :func:`minimal` automaton of its defined moves."""
    return minimal(dfa.alphabet, dfa.initial, dfa.accepting, _moves(dfa))


def _moves(dfa: Dfa) -> list[list[tuple[int, int]]]:
    """The sparse rows of ``dfa``: each state's defined moves."""
    return [[(c, t) for c, t in enumerate(row) if t != FAIL] for row in dfa.transitions]


def _live(
    rows: Sequence[Sequence[tuple]], accepting: Iterable[int]
) -> tuple[set[int], list[list[tuple]]]:
    """One backward search over the sparse rows ``rows``.

    Returns ``(live, into)``: the states that can reach an accepting
    state or a move to ``FAIL``, and for each state ``t`` the
    ``(symbol, state)`` moves that enter it, with the moves to ``FAIL``
    as the last list, ``into[FAIL]``.  Every row is read, reachable from
    some initial state or not.
    """
    into: list[list[tuple]] = [[] for _ in range(len(rows) + 1)]
    for s, row in enumerate(rows):
        for c, t in row:
            into[t].append((c, s))
    live = {s for _c, s in into[FAIL]}.union(accepting)
    stack = list(live)
    while stack:
        for _c, s in into[stack.pop()]:
            if s not in live:
                live.add(s)
                stack.append(s)
    return live, into


def _hopcroft_quotient(
    initial: int, accepting: Iterable[int], rows: Sequence[Sequence[tuple[int, int]]]
) -> tuple[int, set[int], list[list[tuple[int, int]]]]:
    """The quotient of the live states by language equivalence, as
    ``(initial, accepting, rows)``: one state per class, numbered as
    the refinement found them, with sparse rows.

    Refinement reads only defined moves between live states, and a move
    to a state that is not live is left out of the quotient.  A live
    state that ``initial`` does not reach is refined too, which is
    correct for any set of states; :func:`canonical` walks from
    ``initial`` and drops its class, so no forward walk comes first.  With no
    sink state a splitter's complement is not implied, so both initial
    blocks start in the work list (Valmari & Lehtinen, "Efficient
    minimization of DFAs with partial transition functions", STACS 2008).
    """
    accepting = frozenset(accepting)
    live, into = _live(rows, accepting)
    if initial not in live:
        return 0, set(), [[]]
    block_of = [FAIL] * len(rows)  # FAIL for states that are not live
    partition: list[set[int]] = []
    for block in (set(accepting), live - accepting):
        if block:
            for s in block:
                block_of[s] = len(partition)
            partition.append(block)
    work = deque(range(len(partition)))
    in_work = set(work)
    while work:
        b = work.popleft()
        in_work.discard(b)
        pre: dict[int, set[int]] = {}  # symbol -> states it moves into block b
        for t in partition[b]:
            for c, s in into[t]:
                pre.setdefault(c, set()).add(s)
        for states in pre.values():
            touched: dict[int, set[int]] = {}
            for s in states:
                touched.setdefault(block_of[s], set()).add(s)
            for blk, inside in touched.items():
                block = partition[blk]
                if len(inside) == len(block):
                    continue
                block -= inside
                new_id = len(partition)
                partition.append(inside)
                for s in inside:
                    block_of[s] = new_id
                if blk in in_work:
                    work.append(new_id)
                    in_work.add(new_id)
                else:
                    smaller = new_id if len(inside) <= len(block) else blk
                    work.append(smaller)
                    in_work.add(smaller)

    # one state per block, read off any member
    quotient = [
        [(c, block_of[t]) for c, t in rows[next(iter(block))] if block_of[t] != FAIL]
        for block in partition
    ]
    final = {i for i, block in enumerate(partition) if not block.isdisjoint(accepting)}
    return block_of[initial], final, quotient


def canonical(
    alphabet: Alphabet,
    initial: int,
    accepting: AbstractSet[int],
    rows: Sequence[Sequence[tuple[int, int]]],
) -> Dfa:
    """Breadth-first renumbering of the states reachable from
    ``initial`` in the sparse table ``rows``, symbols in ascending
    order, so each row's pairs must be sorted by symbol.

    On a minimal automaton this is the canonical form that ``minimal``
    returns.  Permuting the symbols keeps an automaton minimal, so a
    permuted copy of a minimal automaton needs only this step.
    """
    width = alphabet.size

    def expand(s: int, index: dict) -> list[int]:
        row = [FAIL] * width
        for c, t in rows[s]:
            row[c] = index[t]
        return row

    order, dense = explore(initial, expand, len(rows), "canonical states")
    return Dfa(alphabet, len(order), 0, [i for i, s in enumerate(order) if s in accepting], dense)


# -- boolean algebra ---------------------------------------------------


_KEEP: dict[str, Callable[[bool, bool], bool]] = {
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "minus": lambda a, b: a and not b,
}


def boolean_op(
    kind: str, m1: Dfa, m2: Dfa | None = None, state_cap: int = DEFAULT_STATE_CAP
) -> Dfa:
    """Minimal boolean combination: kind in {"and","or","not","minus"}.

    One :func:`determinize` over the product machine: its states are the
    pairs ``(s1, s2)``, FAIL standing for either side's sink, moving on
    the symbols where a side is defined and accepting as ``_KEEP[kind]``
    says.  The cap counts product states.
    """
    if kind == "not":
        if m2 is not None:
            raise UsageError("'not' takes a single automaton")
        kind, m1, m2 = "minus", all_words_dfa(m1.alphabet), m1
    if m2 is None:
        raise UsageError(f"'{kind}' needs two automata")
    if kind not in _KEEP:
        raise UsageError(f"unknown boolean op {kind!r}")
    if m1.alphabet != m2.alphabet:
        raise UsageError("boolean operations need a common alphabet")
    keep = _KEEP[kind]
    sink = ((FAIL,) * m1.alphabet.size,)  # appended last, where FAIL = -1 indexes it
    rows1, rows2 = m1.transitions + sink, m2.transitions + sink

    def expand(pair: tuple[int, int], index: dict) -> list:
        targets = enumerate(zip(rows1[pair[0]], rows2[pair[1]]))
        return [(c, index[t]) for c, t in targets if t != (FAIL, FAIL)]

    def accepting(pair: tuple[int, int]) -> bool:
        return keep(pair[0] in m1.accepting, pair[1] in m2.accepting)

    start = (m1.initial, m2.initial)
    return determinize(m1.alphabet, start, expand, accepting, state_cap, "product states")


def equivalent(m1: Dfa, m2: Dfa) -> bool:
    """Language equality via canonical minimized forms."""
    return minimize(m1) == minimize(m2)


def all_words_dfa(alphabet: Alphabet) -> Dfa:
    return Dfa(alphabet, 1, 0, (0,), [[0] * alphabet.size])


# -- language analytics ------------------------------------------------


def live_states(dfa: Dfa) -> list[int]:
    """The states that can reach acceptance, ascending, reachable from
    the initial state or not."""
    return sorted(_live(_moves(dfa), dfa.accepting)[0])


def language_is_finite(dfa: Dfa) -> int | None:
    """Exact number of accepted words, or None when the language is infinite.

    In-degrees are counted over the reachable part, and states are
    peeled from the initial state as their in-degree reaches zero.  A
    state left over has a predecessor left over, so it lies on a loop or
    after one, and its successors are left over too.  The language is
    therefore infinite exactly when a state left over accepts.
    Otherwise the peel order is topological on every state that can
    reach acceptance, and path counts from the initial state are pushed
    along it.
    """
    rows = dfa.transitions
    indeg = [0] * dfa.num_states
    reach = [dfa.initial]
    seen = bytearray(dfa.num_states)
    seen[dfa.initial] = 1
    for s in reach:  # reach grows while it is walked
        for t in rows[s]:
            if t != FAIL:
                indeg[t] += 1
                if not seen[t]:
                    seen[t] = 1
                    reach.append(t)
    paths = [0] * dfa.num_states
    paths[dfa.initial] = 1
    order = [dfa.initial] if indeg[dfa.initial] == 0 else []
    for s in order:  # order grows while it is walked
        for t in rows[s]:
            if t != FAIL:
                paths[t] += paths[s]
                indeg[t] -= 1
                if indeg[t] == 0:
                    order.append(t)
    # a state that is not reachable has in-degree 0 and no paths
    if any(indeg[s] for s in dfa.accepting):
        return None
    return sum(paths[s] for s in dfa.accepting)


def _count_words(dfa: Dfa, live: list[int], max_len: int) -> list[int]:
    """Exact accepted-word counts per length 0..max_len over the live
    states ``live``.

    The counts stop once no live state is reached: every live state
    reaches acceptance, so that happens exactly when the language is
    finite, after its longest word, which is shorter than ``len(live)``.
    The empty language has no counts."""
    live_ix = {s: i for i, s in enumerate(live)}
    if dfa.initial not in live_ix:
        return []
    succ = [[live_ix[t] for t in dfa.transitions[s] if t in live_ix] for s in live]
    acc = [s in dfa.accepting for s in live]
    vec = [0] * len(live)
    vec[live_ix[dfa.initial]] = 1
    counts = []
    for _ in range(max_len + 1):
        if not any(vec):
            break
        counts.append(sum(compress(vec, acc)))
        nxt = [0] * len(live)
        for i, v in enumerate(vec):
            if v:
                for j in succ[i]:
                    nxt[j] += v
        vec = nxt
    return counts


@dataclass(frozen=True)
class GrowthSeries:
    """Rational generating function sum s(n) x^n with exact integer data.

    ``numerator``/``denominator`` are ascending integer coefficient
    tuples with denominator(0) > 0 and no common polynomial factor;
    ``coefficients`` are the first requested term counts.
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]
    coefficients: tuple[int, ...]

    def expand(self, n_terms: int) -> list[int]:
        return _expand(self.numerator, self.denominator, n_terms)

    def __str__(self) -> str:
        return f"({_poly_str(self.numerator)})/({_poly_str(self.denominator)})"


def _poly_str(coeffs: Sequence[int]) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
            continue
        x = "x" if i == 1 else f"x^{i}"
        if c == 1:
            terms.append(x)
        elif c == -1:
            terms.append(f"-{x}")
        else:
            terms.append(f"{c}{x}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _expand(num: Sequence[int], den: Sequence[int], n_terms: int) -> list[int]:
    # coefficients of num/den as a power series; den[0] != 0
    out: list[int] = []
    for n in range(n_terms):
        acc = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        q, r = divmod(acc, den[0])
        if r:
            raise AssertionError("series expansion produced a non-integer")
        out.append(q)
    return out


def _berlekamp_massey(seq: Sequence[int]) -> list[int]:
    """A minimal LFSR's connection polynomial, over the integers and up
    to a nonzero scale, with a nonzero constant term.

    Fraction-free: where the rational update is c <- c - (d / bd) x^m b,
    with bd the discrepancy stored with b, this one takes
    c <- bd c - d x^m b and divides c by its content.  Each update is a
    nonzero multiple of the rational one, so the result is the rational
    connection polynomial up to scale."""
    c = [1]
    b = [1]
    L, m = 0, 1
    bd = 1
    for n in range(len(seq)):
        d = sum(c[i] * seq[n - i] for i in range(L + 1))
        if d == 0:
            m += 1
            continue
        t = c
        c = [bd * v for v in c] + [0] * (len(b) + m - len(c))
        for i, bv in enumerate(b):
            c[i + m] -= d * bv
        content = gcd(*c)
        if content > 1:
            c = [v // content for v in c]
        if 2 * L <= n:
            L = n + 1 - L
            b = t
            bd = d
            m = 1
        else:
            m += 1
    out = c[: L + 1]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def growth_series(dfa: Dfa, n_terms: int) -> GrowthSeries:
    """Exact rational growth series of the accepted language.

    Term counts are computed by the transfer recurrence over live
    states.  A finite language's counts stop after its longest word, and
    its series is their polynomial over 1.  Otherwise the minimal linear
    recurrence the terms satisfy (order at most the live state count,
    so 2m+1 terms pin it down) gives the denominator, by Berlekamp-Massey
    over the integers, and the numerator is the matching truncated
    product.  The pair is divided by its content and signed so that
    denominator(0) > 0, which makes it unique, and it is verified
    against the counted terms before returning.
    """
    if n_terms < 1:
        raise UsageError("n_terms must be >= 1")
    live = live_states(dfa)
    counts = _count_words(dfa, live, max(2 * len(live) + 1, n_terms) - 1)
    if len(counts) <= len(live):  # the counts stopped: a finite language
        terms = tuple(counts[:n_terms]) + (0,) * (n_terms - len(counts))
        return GrowthSeries(tuple(counts) or (0,), (1,), terms)
    den = _berlekamp_massey(counts)
    # numerator = series * denominator, truncated; trailing terms must vanish
    num = [
        sum(cv * counts[n - i] for i, cv in enumerate(den[: n + 1])) for n in range(len(counts))
    ]
    while not num[-1]:  # not all zero, since den[0] and some count are not
        num.pop()
    unit = gcd(*num, *den) if den[0] > 0 else -gcd(*num, *den)
    num = [v // unit for v in num]
    den = [v // unit for v in den]
    series = GrowthSeries(tuple(num), tuple(den), tuple(counts[:n_terms]))
    if series.expand(len(counts)) != counts:
        raise AssertionError("growth series expansion mismatch")
    return series


def enumerate_words(dfa: Dfa, max_len: int) -> list[Word]:
    """All accepted words of length <= max_len, in shortlex order."""
    if max_len < 0:
        raise UsageError("max_len must be >= 0")
    live = set(live_states(dfa))
    out: list[Word] = []
    if dfa.initial not in live:
        return out
    layer: list[tuple[bytes, int]] = [(b"", dfa.initial)]
    if dfa.initial in dfa.accepting:
        out.append(b"")
    for _ in range(max_len):
        nxt: list[tuple[bytes, int]] = []
        for w, s in layer:
            for c, t in enumerate(dfa.transitions[s]):
                if t in live:
                    wt = w + bytes((c,))
                    nxt.append((wt, t))
                    if t in dfa.accepting:
                        out.append(wt)
        layer = nxt
        if not layer:
            break
    return out


def shortest_accepted(dfa: Dfa) -> Word | None:
    """Shortlex-least accepted word, or None for the empty language."""
    if dfa.initial in dfa.accepting:
        return b""
    seen = {dfa.initial}
    layer = [(b"", dfa.initial)]
    while layer:
        nxt = []
        for w, s in layer:
            for c, t in enumerate(dfa.transitions[s]):
                if t != FAIL and t not in seen:
                    wt = w + bytes((c,))
                    if t in dfa.accepting:
                        return wt
                    seen.add(t)
                    nxt.append((wt, t))
        layer = nxt
    return None
