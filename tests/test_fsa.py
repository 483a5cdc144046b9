import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from agt import fsa
from agt.errors import ResourceLimitError, UsageError
from agt.fsa import FAIL, Dfa
from agt.words import Alphabet, inverse_closed_alphabet

from oracles import (
    _live_states,
    count_words_by_length,
    empty_language_dfa,
    finite_language_size,
    minimal_state_count,
    polynomials_coprime,
    power_series,
    subset_table,
)


def words_up_to(n_syms, max_len):
    for length in range(max_len + 1):
        yield from (bytes(t) for t in itertools.product(range(n_syms), repeat=length))


def language_set(m, max_len):
    return {w for w in words_up_to(m.alphabet.size, max_len) if m.accepts(w)}


def free_group_acceptor(A: Alphabet) -> Dfa:
    """Hand-built acceptor for freely reduced words (Fig.-1 style):
    state 0 = start, state 1+x = last letter was x."""
    n = A.size
    rows = [[1 + c for c in range(n)]]
    for last in range(n):
        rows.append([FAIL if A.inverse[last] == c else 1 + c for c in range(n)])
    return Dfa(A, n + 1, 0, range(n + 1), rows)


@pytest.fixture(scope="module")
def ab():
    return inverse_closed_alphabet(["a", "b"], {"a": "A", "b": "B"})


@pytest.fixture(scope="module")
def f2_acceptor(ab):
    return free_group_acceptor(ab)


def random_dfa(rng, alphabet, max_states=6):
    n = rng.randint(1, max_states)
    rows = [
        [rng.choice([FAIL] + list(range(n))) for _ in range(alphabet.size)]
        for _ in range(n)
    ]
    accepting = [s for s in range(n) if rng.random() < 0.5]
    return Dfa(alphabet, n, rng.randrange(n), accepting, rows)


# -- accepts -------------------------------------------------------------


def test_accepts_freely_reduced_examples(ab, f2_acceptor):
    assert f2_acceptor.accepts(ab.parse_word("aB"))
    assert not f2_acceptor.accepts(ab.parse_word("aA"))
    assert f2_acceptor.accepts(b"") == (f2_acceptor.initial in f2_acceptor.accepting)


# -- determinize ----------------------------------------------------------


def numbered(moves):
    """``moves(state)``, a list of ``(symbol, target)`` moves, as the
    ``expand(state, index)`` that :func:`fsa.determinize` takes: each
    target numbered through ``index``, ``FAIL`` kept as it is."""

    def expand(state, index):
        return [(c, t if t == FAIL else index[t]) for c, t in moves(state)]

    return expand


def test_determinize_already_deterministic(ab, f2_acceptor):
    def moves(s):
        return [(c, t) for c, t in enumerate(f2_acceptor.transitions[s]) if t != FAIL]

    det = fsa.determinize(
        ab, f2_acceptor.initial, numbered(moves), f2_acceptor.accepting.__contains__
    )
    assert det == f2_acceptor
    assert language_set(det, 5) == language_set(f2_acceptor, 5)


def test_determinize_contains_symbol(ab):
    # "words containing the symbol a": state 0 guesses where the a is,
    # and the start state "s" enters 0 by an epsilon move
    asked = []

    def moves(s):
        asked.append(s)
        if s == "s":
            return [(None, 0)]
        loops = [(c, s) for c in range(ab.size)]
        return loops + [(0, 1)] if s == 0 else loops

    det = fsa.determinize(ab, "s", numbered(moves), lambda s: s == 1)
    assert sorted(asked, key=str) == [0, 1, "s"]  # each state asked once
    # subsets {s, 0}, {0, 1} and {0}; {s, 0} and {0} are one state of
    # the minimal automaton that determinize returns
    assert det.num_states == 2
    assert fsa.minimize(det) == det
    expected = {w for w in words_up_to(ab.size, 8) if 0 in w}
    assert language_set(det, 8) == expected


def test_determinize_fail_target_kills_the_symbol(ab):
    # in the subset {1, 2}, state 1 moves to FAIL on symbol 0 while
    # state 2 moves to itself: the subset has no move on 0, the other
    # symbols still proceed, and FAIL is never asked for its moves
    asked = []

    def moves(s):
        asked.append(s)
        if s == 0:
            return [(c, t) for t in (1, 2) for c in range(ab.size)]
        return [(c, FAIL if s == 1 and c == 0 else s) for c in range(ab.size)]

    det = fsa.determinize(ab, 0, numbered(moves), lambda s: s == 2)
    assert sorted(asked) == [0, 1, 2]
    assert det == Dfa(ab, 2, 0, [1], [[1, 1, 1, 1], [FAIL, 1, 1, 1]])


def test_determinize_empty_language(ab):
    det = fsa.determinize(ab, 0, numbered(lambda s: []), lambda s: False)
    assert fsa.language_is_finite(det) == 0


@st.composite
def machines(draw):
    """A small nondeterministic machine: ``(width, moves, accepting)``.

    States 0..n-1 have random moves, epsilon moves and symbol moves to
    FAIL among them.  Random moves may also enter state n, a dead loop,
    and state n + 1, which accepts nothing but kills symbol 0 and moves
    into the dead loop on the others.
    """
    width = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    symbol = st.one_of(st.none(), st.integers(0, width - 1))
    table = []
    for _ in range(n):
        drawn = draw(st.lists(st.tuples(symbol, st.integers(FAIL, n + 1)), max_size=5))
        table.append([(c, t) for c, t in drawn if c is not None or t != FAIL])
    table.append([(c, n) for c in range(width)])
    table.append([(0, FAIL)] + [(c, n) for c in range(1, width)])
    accepting = draw(st.sets(st.integers(0, n - 1)))
    return width, table, accepting


def same_words(m: Dfa, num_states, initial, accepting, rows, max_len=8) -> bool:
    """Whether ``m`` and the dense table accept the same words up to
    ``max_len`` letters, walking both in step."""
    layer = {(m.initial, initial)}
    for length in range(max_len + 1):
        if any((s in m.accepting) != (t in accepting) for s, t in layer):
            return False
        if length == max_len:
            return True
        layer = {
            (FAIL if s == FAIL else m.transitions[s][c], FAIL if t == FAIL else rows[t][c])
            for s, t in layer
            for c in range(m.alphabet.size)
        } - {(FAIL, FAIL)}


def explorations(build) -> tuple[Dfa, list[tuple[bool, int]]]:
    """``build()`` and, for each :func:`fsa.explore` call that
    :func:`fsa.determinize` made under its cap, whether that call
    numbered subsets and how many states it numbered."""
    made = []
    real = fsa.explore

    def recording(start, expand, state_cap, what):
        order, rows = real(start, expand, state_cap, what)
        if what == "subset construction states":
            made.append((isinstance(start, frozenset), len(order)))
        return order, rows

    with mock.patch.object(fsa, "explore", recording):
        return build(), made


@settings(max_examples=150, deadline=None)
@given(machines())
def test_determinize_matches_the_plain_subset_construction(machine):
    width, table, accepting = machine
    alphabet = Alphabet([f"x{i}" for i in range(width)], list(range(width)))
    det = fsa.determinize(alphabet, 0, numbered(table.__getitem__), accepting.__contains__)
    plain = subset_table(width, 0, table.__getitem__, accepting.__contains__)
    assert det.num_states == minimal_state_count(*plain)
    assert same_words(det, *plain)
    assert fsa.minimize(det) == det

    # a dead branch from the start adds no subset, though the walk
    # numbers its state
    def build(with_branch, cap=fsa.DEFAULT_STATE_CAP):
        moves = table
        if with_branch:  # state d moves to itself and to the dead loop
            d = len(table)
            loop = [(c, d) for c in range(width)] + [(0, d - 2)]
            moves = [[*table[0], (None, d), (width - 1, d)], *table[1:], loop]
        return fsa.determinize(
            alphabet, 0, numbered(moves.__getitem__), accepting.__contains__, cap
        )

    plain, plain_made = explorations(lambda: build(False))
    branched, branched_made = explorations(lambda: build(True))
    assert plain == branched == det
    subsets = [count for is_subsets, count in plain_made if is_subsets]
    assert [count for is_subsets, count in branched_made if is_subsets] == subsets
    # the branched build's own smallest cap is its largest exploration
    cap = max(count for _, count in branched_made)
    assert build(True, cap) == det
    if cap > 1:
        with pytest.raises(ResourceLimitError):
            build(True, cap - 1)


@pytest.mark.parametrize("target", [2, -2])
def test_dfa_rejects_a_target_out_of_range(ab, target):
    with pytest.raises(UsageError, match="transition target out of range"):
        Dfa(ab, 2, 0, [1], [[1, 0, FAIL, 0], [0, FAIL, target, 1]])


# -- minimize -------------------------------------------------------------


def test_minimize_idempotent_and_canonical(ab, f2_acceptor):
    m1 = fsa.minimize(f2_acceptor)
    assert fsa.minimize(m1) == m1


def test_minimize_f2_six_states_with_sink(ab, f2_acceptor):
    # duplicate every state; minimization must recover 5 live + sink
    n = f2_acceptor.num_states
    rows = []
    for copy in range(2):
        for row in f2_acceptor.transitions:
            rows.append([t if t == FAIL else t + n * ((copy + 1) % 2) for t in row])
    doubled = Dfa(ab, 2 * n, 0, list(range(2 * n)), rows)
    m = fsa.minimize(doubled)
    assert m.num_states == 5
    assert m.num_states_with_sink == 6
    assert language_set(m, 6) == language_set(f2_acceptor, 6)


def test_minimize_membership_agrees_with_brute_force(ab):
    rng = random.Random(12345)
    for _ in range(10):
        m = random_dfa(rng, ab)
        mm = fsa.minimize(m)
        assert language_set(mm, 8) == language_set(m, 8)


def test_minimize_canonical_on_language_equal_pairs(ab):
    rng = random.Random(99)
    for _ in range(20):
        m = fsa.minimize(random_dfa(rng, ab))
        # scramble the state numbering; minimization must recanonicalize
        n = m.num_states
        perm = list(range(n))
        rng.shuffle(perm)
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        rows = [None] * n
        for s in range(n):
            rows[perm[s]] = [FAIL if t == FAIL else perm[t] for t in m.transitions[s]]
        scrambled = Dfa(ab, n, perm[m.initial], [perm[s] for s in m.accepting], rows)
        assert fsa.minimize(scrambled) == m
        # already minimal: renumbering alone recovers the canonical form
        moves = [[(c, t) for c, t in enumerate(row) if t != FAIL] for row in scrambled.transitions]
        assert fsa.canonical(ab, scrambled.initial, scrambled.accepting, moves) == m


def random_partial_dfa(rng, alphabet, p_fail):
    """Random states plus a dead state (a non-accepting loop that random
    moves may enter) and an accepting state that no move enters."""
    n = rng.randint(1, 10)
    dead, unreachable = n, n + 1
    rows = [
        [FAIL if rng.random() < p_fail else rng.randrange(n + 1) for _ in range(alphabet.size)]
        for _ in range(n)
    ]
    rows.append([rng.choice([FAIL, dead]) for _ in range(alphabet.size)])
    rows.append([rng.randrange(n + 1) for _ in range(alphabet.size)])
    accepting = [s for s in range(n) if rng.random() < 0.4] + [unreachable]
    return Dfa(alphabet, n + 2, rng.randrange(n), accepting, rows)


def reachable_part(m: Dfa) -> Dfa:
    """``m`` cut down to the states its initial state reaches, numbered
    in the order a breadth-first walk finds them."""
    number = {m.initial: 0}
    order = [m.initial]
    for s in order:  # order grows while it is walked
        for t in m.transitions[s]:
            if t != FAIL and t not in number:
                number[t] = len(order)
                order.append(t)
    rows = [[FAIL if t == FAIL else number[t] for t in m.transitions[s]] for s in order]
    return Dfa(m.alphabet, len(order), 0, [number[s] for s in order if s in m.accepting], rows)


@pytest.mark.parametrize("p_fail", [0.0, 0.3, 0.6, 0.9])
@pytest.mark.parametrize("n_syms", [1, 2, 4])
def test_minimize_state_count_matches_moore_oracle(p_fail, n_syms):
    alphabet = Alphabet([f"x{i}" for i in range(n_syms)], list(range(n_syms)))
    rng = random.Random(f"{p_fail}/{n_syms}")
    for _ in range(150):
        m = random_partial_dfa(rng, alphabet, p_fail)
        mm = fsa.minimize(m)
        assert mm.num_states == minimal_state_count(
            m.num_states, m.initial, m.accepting, m.transitions
        )
        assert fsa.minimize(mm) == mm
        # unreachable live states are refined too, then dropped
        assert mm == fsa.minimize(reachable_part(m))


# -- boolean ops ----------------------------------------------------------


def test_boolean_op_examples(ab, f2_acceptor):
    m = fsa.minimize(f2_acceptor)
    assert fsa.boolean_op("and", m, m) == m
    assert fsa.boolean_op("not", fsa.boolean_op("not", m)) == m
    diff = fsa.boolean_op("minus", fsa.all_words_dfa(ab), m)
    assert diff.accepts(ab.parse_word("aA"))
    assert not diff.accepts(ab.parse_word("ab"))


def test_boolean_ops_against_set_semantics(ab):
    rng = random.Random(7)
    for _ in range(15):
        m1 = random_dfa(rng, ab)
        m2 = random_dfa(rng, ab)
        s1 = language_set(m1, 6)
        s2 = language_set(m2, 6)
        assert language_set(fsa.boolean_op("and", m1, m2), 6) == s1 & s2
        assert language_set(fsa.boolean_op("or", m1, m2), 6) == s1 | s2
        assert language_set(fsa.boolean_op("minus", m1, m2), 6) == s1 - s2
        universe = set(words_up_to(ab.size, 6))
        assert language_set(fsa.boolean_op("not", m1), 6) == universe - s1


def test_de_morgan(ab):
    rng = random.Random(21)
    for _ in range(10):
        m1 = random_dfa(rng, ab)
        m2 = random_dfa(rng, ab)
        lhs = fsa.boolean_op("not", fsa.boolean_op("and", m1, m2))
        rhs = fsa.boolean_op(
            "or", fsa.boolean_op("not", m1), fsa.boolean_op("not", m2)
        )
        assert lhs == rhs


def test_boolean_alphabet_mismatch(ab):
    other = inverse_closed_alphabet(["x"], {"x": "X"})
    with pytest.raises(UsageError):
        fsa.boolean_op("and", fsa.all_words_dfa(ab), fsa.all_words_dfa(other))


# -- language analytics ----------------------------------------------------


def test_language_finiteness(ab, f2_acceptor, s3_structure, z2_structure):
    assert fsa.language_is_finite(s3_structure.word_acceptor) == 6
    assert fsa.language_is_finite(z2_structure.word_acceptor) is None
    assert fsa.language_is_finite(empty_language_dfa(ab)) == 0
    assert fsa.language_is_finite(f2_acceptor) is None



def test_language_is_finite_counts_long_chain_without_recursion(ab, monkeypatch):
    import sys

    def refuse(limit):
        raise AssertionError("language_is_finite must not touch the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    n = 100_000
    # state i --a--> i + 1; states accept on every third step: a^0, a^3, ...
    rows = [[i + 1, FAIL, FAIL, FAIL] for i in range(n - 1)] + [[FAIL] * 4]
    chain = Dfa(ab, n, 0, range(0, n, 3), rows)
    assert fsa.language_is_finite(chain) == len(range(0, n, 3))


XY = Alphabet(["x", "y"], [0, 1])

# name -> (accepting, rows over x, y from initial state 0, accepted words or None)
FINITENESS_CASES = {
    # 0 -x-> 1 accepts; 0 -y-> 2, which loops on x and accepts nothing
    "reachable_dead_loop": ([1], [[1, 2], [FAIL, FAIL], [2, FAIL]], 1),
    # 0 accepts and loops on x
    "initial_on_live_loop": ([0, 1], [[0, 1], [FAIL, FAIL]], None),
    # x and xx accept; then y enters a loop that accepts nothing
    "loop_after_last_accepting": ([1, 2], [[1, FAIL], [2, FAIL], [FAIL, 3], [3, 3]], 2),
    "empty_language": ([], [[0, 1], [1, 0]], 0),
}


@pytest.mark.parametrize("name", sorted(FINITENESS_CASES))
def test_language_is_finite_named_cases(name):
    accepting, rows, expected = FINITENESS_CASES[name]
    m = Dfa(XY, len(rows), 0, accepting, rows)
    assert fsa.language_is_finite(m) == expected
    assert finite_language_size(len(rows), 0, set(accepting), rows) == expected


@st.composite
def dfas(draw):
    width = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    cells = st.lists(st.integers(FAIL, n - 1), min_size=width, max_size=width)
    rows = [draw(cells) for _ in range(n)]
    alphabet = Alphabet([f"x{i}" for i in range(width)], list(range(width)))
    initial = draw(st.integers(0, n - 1))
    return Dfa(alphabet, n, initial, draw(st.sets(st.integers(0, n - 1))), rows)


@settings(max_examples=300, deadline=None)
@given(dfas())
def test_language_is_finite_matches_counting_by_length(m):
    expected = finite_language_size(m.num_states, m.initial, m.accepting, m.transitions)
    assert fsa.language_is_finite(m) == expected


@settings(max_examples=300, deadline=None)
@given(dfas())
def test_growth_series_is_the_reduced_fraction_of_the_counts(m):
    """num/den expands to the counts by length, den(0) = 1, and num and
    den are coprime: together these fix the reduced fraction."""
    g = fsa.growth_series(m, 1)
    n = 3 * m.num_states + 3
    assert g.denominator[0] == 1
    assert power_series(g.numerator, g.denominator, n) == count_words_by_length(m, n - 1)
    assert polynomials_coprime(g.numerator, g.denominator)


def test_live_states_is_every_state_that_reaches_acceptance():
    """Reachable or not: random_partial_dfa's last state accepts and
    no move enters it."""
    for n_syms in (1, 2, 4):
        alphabet = Alphabet([f"x{i}" for i in range(n_syms)], list(range(n_syms)))
        rng = random.Random(f"live/{n_syms}")
        for p_fail in (0.0, 0.3, 0.6, 0.9):
            for _ in range(50):
                m = random_partial_dfa(rng, alphabet, p_fail)
                live = fsa.live_states(m)
                assert live == sorted(_live_states(m.transitions, m.accepting))
                assert m.num_states - 1 in live


@settings(max_examples=300, deadline=None)
@given(dfas())
def test_live_states_and_minimize_read_unreachable_states(m):
    assert fsa.live_states(m) == sorted(_live_states(m.transitions, m.accepting))
    assert fsa.minimize(m) == fsa.minimize(reachable_part(m))


def test_growth_oracles_examples():
    assert power_series((1,), (1, -2), 4) == [1, 2, 4, 8]
    assert power_series((1, 1), (1, -3), 4) == [1, 4, 12, 36]
    assert power_series((0,), (1,), 2) == [0, 0]
    assert polynomials_coprime((1, 1), (1, -3))
    assert polynomials_coprime((0,), (1,))
    # (1 - x)(1 + x) and (1 - x)(1 + 2x) share 1 - x
    assert not polynomials_coprime((1, 0, -1), (1, 1, -2))
    assert not polynomials_coprime((2, 4), (3, 6))


def test_growth_series_f2(f2_acceptor):
    g = fsa.growth_series(f2_acceptor, 4)
    assert g.numerator == (1, 1)
    assert g.denominator == (1, -3)
    assert g.coefficients == (1, 4, 12, 36)


def test_growth_series_all_words_and_empty(ab):
    g = fsa.growth_series(fsa.all_words_dfa(ab), 3)
    assert g.numerator == (1,)
    assert g.denominator == (1, -4)
    two = Alphabet(["x", "y"], [0, 1])
    g2 = fsa.growth_series(fsa.all_words_dfa(two), 4)
    assert (g2.numerator, g2.denominator) == ((1,), (1, -2))
    empty = fsa.growth_series(empty_language_dfa(ab), 3)
    assert (empty.numerator, empty.denominator) == ((0,), (1,))
    assert empty.coefficients == (0, 0, 0)


def test_growth_series_trims_once(f2_acceptor, monkeypatch):
    calls = []
    real = fsa.live_states
    monkeypatch.setattr(fsa, "live_states", lambda m: calls.append(m) or real(m))
    g = fsa.growth_series(f2_acceptor, 4)
    assert g.coefficients == (1, 4, 12, 36)
    assert calls == [f2_acceptor]


def test_growth_of_finite_language(ab, s3_structure):
    g = fsa.growth_series(s3_structure.word_acceptor, 6)
    assert g.coefficients == (1, 2, 2, 1, 0, 0)
    assert g.denominator == (1,)
    assert g.numerator == (1, 2, 2, 1)


def test_growth_matches_enumeration_counts(ab):
    # length 12 on a two-symbol alphabet, length 8 on four symbols
    two = Alphabet(["x", "y"], [0, 1])
    rng = random.Random(3)
    for _ in range(10):
        m = random_dfa(rng, two)
        g = fsa.growth_series(m, 13)
        counts = [0] * 13
        for w in fsa.enumerate_words(m, 12):
            counts[len(w)] += 1
        assert list(g.coefficients) == counts
    for _ in range(4):
        m = random_dfa(rng, ab)
        g = fsa.growth_series(m, 9)
        counts = [0] * 9
        for w in fsa.enumerate_words(m, 8):
            counts[len(w)] += 1
        assert list(g.coefficients) == counts


def test_enumerate_examples(ab, f2_acceptor, s3_structure):
    words = fsa.enumerate_words(f2_acceptor, 1)
    assert [ab.format_word(w) for w in words] == ["", "a", "A", "b", "B"]
    assert fsa.enumerate_words(empty_language_dfa(ab), 4) == []
    assert len(fsa.enumerate_words(s3_structure.word_acceptor, 3)) == 6


def test_enumerate_shortlex_order(ab, f2_acceptor):
    words = fsa.enumerate_words(f2_acceptor, 4)
    for u, v in zip(words, words[1:]):
        assert ab.shortlex_less(u, v)


def test_shortest_accepted(ab, f2_acceptor):
    assert fsa.shortest_accepted(f2_acceptor) == b""
    assert fsa.shortest_accepted(empty_language_dfa(ab)) is None
    no_eps = fsa.boolean_op(
        "minus", f2_acceptor, Dfa(ab, 1, 0, (0,), [[FAIL] * ab.size])
    )
    assert fsa.shortest_accepted(no_eps) == ab.parse_word("a")
