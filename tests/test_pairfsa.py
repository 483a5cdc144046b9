import itertools
import random

import pytest

from agt import fsa
from agt.autostruct import EPSILON_KEY
from agt.errors import UsageError
from agt.fsa import FAIL, Dfa
from agt.pairfsa import (
    PairAlphabet,
    PairDfa,
    compose,
    composite_within,
    decode_pair,
    diagonal,
    encode_pair,
    partners,
    project_first,
    project_second,
    projects_onto,
    swap,
)
from agt.words import Alphabet, inverse_closed_alphabet

from oracles import (
    accepts_pair,
    empty_language_dfa,
    pad_modes,
    slice_route_partners,
    slice_route_unique,
    validate_padding,
)


@pytest.fixture(scope="module")
def ab():
    return inverse_closed_alphabet(["a", "b"], {"a": "A", "b": "B"})


@pytest.fixture(scope="module")
def pa(ab):
    return PairAlphabet(ab)


def words_up_to(n_syms, max_len):
    for length in range(max_len + 1):
        yield from (bytes(t) for t in itertools.product(range(n_syms), repeat=length))


def test_pair_alphabet_shape(ab, pa):
    assert pa.alphabet.size == (ab.size + 1) ** 2 - 1
    assert pa.parts(pa.index(0, pa.pad)) == (0, pa.pad)
    for refused in [(pa.pad, pa.pad), (pa.pad + 1, 0), (-1, 0)]:
        with pytest.raises(UsageError):
            pa.index(*refused)


def test_encode_pair_examples(ab, pa):
    w = encode_pair(pa, ab.parse_word("ab"), ab.parse_word("a"))
    assert [pa.parts(c) for c in w] == [(0, 0), (2, pa.pad)]
    assert encode_pair(pa, b"", b"") == b""
    w2 = encode_pair(pa, ab.parse_word("a"), ab.parse_word("abb"))
    assert [pa.parts(c) for c in w2] == [(0, 0), (pa.pad, 2), (pa.pad, 2)]


def test_encode_decode_roundtrip(ab, pa):
    rng = random.Random(5)
    for _ in range(200):
        u = bytes(rng.randrange(ab.size) for _ in range(rng.randrange(6)))
        v = bytes(rng.randrange(ab.size) for _ in range(rng.randrange(6)))
        assert decode_pair(pa, encode_pair(pa, u, v)) == (u, v)


def test_decode_rejects_bad_padding(ab, pa):
    bad = bytes([pa.index(0, pa.pad), pa.index(0, 0)])
    with pytest.raises(UsageError):
        decode_pair(pa, bad)


def test_parts_refuses_symbols_outside_the_pair_alphabet():
    one = inverse_closed_alphabet(["a"], {"a": "A"})
    pa = PairAlphabet(one)
    assert pa.alphabet.size == 8
    assert [pa.parts(k) for k in range(8)][-1] == (2, 1)
    for k in (-1, 8, 9, 12):
        with pytest.raises(UsageError, match="out of range"):
            pa.parts(k)
    with pytest.raises(UsageError, match="out of range"):
        decode_pair(pa, bytes([9, 12]))


def test_diagonal_examples(ab):
    allw = fsa.all_words_dfa(ab)
    d = diagonal(allw)
    assert accepts_pair(d, ab.parse_word("ab"), ab.parse_word("ab"))
    assert not accepts_pair(d, ab.parse_word("a"), ab.parse_word("b"))
    assert project_first(d) == fsa.minimize(allw)
    validate_padding(d)


def anb_times_an(ab) -> PairDfa:
    """Hand-built pair automaton for {(a^n b, a^n) : n >= 0}."""
    pa = PairAlphabet(ab)
    rows = [[FAIL] * pa.alphabet.size for _ in range(2)]
    rows[0][pa.index(0, 0)] = 0  # (a, a)
    rows[0][pa.index(2, pa.pad)] = 1  # (b, $)
    return PairDfa(ab, Dfa(pa.alphabet, 2, 0, (1,), rows), pa)


def test_project_first_examples(ab):
    p = anb_times_an(ab)
    proj = project_first(p)
    for w in words_up_to(ab.size, 8):
        expected = len(w) >= 1 and w[-1] == 2 and all(c == 0 for c in w[:-1])
        assert proj.accepts(w) == expected
    proj2 = project_second(p)
    for w in words_up_to(ab.size, 6):
        assert proj2.accepts(w) == all(c == 0 for c in w)
    empty = PairDfa(ab, empty_language_dfa(PairAlphabet(ab).alphabet))
    assert fsa.language_is_finite(project_first(empty)) == 0


def test_swap(ab):
    p = anb_times_an(ab)
    s = swap(p)
    assert accepts_pair(s, ab.parse_word("aa"), ab.parse_word("aab"))
    assert not accepts_pair(s, ab.parse_word("aab"), ab.parse_word("aa"))


@pytest.mark.parametrize(
    "fixture", ["free_structure", "z2_structure", "s3_structure", "dinf_structure",
                "b3_structure"]
)
def test_swap_is_the_minimized_permutation(fixture, request):
    """Permuting the symbols of a minimal automaton keeps it minimal, so
    renumbering alone gives what a full minimisation would."""
    for mult in request.getfixturevalue(fixture).multipliers.values():
        pa = mult.pairs
        perm = [pa.index(*reversed(pa.parts(k))) for k in range(pa.alphabet.size)]
        rows = [[FAIL] * pa.alphabet.size for _ in range(mult.dfa.num_states)]
        for s, row in enumerate(mult.dfa.transitions):
            for k, t in enumerate(row):
                rows[s][perm[k]] = t
        d = Dfa(pa.alphabet, mult.dfa.num_states, mult.dfa.initial, mult.dfa.accepting, rows)
        assert swap(mult) == PairDfa(mult.base, fsa.minimize(d), pa)
        assert swap(swap(mult)) == mult


def test_compose_diagonal_identity(ab, f2_acceptor=None):
    lang = fsa.minimize(
        fsa.boolean_op(
            "minus",
            fsa.all_words_dfa(ab),
            empty_language_dfa(ab),
        )
    )
    d = diagonal(lang)
    assert compose(d, d) == d


def test_compose_with_empty_is_empty(ab):
    d = diagonal(fsa.all_words_dfa(ab))
    empty = PairDfa(ab, empty_language_dfa(PairAlphabet(ab).alphabet))
    assert compose(d, empty).is_empty()
    assert compose(empty, d).is_empty()


def test_is_empty_on_empty_and_nonempty_multipliers(ab, z2_structure):
    for m in z2_structure.multipliers.values():
        assert not m.is_empty()
    # a loop on every pair symbol; the accepting state is unreachable
    pa = PairAlphabet(ab)
    rows = [[0] * pa.alphabet.size, [1] * pa.alphabet.size]
    empty = PairDfa(ab, Dfa(pa.alphabet, 2, 0, [1], rows), pa)
    assert empty.is_empty()
    assert compose(z2_structure.multipliers[0], empty).is_empty()


def test_compose_multipliers_z2(z2_structure):
    s = z2_structure
    m_eps = s.multipliers[EPSILON_KEY]
    m_a = s.multipliers[0]
    m_inv_a = s.multipliers[1]
    assert compose(m_a, m_inv_a) == m_eps


def random_relation(seed: int) -> set[tuple[bytes, bytes]]:
    """Six random pairs of words over {a, A}, each shorter than 4."""
    r = random.Random(seed)
    pairs = set()
    for _ in range(6):
        u = bytes(r.randrange(2) for _ in range(r.randrange(4)))
        v = bytes(r.randrange(2) for _ in range(r.randrange(4)))
        pairs.add((u, v))
    return pairs


def relation_dfa(ab, pairs) -> PairDfa:
    """The trie acceptor of a finite relation: every move leads to an
    accepting state, as :func:`compose` needs, but it is not minimal."""
    pa = PairAlphabet(ab)
    words = sorted(encode_pair(pa, u, v) for u, v in pairs)
    index = {b"": 0}
    rows = [[FAIL] * pa.alphabet.size]
    accepting = set()
    for w in words:
        cur = b""
        for c in w:
            nxt = cur + bytes((c,))
            if nxt not in index:
                index[nxt] = len(rows)
                rows.append([FAIL] * pa.alphabet.size)
            rows[index[cur]][c] = index[nxt]
            cur = nxt
        accepting.add(index[w])
    return PairDfa(ab, Dfa(pa.alphabet, len(rows), 0, accepting, rows), pa)


def join(rel1, rel2):
    return {(u, w) for u, v in rel1 for v2, w in rel2 if v == v2}


def test_compose_agrees_with_relational_join(ab):
    """Brute-force join on small random relations, |u|,|v|,|w| <= 5."""
    for trial in range(8):
        rel1 = random_relation(trial * 2)
        rel2 = random_relation(trial * 2 + 1)
        comp = compose(relation_dfa(ab, rel1), relation_dfa(ab, rel2))
        got = set()
        for u in words_up_to(2, 5):
            for w in words_up_to(2, 5):
                if accepts_pair(comp, u, w):
                    got.add((u, w))
        assert got == join(rel1, rel2)


def assert_within_agrees(p, q, t, expected):
    """composite_within against the difference of the built composite."""
    minus = fsa.boolean_op("minus", compose(p, q).dfa, t.dfa)
    assert composite_within(p, q, t) == expected == (fsa.shortest_accepted(minus) is None)


def test_composite_within_agrees_with_difference_and_join(ab):
    """On random finite relations R;S: within R;S itself, not within R;S
    less one pair, within a superset, and within the empty relation only
    when R;S is empty."""
    empty = PairDfa(ab, empty_language_dfa(PairAlphabet(ab).alphabet))
    nonempty = 0
    for trial in range(12):
        rel1 = random_relation(trial * 2)
        rel2 = random_relation(trial * 2 + 1)
        p, q = relation_dfa(ab, rel1), relation_dfa(ab, rel2)
        joined = join(rel1, rel2)
        assert_within_agrees(p, q, compose(p, q), True)
        superset = joined | random_relation(100 + trial)
        assert_within_agrees(p, q, relation_dfa(ab, superset), True)
        assert_within_agrees(p, q, empty, not joined)
        for pair in joined:
            assert_within_agrees(p, q, relation_dfa(ab, joined - {pair}), False)
        nonempty += bool(joined)
    assert nonempty >= 6


def test_composite_within_when_the_middle_word_outlives_both_ends(ab):
    # {(a^n, a^n b)} then {(a^n b, a^n)}: the middle word's b meets $ on
    # both ends, an output ($, $) on which t stands still
    p, q = swap(anb_times_an(ab)), anb_times_an(ab)
    a_powers = {(b"\x00" * n, b"\x00" * n) for n in range(4)}
    assert_within_agrees(p, q, diagonal(fsa.all_words_dfa(ab)), True)
    assert_within_agrees(p, q, relation_dfa(ab, a_powers), False)
    # {(a^n b, a^n)} then {(eps, a^m)}: only n = 0 composes, giving {(b, a^m)}
    p, q = anb_times_an(ab), a_powers_from_empty(ab)
    b_by_a_powers = {(b"\x02", b"\x00" * m) for m in range(4)}
    assert_within_agrees(p, q, compose(p, q), True)
    assert_within_agrees(p, q, relation_dfa(ab, b_by_a_powers), False)


def test_composite_within_needs_a_common_base(ab):
    d = diagonal(fsa.all_words_dfa(ab))
    other = diagonal(fsa.all_words_dfa(inverse_closed_alphabet(["x"], {"x": "X"})))
    with pytest.raises(UsageError):
        composite_within(d, d, other)


def test_projection_shrinks_under_composition(ab):
    p = anb_times_an(ab)
    comp = compose(p, swap(p))
    sub = fsa.boolean_op("minus", project_first(comp), project_first(p))
    assert fsa.language_is_finite(sub) == 0


# -- the projection walk against the projection route ---------------------


def word_dfa(alphabet, w: bytes) -> Dfa:
    """The automaton that accepts w alone."""
    rows = [[FAIL] * alphabet.size for _ in range(len(w) + 1)]
    for i, c in enumerate(w):
        rows[i][c] = i + 1
    return Dfa(alphabet, len(w) + 1, 0, (len(w),), rows)


def doubled(m: Dfa) -> Dfa:
    """m with every state split in two that alternate on each move: the
    same language from an automaton that is not minimal."""
    n = m.num_states
    rows = [
        [FAIL if t == FAIL else t + n * (1 - k) for t in m.transitions[s]]
        for k in (0, 1)
        for s in range(n)
    ]
    return Dfa(m.alphabet, 2 * n, m.initial, [*m.accepting, *(s + n for s in m.accepting)], rows)


def assert_walk_agrees_with_projection(p: PairDfa):
    """Against the first projection, the projection less its
    shortlex-least word and the projection plus the shortlex-least word
    outside it: the walk's answer is ``project_first(p) == m``, also when
    m is given by an automaton that is not minimal, and its witness is
    the projection route's, the shortlex-least word of L(m) outside the
    projection."""
    proj = project_first(p)
    outside = fsa.shortest_accepted(fsa.boolean_op("not", proj))
    ms = [proj, fsa.boolean_op("or", proj, word_dfa(p.base, outside))]
    inside = fsa.shortest_accepted(proj)
    if inside is not None:
        ms.append(fsa.boolean_op("minus", proj, word_dfa(p.base, inside)))
    for k, m in enumerate(ms):
        witness = fsa.shortest_accepted(fsa.boolean_op("minus", m, proj))
        assert (proj == m) == (k == 0), k
        for given in (m, doubled(m)):
            assert projects_onto(p, given) == (k == 0, witness), k


def test_projection_walk_agrees_on_random_relations(ab):
    for trial in range(12):
        assert_walk_agrees_with_projection(relation_dfa(ab, random_relation(trial)))
    assert_walk_agrees_with_projection(anb_times_an(ab))
    assert_walk_agrees_with_projection(PairDfa(ab, empty_language_dfa(PairAlphabet(ab).alphabet)))


@pytest.mark.parametrize(
    "fixture", ["z2_structure", "s3_structure", "b3_structure", "starved_b3_structure"]
)
def test_projection_walk_agrees_on_multipliers(fixture, request):
    for mult in request.getfixturevalue(fixture).multipliers.values():
        assert_walk_agrees_with_projection(mult)


def test_projection_walk_needs_a_common_base(ab):
    d = diagonal(fsa.all_words_dfa(ab))
    other = fsa.all_words_dfa(inverse_closed_alphabet(["x"], {"x": "X"}))
    with pytest.raises(UsageError):
        projects_onto(d, other)


def test_partners_lookup(ab, z2_structure):
    s = z2_structure
    m_a = s.multipliers[0]
    for u, v in (("ab", "aab"), ("A", "")):
        u = ab.parse_word(u)
        assert partners(m_a, u) == ab.parse_word(v) == slice_route_unique(m_a, u)
    # u not accepted by the word acceptor: no partner
    u = ab.parse_word("ba")
    assert partners(m_a, u) is None
    assert slice_route_partners(m_a, u) == []


def test_pad_modes_and_validation(z2_structure):
    # minimization may merge padded dead ends (equal futures), so a state
    # with several entry modes must have no live continuation
    for mult in z2_structure.multipliers.values():
        validate_padding(mult)
        modes = pad_modes(mult)
        live = set(fsa.live_states(mult.dfa))
        for state, ms in modes.items():
            if state in live and len(ms) > 1:
                row = mult.dfa.transitions[state]
                assert not any(t in live for t in row if t != FAIL)


# -- partner lookup against the slice-automaton route ---------------------


@pytest.mark.parametrize(
    "fixture", ["free_structure", "z2_structure", "s3_structure", "dinf_structure",
                "b3_structure"]
)
def test_partners_match_slice_route_on_multipliers(fixture, request):
    s = request.getfixturevalue(fixture)
    A = s.alphabet
    rng = random.Random(fixture)
    accepted = fsa.enumerate_words(s.word_acceptor, 5)
    rejected = []
    while len(rejected) < 40:
        w = bytes(rng.randrange(A.size) for _ in range(rng.randrange(1, 9)))
        if not s.word_acceptor.accepts(w):
            rejected.append(w)
    for key, mult in s.multipliers.items():
        for u in accepted + rejected:
            got = partners(mult, u)
            assert got == slice_route_unique(mult, u), (key, u)
            assert (got is None) == (u in rejected), (key, u)


def test_partners_several_on_starved_b3(starved_b3_structure):
    s = starved_b3_structure
    words = fsa.enumerate_words(s.word_acceptor, 4)
    most = 0
    for y in range(s.alphabet.size):
        mult = s.multipliers[y]
        rel = compose(swap(mult), mult)
        for u in words:
            want = slice_route_partners(rel, u)
            assert want is not None, (y, u)
            got = partners(rel, u)
            if len(want) == 1:
                assert got == want[0], (y, u)
            else:
                assert got is None, (y, u)
            most = max(most, len(want))
    assert most >= 2


def random_pair_automaton(rng: random.Random) -> PairDfa:
    """1-6 states over 1-2 self-inverse letters, transition density
    0.15-0.5, random accepting set; neither minimized nor trimmed, so
    dead loops, live overhang loops and moves that break the padding
    all occur."""
    k = rng.randint(1, 2)
    base = Alphabet(["a", "b"][:k], list(range(k)))
    pa = PairAlphabet(base)
    n = rng.randint(1, 6)
    density = rng.uniform(0.15, 0.5)
    rows = [
        [rng.randrange(n) if rng.random() < density else FAIL for _ in range(pa.alphabet.size)]
        for _ in range(n)
    ]
    accepting = [s for s in range(n) if rng.random() < 0.4]
    return PairDfa(base, Dfa(pa.alphabet, n, 0, accepting, rows), pa)


def test_partners_match_slice_route_on_random_automata():
    rng = random.Random(13)
    several = 0
    for _ in range(1000):
        p = random_pair_automaton(rng)
        for u in words_up_to(p.base.size, 3):
            want = slice_route_partners(p, u)
            unique = want is not None and len(want) == 1
            assert partners(p, u) == (want[0] if unique else None), (p.dfa.transitions, u)
            several += want is None or len(want) >= 2
    assert several > 0


def _lookups_in_two_orders(build, words):
    """Answers of two separately built copies of one automaton, the
    second asked the words in reverse order."""
    first, second = build(), build()
    forward = [partners(first, u) for u in words]
    backward = [partners(second, u) for u in reversed(words)]
    return forward, backward[::-1]


def test_partners_do_not_depend_on_the_lookups_before():
    several = 0
    for seed in range(300):
        def build():
            return random_pair_automaton(random.Random(seed))

        p = build()
        words = list(words_up_to(p.base.size, 4))
        forward, backward = _lookups_in_two_orders(build, words)
        for u, got, again in zip(words, forward, backward):
            want = slice_route_partners(p, u)
            unique = want is not None and len(want) == 1
            assert got == again == (want[0] if unique else None), (seed, u)
            several += want is None or len(want) >= 2  # the pass stops at the second end
    assert several > 0


def test_partners_do_not_depend_on_the_lookups_before_on_starved_b3(starved_b3_structure):
    s = starved_b3_structure
    rng = random.Random(5)
    words = fsa.enumerate_words(s.word_acceptor, 4)
    words += [bytes(rng.randrange(s.alphabet.size) for _ in range(rng.randrange(5, 12)))
              for _ in range(40)]
    rng.shuffle(words)
    several = 0
    for y in range(s.alphabet.size):
        mult = s.multipliers[y]
        forward, backward = _lookups_in_two_orders(lambda: compose(swap(mult), mult), words)
        rel = compose(swap(mult), mult)
        for u, got, again in zip(words, forward, backward):
            want = slice_route_partners(rel, u)
            unique = want is not None and len(want) == 1
            assert got == again == (want[0] if unique else None), (y, u)
            several += want is None or len(want) >= 2
    assert several > 0


def a_powers_from_empty(ab) -> PairDfa:
    """Hand-built pair automaton for {(eps, a^n) : n >= 0}."""
    pa = PairAlphabet(ab)
    rows = [[FAIL] * pa.alphabet.size]
    rows[0][pa.index(pa.pad, 0)] = 0  # ($, a)
    return PairDfa(ab, Dfa(pa.alphabet, 1, 0, (0,), rows), pa)


def test_partners_infinitely_many(ab):
    # {(a^n b, a^n)} then {(eps, a^m)}: only n = 0 composes, giving {(b, a^m)}
    rel = compose(anb_times_an(ab), a_powers_from_empty(ab))
    assert partners(rel, ab.parse_word("b")) is None
    assert slice_route_partners(rel, ab.parse_word("b")) is None
    assert partners(a_powers_from_empty(ab), b"") is None
    for u in words_up_to(ab.size, 4):
        assert partners(rel, u) is None
        if u != ab.parse_word("b"):
            assert slice_route_partners(rel, u) == []
    # a loop that cannot reach acceptance adds no partner (not minimized)
    pa = PairAlphabet(ab)
    rows = [[FAIL] * pa.alphabet.size for _ in range(2)]
    rows[0][pa.index(pa.pad, 0)] = 1
    rows[1][pa.index(pa.pad, 0)] = 1
    dead_loop = PairDfa(ab, Dfa(pa.alphabet, 2, 0, (0,), rows), pa)
    assert partners(dead_loop, b"") == b"" == slice_route_unique(dead_loop, b"")
    p = anb_times_an(ab)
    assert partners(p, ab.parse_word("aab")) == ab.parse_word("aa")
    assert partners(swap(p), ab.parse_word("aa")) == ab.parse_word("aab")


def hand_built(ab, n_states, accepting, moves) -> PairDfa:
    """Pair automaton from (source, a, b, target) moves, names or $."""
    pa = PairAlphabet(ab)
    rows = [[FAIL] * pa.alphabet.size for _ in range(n_states)]
    letter = {"$": pa.pad, **{n: i for i, n in enumerate(ab.names)}}
    for s, a, b, t in moves:
        rows[s][pa.index(letter[a], letter[b])] = t
    return PairDfa(ab, Dfa(pa.alphabet, n_states, 0, accepting, rows), pa)


def test_partners_when_v_ends_before_u(ab):
    # {(a^n bb, a^n)}: v ends two letters before u
    p = hand_built(ab, 3, (2,), [(0, "a", "a", 0), (0, "b", "$", 1), (1, "b", "$", 2)])
    for u, v in (("aabb", "aa"), ("bb", ""), ("aab", None), ("aabbb", None)):
        u = ab.parse_word(u)
        want = None if v is None else ab.parse_word(v)
        assert partners(p, u) == want == slice_route_unique(p, u), u
    assert slice_route_partners(p, ab.parse_word("aabb")) == [ab.parse_word("aa")]


def test_partners_that_end_apart_and_meet_in_one_state(ab):
    # (ab, a) and (ab, eps): v ends after one letter or none, and both
    # paths reach accepting state 2 after (b, $)
    p = hand_built(ab, 4, (2,), [(0, "a", "a", 1), (1, "b", "$", 2),
                                 (0, "a", "$", 3), (3, "b", "$", 2)])
    u = ab.parse_word("ab")
    assert slice_route_partners(p, u) == [b"", ab.parse_word("a")]
    assert partners(p, u) is None
    # either path alone is a unique partner
    for moves, v in (([(0, "a", "a", 1), (1, "b", "$", 2)], "a"),
                     ([(0, "a", "$", 3), (3, "b", "$", 2)], "")):
        one = hand_built(ab, 4, (2,), moves)
        assert partners(one, u) == ab.parse_word(v) == slice_route_unique(one, u)


def test_normal_form_builds_no_automaton(ab_alphabet, b3_structure, monkeypatch):
    from agt import groupcalc
    from agt.autostruct import AutomaticStructure

    s = b3_structure
    cold = AutomaticStructure(
        s.presentation, s.word_acceptor, s.multipliers, s.diff_machine, s.k, verified=True
    )
    built = []
    orig = Dfa.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        orig(self, *args, **kwargs)

    monkeypatch.setattr(Dfa, "__init__", counting_init)
    rng = random.Random(200)
    w = bytes(rng.randrange(ab_alphabet.size) for _ in range(200))
    nf = groupcalc.normal_form(cold, w)
    assert len(cold._partner_memo) > 0
    assert built == []
    monkeypatch.undo()
    assert groupcalc.normal_form(cold, nf) == nf
