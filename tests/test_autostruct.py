import gc
import itertools
import time

import pytest

from agt import autostruct, fsa, pairfsa
from agt.autostruct import (
    EPSILON_KEY,
    AutomaticStructure,
    CheckFailure,
    axiom_check,
    build_candidate_word_acceptor,
    build_multipliers,
    derive_shortlex_structure,
    elementary_checks,
)
from agt.errors import ResourceLimitError
from agt.fsa import FAIL, Dfa
from agt.limits import Limits
from agt.pairfsa import PairAlphabet, PairDfa, diagonal, encode_pair
from agt.rewrite import Completion, Presentation, RewriteSystem, system_from_presentation
from agt.words import inverse_closed_alphabet
from agt.worddiff import WordDifferenceMachine, accumulate_from_rules

from oracles import (
    BurauB3Model,
    FreeGroupModel,
    ZSquaredModel,
    accepts_pair,
    count_words_by_length,
    empty_language_dfa,
    reference_verdict,
    run_pair,
    s3_model,
    slice_route_partners,
    slice_route_unique,
)


def words_up_to(n_syms, max_len):
    for length in range(max_len + 1):
        yield from (bytes(t) for t in itertools.product(range(n_syms), repeat=length))


# -- candidate word acceptor ---------------------------------------------


def test_candidate_acceptor_z2(ab_alphabet, z2_structure):
    A = ab_alphabet
    wa = z2_structure.word_acceptor
    assert wa.accepts(A.parse_word("ab"))
    assert not wa.accepts(A.parse_word("ba"))

    def expected(w):
        # Fig.-1 language: a run of a or A, then a run of b or B
        i = 0
        while i < len(w) and w[i] == w[0]:
            i += 1
        if i < len(w) and not all(c == w[i] for c in w[i:]):
            return False
        non_empty_runs = [w[:i], w[i:]] if i < len(w) else ([w] if w else [])
        kinds = [run[0] // 2 for run in non_empty_runs if run]
        return kinds in ([], [0], [1], [0, 1])

    for w in words_up_to(A.size, 6):
        assert wa.accepts(w) == expected(w), w


def test_candidate_acceptor_f2_is_freely_reduced(ab_alphabet, free_structure):
    A = ab_alphabet
    wa = free_structure.word_acceptor
    for w in words_up_to(A.size, 6):
        assert wa.accepts(w) == (A.free_reduce(w) == w)


def test_candidate_acceptor_trivial_difference_set(ab_alphabet):
    """The one-state machine {empty} of the free group, its table
    computed by the free-group reducer: only the diagonal moves (x, x)
    are defined, so the equal run alone must never reject."""
    A = ab_alphabet
    rs = system_from_presentation(Presentation(A, []))
    pa = PairAlphabet(A)
    row = []
    for k in range(pa.alphabet.size):
        a, b = pa.parts(k)
        left = bytes((A.inverse[a],)) if a != pa.pad else b""
        right = bytes((b,)) if b != pa.pad else b""
        row.append(0 if rs.reduce(left + right) == b"" else FAIL)
    machine = WordDifferenceMachine(A, pa, (b"",), (tuple(row),), rs)
    assert all(machine.step(0, x, x) == 0 for x in range(A.size))
    assert build_candidate_word_acceptor(machine, A) == fsa.all_words_dfa(A)


def test_word_acceptor_is_one_subset_construction(z2_structure, monkeypatch):
    calls = []
    real = fsa.determinize

    def recording(alphabet, start, expand, accepting, state_cap, what):
        calls.append(what)
        return real(alphabet, start, expand, accepting, state_cap, what)

    monkeypatch.setattr(fsa, "determinize", recording)
    s = z2_structure
    wa = build_candidate_word_acceptor(s.diff_machine, s.alphabet)
    assert calls == ["word acceptor states"]
    assert wa == s.word_acceptor


def test_acceptor_prefix_closed(z2_structure, b3_structure, s3_structure):
    for s in (z2_structure, b3_structure, s3_structure):
        wa = s.word_acceptor
        # structurally: every live state accepting
        assert set(fsa.live_states(wa)) <= wa.accepting
        for w in fsa.enumerate_words(wa, 8):
            for i in range(len(w)):
                assert wa.accepts(w[:i])


# -- multipliers -----------------------------------------------------------


def test_multiplier_epsilon_is_diagonal(z2_structure):
    assert z2_structure.multipliers[EPSILON_KEY] == diagonal(z2_structure.word_acceptor)


def test_multiplier_examples_z2(ab_alphabet, z2_structure):
    A = ab_alphabet
    m_a = z2_structure.multipliers[A.index("a")]
    assert accepts_pair(m_a, A.parse_word("ab"), A.parse_word("aab"))
    assert not accepts_pair(m_a, A.parse_word("ab"), A.parse_word("ab"))


def test_multiplier_empty_word_acceptor(ab_alphabet):
    A = ab_alphabet
    rs = system_from_presentation(Presentation(A, []))
    Completion(rs).run()
    d = accumulate_from_rules(rs)
    empty_wa = empty_language_dfa(A)
    m = build_multipliers(empty_wa, d)[A.index("a")]
    assert m.is_empty()


def test_derivation_explores_one_multiplier_product_per_pass(ab_alphabet, monkeypatch):
    A = ab_alphabet
    explored = []
    real = fsa.explore

    def recording(start, expand, state_cap, what):
        explored.append(what)
        return real(start, expand, state_cap, what)

    monkeypatch.setattr(fsa, "explore", recording)
    pres = Presentation(A, [A.parse_word("abAB")])
    out = derive_shortlex_structure(pres, Limits(stability_window=5))
    passes = out.transcript.count(": wa states=")
    assert out.verified and passes == 3, out.transcript
    assert explored.count("multiplier states") == passes


def test_multipliers_of_the_trivial_difference_machine(ab_alphabet):
    """A system with no rules has the one difference state, the empty
    word, and no defined move.  M_eps accepts (eps, eps) alone, and no
    generator is a difference state, so no product state carries an
    M_y label and each M_y is the one-state empty automaton."""
    A = ab_alphabet
    d = accumulate_from_rules(RewriteSystem(A))
    assert d.words == (b"",)
    mults = build_multipliers(build_candidate_word_acceptor(d, A), d)
    assert list(mults) == [EPSILON_KEY, *range(A.size)]
    assert mults[EPSILON_KEY] == diagonal(Dfa(A, 1, 0, [0], [[FAIL] * A.size]))
    empty = PairDfa(A, empty_language_dfa(d.pairs.alphabet))
    for y in range(A.size):
        assert d.state_of(d.reducer.reduce(bytes((y,)))) is None
        assert mults[y] == empty


def test_multiplier_pairs_fellow_travel_in_differences(ab_alphabet, z2_structure):
    """Every accepted multiplier pair has all prefix differences in the set."""
    A = ab_alphabet
    s = z2_structure
    d = s.diff_machine
    for y in range(A.size):
        mult = s.multipliers[y]
        for u in fsa.enumerate_words(s.word_acceptor, 4):
            v = pairfsa.partners(mult, u)
            assert slice_route_partners(mult, u) == [v]
            ok, state = run_pair(d, u, v)
            assert ok
            assert d.words[state] == d.reducer.reduce(bytes((y,)))


# -- elementary checks ------------------------------------------------------


def test_elementary_checks_pass_on_verified(z2_structure, free_structure):
    for s in (z2_structure, free_structure):
        assert elementary_checks(s).ok


def test_inverse_tests_that_pass_build_no_composite(b3_structure, monkeypatch):
    """A passing inverse test is one inclusion walk: with the projections
    passed, compose(M_y, M_{y^-1}) within the diagonal is equal to it."""
    built = []
    real = pairfsa.compose

    def compose(p, q, state_cap):
        built.append(1)
        return real(p, q, state_cap)

    monkeypatch.setattr(pairfsa, "compose", compose)
    assert elementary_checks(b3_structure).ok
    assert built == []


def test_elementary_checks_fail_on_starved_completion(starved_b3_structure):
    """A premature pause leaves an inadequate difference set; the checks
    must fail and produce a witness."""
    report = elementary_checks(starved_b3_structure)
    assert not report.ok
    assert any(f.witness is not None for f in report.failures)
    assert {f.kind for f in report.failures} <= {"projection", "uniqueness", "inverse", "epsilon"}


def test_checks_agree_with_reference_route_on_starved_b3(starved_b3_structure):
    assert not reference_verdict(starved_b3_structure)
    assert not _checks_pass(starved_b3_structure)


def _with_multiplier(s, y, m):
    mults = dict(s.multipliers)
    mults[y] = m
    return AutomaticStructure(s.presentation, s.word_acceptor, mults, s.diff_machine, s.k)


def test_functionality_defect_beyond_short_words(ab_alphabet, z2_structure):
    """One extra pair (a^8, a^8 b) in M_a: every u of length <= 6 still
    has exactly one partner, but the whole-language inverse test finds
    it in both orders: M_a M_A gains (a^8, a^7 b), and M_A M_a gains
    (a^9, a^8 b), as a^9 M_A a^8 M_a a^8 b."""
    A = ab_alphabet
    s = z2_structure
    a = A.index("a")
    m_a = s.multipliers[a]
    pw = encode_pair(m_a.pairs, A.parse_word("a" * 8), A.parse_word("a" * 8 + "b"))
    rows = [[FAIL] * m_a.pairs.alphabet.size for _ in range(len(pw) + 1)]
    for i, sym in enumerate(pw):
        rows[i][sym] = i + 1
    one_pair = Dfa(m_a.pairs.alphabet, len(pw) + 1, 0, [len(pw)], rows)
    bad = PairDfa(A, fsa.boolean_op("or", m_a.dfa, one_pair), m_a.pairs)
    for u in fsa.enumerate_words(s.word_acceptor, 6):
        assert slice_route_partners(bad, u) == [pairfsa.partners(bad, u)]
    # two partners, a^9 and a^8 b, for a^8
    assert pairfsa.partners(bad, A.parse_word("a" * 8)) is None
    report = elementary_checks(_with_multiplier(s, a, bad))
    a8, a9 = A.parse_word("a" * 8), A.parse_word("a" * 9)
    assert report.failures == [
        CheckFailure("inverse", a, a8, (a8, A.parse_word("a" * 7 + "b"))),
        CheckFailure("inverse", A.index("A"), a9, (a9, A.parse_word("a" * 8 + "b"))),
    ]


def test_uniqueness_defect_without_an_extra_pair(ab_alphabet, z2_structure):
    """M_eps holding only the diagonal pairs of length <= 1 has no pair
    off the diagonal; the failure's witness is the shortest missing
    (u, u)."""
    s = z2_structure
    pairs = s.multipliers[EPSILON_KEY].pairs
    width = pairs.alphabet.size
    short = Dfa(pairs.alphabet, 2, 0, [0, 1], [[1] * width, [FAIL] * width])
    diag = diagonal(s.word_acceptor).dfa
    m_eps = PairDfa(ab_alphabet, fsa.boolean_op("and", diag, short), pairs)
    report = elementary_checks(_with_multiplier(s, EPSILON_KEY, m_eps))
    aa = ab_alphabet.parse_word("aa")
    assert report.failures == [CheckFailure("uniqueness", EPSILON_KEY, aa)]


def test_uniqueness_defect(ab_alphabet, z2_structure):
    """M_eps relating two different words fails the uniqueness test."""
    A = ab_alphabet
    s = z2_structure
    m_a = s.multipliers[A.index("a")]
    report = elementary_checks(_with_multiplier(s, EPSILON_KEY, m_a))
    assert [f.kind for f in report.failures] == ["uniqueness"]
    f = report.failures[0]
    v1, v2 = f.partners
    assert f.witness == v1 != v2
    assert accepts_pair(m_a, v1, v2)


def test_elementary_checks_respect_state_cap(z2_structure, starved_b3_structure):
    with pytest.raises(ResourceLimitError, match="subset construction"):
        elementary_checks(z2_structure, 3)
    # the starved B3 projections build at most 10 subsets, its
    # compositions up to 29
    with pytest.raises(ResourceLimitError, match="composition product"):
        elementary_checks(starved_b3_structure, 20)


def test_derive_abandons_on_resource_failure_in_checks(ab_alphabet, monkeypatch):
    real = autostruct.elementary_checks
    monkeypatch.setattr(autostruct, "elementary_checks", lambda s, state_cap: real(s, 6))
    out = derive_shortlex_structure(Presentation(ab_alphabet, [ab_alphabet.parse_word("abAB")]))
    assert out.status == "abandoned"
    assert out.resource_limited
    assert out.transcript.splitlines()[-1].startswith(
        "pass 1: elementary check resource failure: resource limit exceeded"
    )


# -- axiom checking -----------------------------------------------------------


def test_axiom_check_passes(z2_structure, s3_structure):
    assert axiom_check(z2_structure).ok
    assert axiom_check(s3_structure).ok


def test_axiom_check_detects_corruption(ab_alphabet, z2_structure):
    """Flipping one accept state of a multiplier must fail the checks."""
    A = ab_alphabet
    s = z2_structure
    y = A.index("a")
    m = s.multipliers[y].dfa
    flipped_set = set(m.accepting)
    target = next(iter(fsa.live_states(m)))
    flipped_set.symmetric_difference_update({target})
    corrupted = PairDfa(A, Dfa(m.alphabet, m.num_states, m.initial, flipped_set, m.transitions))
    mults = dict(s.multipliers)
    mults[y] = corrupted
    bad = AutomaticStructure(
        s.presentation, s.word_acceptor, mults, s.diff_machine, s.k
    )
    assert not _checks_pass(bad)


def _checks_pass(s):
    return elementary_checks(s).ok and axiom_check(s).ok


def _left_to_right_axioms_hold(s):
    """Reference: every inverse pair and every whole relator, composed
    left to right, against M_eps."""
    A = s.alphabet
    m_eps = s.multipliers[EPSILON_KEY]
    words = [bytes((y, A.inverse[y])) for y in range(A.size)] + list(s.presentation.relators)
    for w in words:
        acc = s.multipliers[w[0]]
        for c in w[1:]:
            acc = pairfsa.compose(acc, s.multipliers[c])
        if acc != m_eps:
            return False
    return True


@pytest.mark.parametrize(
    "fixture_name,radius",
    [("free_structure", 4), ("s3_structure", 6), ("z2_structure", 4), ("dinf_structure", 4)],
)
def test_halves_axiom_check_agrees_with_full_composition(request, fixture_name, radius):
    """The inverse test and the relator halves give the verdict of the
    checks made one by one, on every single-state acceptance flip of
    every multiplier."""
    s = request.getfixturevalue(fixture_name)
    checked = 0
    for key, mult in s.multipliers.items():
        m = mult.dfa
        for state in fsa.live_states(m):
            flipped = Dfa(
                m.alphabet, m.num_states, m.initial, m.accepting ^ {state}, m.transitions
            )
            bad = _with_multiplier(s, key, PairDfa(s.alphabet, flipped, mult.pairs))
            assert _checks_pass(bad) == reference_verdict(bad), (key, state)
            checked += 1
    assert checked > 0
    # the relator halves themselves: each short word that is freely reduced
    # or freely trivial, as the only relator
    verdicts = set()
    for w in words_up_to(s.alphabet.size, radius):
        if not w or s.alphabet.free_reduce(w) not in (w, b""):
            continue
        pres = Presentation(s.alphabet, [w])
        other = AutomaticStructure(pres, s.word_acceptor, s.multipliers, s.diff_machine, s.k)
        verdict = _checks_pass(other)
        assert verdict == _left_to_right_axioms_hold(other) == reference_verdict(other), w
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "relator,composed,ok",
    [("ababab", 2, True), ("ab" * 9, 8, True), ("ab" * 5, 4, False), ("ab" * 6, 5, True)],
)
def test_axiom_check_builds_composites_from_memoised_neighbours(
    s3_structure, monkeypatch, relator, composed, ok
):
    """With a and b involutions, the second half of (ab)^n starts with
    the inverse of a prefix of the first: it takes one composition from
    that prefix's swap, not one per letter.  For an odd n the first half
    itself is not built: its last composition is an inclusion walk from
    its prefix, so (ab)^n takes n - 1 compositions.  An even n needs no
    composition for the second half, since the whole half is the first's
    inverse, and compares the two structurally."""
    s = s3_structure
    pres = Presentation(s.alphabet, [s.alphabet.parse_word(relator)])
    other = AutomaticStructure(pres, s.word_acceptor, s.multipliers, s.diff_machine, s.k)
    built = []
    real = pairfsa.compose

    def compose(p, q, state_cap):
        built.append(real(p, q, state_cap))
        return built[-1]

    monkeypatch.setattr(pairfsa, "compose", compose)
    verdict = axiom_check(other).ok
    monkeypatch.undo()
    assert len(built) == composed
    assert verdict == ok == _left_to_right_axioms_hold(other) == reference_verdict(other)


def test_derivation_and_axiom_check_leave_no_cyclic_garbage(ab_alphabet, b3_structure):
    """Reference counting frees every memo of composites when its call
    returns, so derive's peak memory does not wait for a collection."""
    A = ab_alphabet
    gc.collect()
    gc.disable()
    try:
        assert axiom_check(b3_structure).ok
        assert gc.collect() == 0
        assert derive_shortlex_structure(Presentation(A, [A.parse_word("abaBAB")])).verified
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the driver ----------------------------------------------------------------


def test_derive_z2(z2_structure):
    assert z2_structure.verified
    assert z2_structure.k == 2


def test_derive_b3_within_default_limits(b3_structure):
    assert b3_structure.verified
    counts = count_words_by_length(b3_structure.word_acceptor, 8)
    assert counts == BurauB3Model().sphere_sizes(8, 4)


def test_derive_genus_two_surface_group():
    """Sphere sizes match Cannon's closed form
    (1+2x+2x^2+2x^3+x^4)/(1-6x-6x^2-6x^3+x^4)."""
    A = inverse_closed_alphabet(list("abcd"), {"a": "A", "b": "B", "c": "C", "d": "D"})
    start = time.perf_counter()
    out = derive_shortlex_structure(Presentation(A, [A.parse_word("abABcdCD")]))
    elapsed = time.perf_counter() - start
    assert out.verified, out.transcript
    assert out.structure.k == 4
    num = [1, 2, 2, 2, 1]
    den = [6, 6, 6, -1]  # s_n = num_n + 6 s_{n-1} + 6 s_{n-2} + 6 s_{n-3} - s_{n-4}
    spheres: list[int] = []
    for n in range(9):
        spheres.append(
            (num[n] if n < len(num) else 0)
            + sum(c * spheres[n - 1 - i] for i, c in enumerate(den) if n - 1 - i >= 0)
        )
    assert spheres[:6] == [1, 8, 56, 392, 2736, 19096]
    assert count_words_by_length(out.structure.word_acceptor, 8) == spheres
    assert elapsed < 60.0


def test_genus_two_retries_through_inverse_failures():
    """Pausing every 5 quiet pairs, pass 1 fails the inverse test; the
    fed-back equations lead to the default derivation's automata."""
    A = inverse_closed_alphabet(list("abcd"), {"a": "A", "b": "B", "c": "C", "d": "D"})
    pres = Presentation(A, [A.parse_word("abABcdCD")])
    out = derive_shortlex_structure(pres, Limits(stability_window=5, max_passes=20))
    assert out.verified, out.transcript
    failed = [line for line in out.transcript.splitlines() if "elementary=failed" in line]
    assert failed[0].startswith("pass 1: ") and "inverse(" in failed[0]
    default = derive_shortlex_structure(pres).structure
    assert out.structure.word_acceptor == default.word_acceptor
    assert out.structure.multipliers == default.multipliers


def test_derive_free_rank_one():
    A = inverse_closed_alphabet(["a"], {"a": "A"})
    out = derive_shortlex_structure(Presentation(A, []))
    assert out.verified
    assert out.structure.k == 1
    assert count_words_by_length(out.structure.word_acceptor, 4) == [1, 2, 2, 2, 2]


def test_derive_abandons_at_pass_limit(ab_alphabet):
    out = derive_shortlex_structure(
        Presentation(ab_alphabet, [ab_alphabet.parse_word("abaBAB")]),
        Limits(stability_window=1, max_passes=2),
    )
    assert out.status == "abandoned"
    assert "pass limit" in out.reason
    assert "elementary=failed" in out.transcript


def test_transcript_records_passes(z2_structure):
    t = z2_structure.transcript
    assert "kb status=" in t
    assert "diffs=" in t
    assert "elementary=ok" in t
    assert "axiom=ok" in t
    assert t.endswith("verified: k=2")


# -- structure-level invariants ---------------------------------------------


def _ball_counts(model, n_syms, radius):
    return model.sphere_sizes(radius, n_syms)


@pytest.mark.parametrize(
    "fixture_name,model,radius",
    [
        ("free_structure", FreeGroupModel(), 7),
        ("z2_structure", ZSquaredModel(), 8),
        ("s3_structure", s3_model(), 5),
    ],
)
def test_accepted_counts_equal_element_counts(request, fixture_name, model, radius):
    s = request.getfixturevalue(fixture_name)
    counts = count_words_by_length(s.word_acceptor, radius)
    n_syms = s.alphabet.size
    assert counts == model.sphere_sizes(radius, n_syms)


def test_unique_multiplier_partner_matches_reduction(
    ab_alphabet, z2_structure, s3_structure, free_structure, dinf_structure
):
    """For groups with complete systems: the unique partner under M_y is
    the reduction of u*y."""
    for s in (z2_structure, s3_structure, free_structure, dinf_structure):
        rs = s.reducer
        assert rs.confluent
        A = s.alphabet
        for u in fsa.enumerate_words(s.word_acceptor, 4):
            for y in range(A.size):
                v = pairfsa.partners(s.multipliers[y], u)
                assert v == slice_route_unique(s.multipliers[y], u)
                assert v == rs.reduce(u + bytes((y,)))
                assert rs.reduce(u + bytes((y,)) + A.invert(v)) == b""
