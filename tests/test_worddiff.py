import random

import pytest

from agt.rewrite import Completion, Presentation, RewriteSystem, system_from_presentation
from agt.words import inverse_closed_alphabet
from agt.worddiff import accumulate_from_rules

from oracles import run_pair


@pytest.fixture(scope="module")
def ab():
    return inverse_closed_alphabet(["a", "b"], {"a": "A", "b": "B"})


@pytest.fixture(scope="module")
def z2_machine(ab):
    rs = system_from_presentation(Presentation(ab, [ab.parse_word("abAB")]))
    Completion(rs).run()
    return accumulate_from_rules(rs)


def test_initial_z2_states_include_rule_differences(ab):
    # before completion, the ba -> ab rule contributes b^-1 a and its inverse
    rs = system_from_presentation(Presentation(ab, [ab.parse_word("abAB")]))
    d = accumulate_from_rules(rs)
    words = {ab.format_word(w) for w in d.words}
    assert {"", "Ba", "Ab"} <= words
    s = d.step(0, ab.index("b"), ab.index("a"))
    assert d.words[s] == ab.parse_word("Ba")


def test_complete_z2_machine(ab, z2_machine):
    d = z2_machine
    words = {ab.format_word(w) for w in d.words}
    assert words == {"", "a", "A", "b", "B", "ab", "aB", "Ab", "AB"}
    assert d.max_difference_length() == 2
    # transition trace of the rule pair closes at the empty difference
    s = d.step(0, ab.index("b"), ab.index("a"))
    assert d.words[s] == ab.parse_word("aB")
    s2 = d.step(s, ab.index("a"), ab.index("b"))
    assert s2 == 0


def test_inverse_rule_differences(ab):
    rs = system_from_presentation(Presentation(ab, []))
    d = accumulate_from_rules(rs)
    assert {ab.format_word(w) for w in d.words} == {"", "a", "A", "b", "B"}


def test_empty_rule_set_single_state(ab):
    rs = RewriteSystem(ab)
    d = accumulate_from_rules(rs)
    assert d.words == (b"",)


def test_fellow_travel_examples(ab, z2_machine):
    ok, state = run_pair(z2_machine, ab.parse_word("ba"), ab.parse_word("ab"))
    assert ok and state == 0
    ok, state = run_pair(z2_machine, ab.parse_word("abab"), ab.parse_word("abab"))
    assert ok and state == 0
    # free group: ab and ba do not fellow travel within single letters
    rs = system_from_presentation(Presentation(ab, []))
    d = accumulate_from_rules(rs)
    ok, pos = run_pair(d, ab.parse_word("ab"), ab.parse_word("ba"))
    assert not ok and pos == 0


def test_inversion_symmetry_exhaustive(ab, z2_machine):
    d = z2_machine
    pa = d.pairs
    inverse_state = [d.state_of(d.reducer.reduce(ab.invert(w))) for w in d.words]
    for s in range(d.num_states):
        si = inverse_state[s]
        assert inverse_state[si] == s
        for k in range(pa.alphabet.size):
            a, b = pa.parts(k)
            t = d.table[s][k]
            mirrored = d.table[si][pa.index(b, a)]
            if t < 0:
                assert mirrored < 0
            else:
                assert mirrored == inverse_state[t]


def test_accepted_pairs_reduce_to_identity(ab, z2_machine):
    """Pairs accepted at the empty difference are equal in the group."""
    d = z2_machine
    rs = d.reducer
    rng = random.Random(41)
    pa = d.pairs
    found = 0
    for _ in range(4000):
        u = bytearray()
        v = bytearray()
        state = 0
        for _ in range(rng.randrange(1, 7)):
            choices = [
                k
                for k, t in enumerate(d.table[state])
                if t >= 0 and pa.parts(k)[0] != pa.pad and pa.parts(k)[1] != pa.pad
            ]
            if not choices:
                break
            k = rng.choice(choices)
            a, b = pa.parts(k)
            u.append(a)
            v.append(b)
            state = d.table[state][k]
        if state == 0 and u:
            found += 1
            assert rs.reduce(ab.invert(bytes(u)) + bytes(v)) == b""
    assert found > 50


def test_prefix_differences_bounded_by_k(ab, z2_machine):
    """Accepted prefixes stay within the realized fellow-traveller bound."""
    d = z2_machine
    k = d.max_difference_length()
    rng = random.Random(43)
    for _ in range(500):
        u = bytes(rng.randrange(ab.size) for _ in range(6))
        v = bytes(rng.randrange(ab.size) for _ in range(6))
        state = 0
        for i in range(6):
            state = d.step(state, u[i], v[i])
            if state < 0:
                break
            assert len(d.words[state]) <= k


def test_rebuild_after_completion_changes_machine(ab):
    rs = system_from_presentation(Presentation(ab, [ab.parse_word("abAB")]))
    before = accumulate_from_rules(rs)
    Completion(rs).run()
    after = accumulate_from_rules(rs)
    assert before.words != after.words
