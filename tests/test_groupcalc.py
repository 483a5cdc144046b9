import gc as pygc
import random
import sys

import pytest

from agt import formats, fsa, groupcalc as gc
from agt.autostruct import derive_shortlex_structure
from agt.errors import UsageError
from agt.rewrite import Presentation
from agt.words import inverse_closed_alphabet

from oracles import ZSquaredModel, cyclic_conjugacy_oracle


@pytest.fixture(scope="module")
def trivial_structure():
    A = inverse_closed_alphabet(["a"], {"a": "A"})
    out = derive_shortlex_structure(Presentation(A, [A.parse_word("a")]))
    assert out.verified
    return out.structure


def test_normal_form_examples(ab_alphabet, z2_structure, free_structure):
    A = ab_alphabet
    assert gc.normal_form(z2_structure, A.parse_word("ba")) == A.parse_word("ab")
    assert gc.normal_form(z2_structure, b"") == b""
    assert gc.normal_form(free_structure, A.parse_word("aAb")) == A.parse_word("b")


def test_normal_form_properties(ab_alphabet, z2_structure):
    A = ab_alphabet
    rng = random.Random(3)
    for _ in range(100):
        w = bytes(rng.randrange(A.size) for _ in range(rng.randrange(9)))
        v = bytes(rng.randrange(A.size) for _ in range(rng.randrange(4)))
        nf = gc.normal_form(z2_structure, w)
        assert gc.normal_form(z2_structure, nf) == nf
        assert z2_structure.word_acceptor.accepts(nf)
        assert gc.normal_form(z2_structure, w + v) == gc.normal_form(
            z2_structure, nf + v
        )


def test_normal_form_requires_verified(ab_alphabet, z2_structure):
    from agt.autostruct import AutomaticStructure

    s = z2_structure
    unverified = AutomaticStructure(
        s.presentation, s.word_acceptor, s.multipliers, s.diff_machine, s.k
    )
    with pytest.raises(UsageError):
        gc.normal_form(unverified, b"")


def test_word_problem(ab_alphabet, z2_structure, free_structure):
    A = ab_alphabet
    assert gc.word_problem(z2_structure, A.parse_word("ab"), A.parse_word("ba"))
    assert not gc.word_problem(free_structure, A.parse_word("a"), A.parse_word("b"))
    w = A.parse_word("abAB")
    assert gc.word_problem(free_structure, w, w)


def test_group_order(s3_structure, z2_structure, trivial_structure):
    assert gc.group_order(s3_structure) == 6
    assert gc.group_order(z2_structure) is None
    assert gc.group_order(trivial_structure) == 1


def test_growth(z2_structure, free_structure, trivial_structure):
    gz = gc.growth(z2_structure, 5)
    assert gz.coefficients == (1, 4, 8, 12, 16)
    assert (gz.numerator, gz.denominator) == ((1, 2, 1), (1, -2, 1))
    gf = gc.growth(free_structure, 4)
    assert (gf.numerator, gf.denominator) == ((1, 1), (1, -3))
    gt = gc.growth(trivial_structure, 3)
    assert (gt.numerator, gt.denominator) == ((1,), (1,))


def test_growth_equals_bfs_sphere_sizes(z2_structure):
    counts = gc.growth(z2_structure, 11).coefficients
    assert list(counts) == ZSquaredModel().sphere_sizes(10, 4)


def test_enumerate_elements(s3_structure):
    words = gc.enumerate_elements(s3_structure, 3)
    fmt = s3_structure.alphabet.format_word
    assert [fmt(w) for w in words] == ["", "a", "b", "ab", "ba", "aba"]


def test_cone_types_z2_stable(z2_structure):
    for r in (6, 8, 10):
        result = gc.cone_types(z2_structure, r)
        assert result.count == 9
        assert result.radius == r


def test_cone_types_f2(free_structure):
    assert gc.cone_types(free_structure, 8).count == 5


def test_cone_types_trivial(trivial_structure):
    assert gc.cone_types(trivial_structure, 4).count == 1


def test_cone_types_deeper_than_the_recursion_limit():
    A = inverse_closed_alphabet(["a"], {"a": "A"})
    out = derive_shortlex_structure(Presentation(A, []))
    assert out.verified
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        result = gc.cone_types(out.structure, 500)
    finally:
        sys.setrecursionlimit(limit)
    # Z's cone types: the identity's and those of the two directions
    assert (result.count, result.depth) == (3, 250)


@pytest.mark.parametrize("fixture", ["b3_structure", "dinf_structure", "z2_structure"])
def test_cone_types_multiplies_each_inner_element_once_per_letter(fixture, request, monkeypatch):
    """The ball's BFS is the only walk: each g with dist(g) < radius is
    multiplied once by each letter, and nothing else is."""
    s = request.getfixturevalue(fixture)
    inner = sum(d < 8 for d in gc.element_ball(s, 8).values())
    calls = 0
    real = gc.multiply

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(gc, "multiply", counting)
    gc.cone_types(s, 8)
    assert calls == s.alphabet.size * inner


def test_cone_types_rejects_small_radius(z2_structure):
    with pytest.raises(UsageError):
        gc.cone_types(z2_structure, 3)


def test_cone_type_automaton_accepts_geodesics(z2_structure):
    result = gc.cone_types(z2_structure, 8)
    m = result.automaton
    A = z2_structure.alphabet
    model = ZSquaredModel()
    # within the classified radius the quotient automaton tracks geodesics
    for w in fsa.enumerate_words(m, 3):
        x, y = model.element_of(w)
        assert abs(x) + abs(y) == len(w)


def test_conjugacy_bound(free_structure, z2_structure, ab_alphabet):
    A = ab_alphabet
    assert gc.conjugacy_bound(free_structure, A.parse_word("a"), A.parse_word("b")) == 16
    # k = 2 structure: |X^pm|^(k(|u|+|v|)) = 4^6
    assert (
        gc.conjugacy_bound(z2_structure, A.parse_word("ab"), A.parse_word("a")) == 4096
    )
    assert gc.conjugacy_bound(free_structure, b"", b"") == 1


def test_conjugacy_search_witness(ab_alphabet, free_structure):
    A = ab_alphabet
    ans = gc.conjugacy_search(
        free_structure, A.parse_word("ab"), A.parse_word("ba"), 6
    )
    assert ans.status == "conjugate"
    assert ans.witness == A.parse_word("a")
    assert gc.word_problem(
        free_structure,
        A.invert(ans.witness) + A.parse_word("ab") + ans.witness,
        A.parse_word("ba"),
    )


def test_conjugacy_search_identity_witness(ab_alphabet, free_structure):
    A = ab_alphabet
    w = A.parse_word("ab")
    ans = gc.conjugacy_search(free_structure, w, w, 3)
    assert ans.status == "conjugate" and ans.witness == b""


def test_conjugacy_search_unknown_with_oracle(ab_alphabet, free_structure):
    A = ab_alphabet
    ans = gc.conjugacy_search(free_structure, A.parse_word("a"), A.parse_word("b"), 6)
    assert ans.status == "unknown"
    assert ans.searched_bound == 6
    # independent cyclic-reduction oracle says they are truly not conjugate
    assert not cyclic_conjugacy_oracle(
        tuple(A.parse_word("a")), tuple(A.parse_word("b"))
    )


def test_conjugacy_oracle_agrees_on_free_group(ab_alphabet, free_structure):
    A = ab_alphabet
    rng = random.Random(8)
    for _ in range(30):
        u = bytes(rng.randrange(4) for _ in range(rng.randrange(1, 4)))
        v = bytes(rng.randrange(4) for _ in range(rng.randrange(1, 4)))
        ans = gc.conjugacy_search(free_structure, u, v, 4)
        oracle = cyclic_conjugacy_oracle(tuple(u), tuple(v))
        if ans.status == "conjugate":
            assert oracle
        elif not oracle:
            assert ans.status in ("unknown", "notConjugateWithin")


def test_conjugacy_complete_search_proves_non_conjugacy(trivial_structure):
    # trivial group: bound is 1, so a short search is complete
    a = trivial_structure.alphabet.parse_word("a")
    ans = gc.conjugacy_search(trivial_structure, a, b"", 1)
    assert ans.status == "conjugate" and ans.witness == b""


def test_element_ball_matches_oracle(z2_structure):
    dist = gc.element_ball(z2_structure, 5)
    model = ZSquaredModel()
    expected = sum(model.sphere_sizes(5, 4))
    assert len(dist) == expected


def test_multiply_integrity_error_on_corrupt_structure(ab_alphabet, z2_structure):
    from agt.autostruct import AutomaticStructure
    from agt.errors import IntegrityError
    from agt.fsa import Dfa
    from agt.pairfsa import PairDfa

    s = z2_structure
    # empty out one multiplier: the functional lookup then has no partner
    y = ab_alphabet.index("a")
    m = s.multipliers[y].dfa
    gutted = PairDfa(
        ab_alphabet, Dfa(m.alphabet, m.num_states, m.initial, (), m.transitions)
    )
    mults = dict(s.multipliers)
    mults[y] = gutted
    bad = AutomaticStructure(
        s.presentation, s.word_acceptor, mults, s.diff_machine, s.k, verified=True
    )
    with pytest.raises(IntegrityError):
        gc.normal_form(bad, ab_alphabet.parse_word("a"))


def test_normal_form_on_a_loaded_structure_leaves_no_cyclic_garbage(b3_structure, tmp_path):
    # each multiplier keeps its lookup index; dropping the structure
    # must free both by reference counting alone
    formats.save_structure(b3_structure, tmp_path / "b3")
    s = formats.load_structure(tmp_path / "b3")
    rng = random.Random(7)
    w = bytes(rng.randrange(s.alphabet.size) for _ in range(100))
    pygc.collect()
    pygc.disable()
    try:
        nf = gc.normal_form(s, w)
        assert all(s.multipliers[y]._lookup is not None for y in w)
        del s
        assert pygc.collect() == 0
    finally:
        pygc.enable()
    assert gc.normal_form(b3_structure, w) == nf
