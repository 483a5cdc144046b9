import itertools

import pytest
from hypothesis import given, strategies as st

from agt.errors import UsageError
from agt.words import Alphabet, inverse_closed_alphabet


def words_up_to(n_syms, max_len):
    for length in range(max_len + 1):
        yield from (bytes(t) for t in itertools.product(range(n_syms), repeat=length))


def test_alphabet_validation():
    with pytest.raises(UsageError):
        Alphabet(["a", "a"], [0, 1])
    with pytest.raises(UsageError):
        Alphabet(["a", "b"], [1, 0, 0])
    with pytest.raises(UsageError):
        Alphabet(["a", "b"], [0, 0])  # not an involution
    for names in (["a", ""], ["a b", "c"], ["a\tb"], [" a"], ["a\n"], [1]):
        with pytest.raises(UsageError):  # empty, with whitespace, not text
            Alphabet(names, range(len(names)))


def test_inverse_closed_layout(ab_alphabet):
    assert ab_alphabet.names == ("a", "A", "b", "B")
    assert ab_alphabet.inverse == (1, 0, 3, 2)
    cox = inverse_closed_alphabet(["a", "b"], involutions=["a", "b"])
    assert cox.names == ("a", "b") and cox.inverse == (0, 1)


def test_shortlex_examples(ab_alphabet):
    A = ab_alphabet
    assert A.shortlex_less(A.parse_word("ab"), A.parse_word("ba"))
    assert not A.shortlex_less(A.parse_word("a"), A.parse_word("a"))
    assert A.shortlex_less(A.parse_word("ba"), A.parse_word("aab"))


def test_shortlex_strict_total_order_exhaustive(coxeter_ab_alphabet):
    A = coxeter_ab_alphabet
    all_words = list(words_up_to(A.size, 6))
    for u in all_words:
        for v in all_words:
            relations = (A.shortlex_less(u, v), A.shortlex_less(v, u), u == v)
            assert sum(relations) == 1


def test_invert_examples(ab_alphabet):
    A = ab_alphabet
    assert A.invert(A.parse_word("ab")) == A.parse_word("BA")
    assert A.invert(b"") == b""
    cox = inverse_closed_alphabet(["a"], involutions=["a"])
    assert cox.invert(cox.parse_word("aa")) == cox.parse_word("aa")


def test_free_reduce_examples(ab_alphabet):
    A = ab_alphabet
    assert A.free_reduce(A.parse_word("aAb")) == A.parse_word("b")
    assert A.free_reduce(A.parse_word("ab")) == A.parse_word("ab")
    assert A.free_reduce(A.parse_word("abBA")) == b""


def test_self_inverse_square_reduces():
    cox = inverse_closed_alphabet(["a"], involutions=["a"])
    assert cox.free_reduce(cox.parse_word("aa")) == b""


random_words = st.binary(max_size=30).map(
    lambda b: bytes(c % 4 for c in b)
)


@given(random_words)
def test_free_reduce_idempotent(w):
    A = inverse_closed_alphabet(["a", "b"], {"a": "A", "b": "B"})
    once = A.free_reduce(w)
    assert A.free_reduce(once) == once


@given(random_words)
def test_invert_is_involution(w):
    A = inverse_closed_alphabet(["a", "b"], {"a": "A", "b": "B"})
    assert A.invert(A.invert(w)) == w


@given(random_words)
def test_word_times_inverse_cancels(w):
    A = inverse_closed_alphabet(["a", "b"], {"a": "A", "b": "B"})
    assert A.free_reduce(w + A.invert(w)) == b""


def test_parse_and_format_roundtrip(ab_alphabet):
    A = ab_alphabet
    for text in ("", "a", "abAB", "BAba"):
        assert A.format_word(A.parse_word(text)) == text
    assert A.parse_word("a b A") == A.word(["a", "b", "A"])
    with pytest.raises(UsageError):
        A.parse_word("c")


def test_check_word_rejects_foreign_bytes(ab_alphabet):
    with pytest.raises(UsageError):
        ab_alphabet.check_word(bytes([7]))
    with pytest.raises(UsageError):
        ab_alphabet.shortlex_less(bytes([7]), b"")
