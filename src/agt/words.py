"""Generator alphabets with formal inverses, words, and the shortlex order.

A word is a ``bytes`` object whose byte values index symbols of an
:class:`Alphabet`.  The position of a symbol in the alphabet *is* its
shortlex precedence, so comparing words of equal length is plain
lexicographic comparison of the bytes.  All hot loops therefore compare
small integers, and the empty word is ``b""``.

An alphabet carries an involution pairing each symbol with its inverse.
A symbol may be its own inverse (Coxeter generators), so an involutive
generator does not need a separate inverse symbol.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import UsageError

Word = bytes

EPSILON: Word = b""

MAX_SYMBOLS = 255  # words are bytes; index 255 reserved (rewrite joins words with it)


class Alphabet:
    """Ordered symbol set with an involutive inverse pairing.

    The given order of ``names`` is the total order used by shortlex;
    each name is nonempty text without whitespace.
    ``inverse`` lists, for each position, the position of the inverse
    symbol; it must be an involution.
    """

    __slots__ = ("names", "inverse", "_index", "_invert_table")

    def __init__(self, names: Sequence[str], inverse: Sequence[int]):
        names = tuple(names)
        inverse = tuple(inverse)
        if not names:
            raise UsageError("alphabet must have at least one symbol")
        if len(names) > MAX_SYMBOLS:
            raise UsageError(f"alphabet too large ({len(names)} > {MAX_SYMBOLS})")
        # parse_word splits on whitespace, so such a name could not be read back
        try:
            plain = " ".join(names).split() == list(names)
        except TypeError:  # a name that is not text
            plain = False
        if not plain:
            raise UsageError(
                f"symbol names must be nonempty text without whitespace: {list(names)!r}"
            )
        if len(set(names)) != len(names):
            raise UsageError("alphabet symbol names must be distinct")
        if len(inverse) != len(names):
            raise UsageError("inverse map length must match symbol count")
        for i, j in enumerate(inverse):
            if not 0 <= j < len(names):
                raise UsageError(f"inverse index {j} out of range")
            if inverse[j] != i:
                raise UsageError(
                    f"inverse map is not an involution at {names[i]!r}/{names[j]!r}"
                )
        self.names = names
        self.inverse = inverse
        self._index = {name: i for i, name in enumerate(names)}
        table = bytearray(range(256))
        for i, j in enumerate(inverse):
            table[i] = j
        self._invert_table = bytes(table)

    @property
    def size(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.names == other.names and self.inverse == other.inverse

    def __hash__(self) -> int:
        return hash((self.names, self.inverse))

    def __repr__(self) -> str:
        return f"Alphabet({list(self.names)!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UsageError(f"unknown symbol {name!r}") from None

    # -- word helpers -------------------------------------------------

    def word(self, names: Iterable[str]) -> Word:
        """Build a word from an iterable of symbol names."""
        return bytes(self.index(n) for n in names)

    def parse_word(self, text: str) -> Word:
        """Parse a word from text.

        Whitespace-separated names are accepted always; when every
        symbol name is a single character, an unseparated string like
        ``"abAB"`` works too.
        """
        if text.strip() == "":
            return EPSILON
        parts = text.split()
        if len(parts) > 1 or text in self._index:
            return self.word(parts)
        if all(len(n) == 1 for n in self.names):
            return self.word(text)
        return self.word(parts)

    def format_word(self, w: Word) -> str:
        """Render a word using symbol names, with no separator when every
        name is one character and a space otherwise; the empty word
        prints as an empty string."""
        self.check_word(w)
        sep = "" if all(len(n) == 1 for n in self.names) else " "
        return sep.join(self.names[c] for c in w)

    def check_word(self, w: Word) -> None:
        if not isinstance(w, bytes):
            raise UsageError(f"words must be bytes, got {type(w).__name__}")
        if w and max(w) >= len(self.names):
            raise UsageError("word contains symbols outside this alphabet")

    # -- the three core operations ------------------------------------

    def shortlex_less(self, u: Word, v: Word) -> bool:
        """True iff u precedes v in shortlex: shorter first, then first
        differing symbol by alphabet order."""
        self.check_word(u)
        self.check_word(v)
        return (len(u), u) < (len(v), v)

    def invert(self, w: Word) -> Word:
        """Formal inverse: reverse the word and invert each letter."""
        self.check_word(w)
        return w.translate(self._invert_table)[::-1]

    def free_reduce(self, w: Word) -> Word:
        """Delete adjacent inverse pairs until none remain (unique result)."""
        self.check_word(w)
        inv = self.inverse
        out = bytearray()
        for c in w:
            if out and inv[out[-1]] == c:
                out.pop()
            else:
                out.append(c)
        return bytes(out)


def inverse_closed_alphabet(
    generators: Sequence[str],
    inverse_names: dict[str, str] | None = None,
    involutions: Iterable[str] = (),
) -> Alphabet:
    """Alphabet for a generating set, writing each inverse next to its
    generator (``a < a^-1 < b < b^-1`` style).

    Every generator must either be listed in ``involutions`` (its own
    inverse) or have an entry in ``inverse_names``, not both, and both
    may name only generators.
    """
    inverse_names = dict(inverse_names or {})
    invol = list(involutions)
    known = set(generators)
    for g in invol:
        if g not in known:
            raise UsageError(f"involution {g!r} is not a generator")
    for g in inverse_names:
        if g not in known:
            raise UsageError(f"inverse name given for {g!r}, which is not a generator")
        if g in invol:
            raise UsageError(
                f"generator {g!r} is an involution and also has the inverse name"
                f" {inverse_names[g]!r}"
            )
    names: list[str] = []
    inv: list[int] = []
    for g in generators:
        if g in invol:
            names.append(g)
            inv.append(len(names) - 1)
        else:
            if g not in inverse_names:
                raise UsageError(
                    f"generator {g!r} needs an inverse name or an involution marker"
                )
            names.append(g)
            names.append(inverse_names[g])
            inv.extend((len(names) - 1, len(names) - 2))
    return Alphabet(names, inv)
