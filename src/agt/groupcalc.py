"""Consumer algorithms over verified automatic structures.

Normal forms are computed by folding the multiplier automata (one
functional partner lookup per letter), which makes the word problem,
order, growth and enumeration immediate.  A lookup is one forward pass
of :func:`agt.pairfsa.partners` that returns the unique partner and
builds no automaton.  Each letter of u is one move of M_y's first
tape, determinised as lookups reach it and cached with M_y; a partner
that ends before u is carried to u's end, where end counts are read.
So a lookup is linear in |u| for a fixed structure and a normal form
of w costs O(|w|^2) cached moves in the worst case.  Whole lookups are
also memoised per structure, keyed (y, u).

Cone types come from one BFS of the ball, which records the geodesic
edges as it multiplies, so the ball is walked once.

Conjugacy search follows the bounded-conjugator bound a^(|u|+|v|) with
a = |X^+-|^k: the answer is tri-state, since reaching the full bound is
astronomically expensive and anything short of it only proves "unknown".
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fsa, pairfsa
from .autostruct import AutomaticStructure
from .errors import IntegrityError, UsageError
from .fsa import Dfa, GrowthSeries
from .words import Word


def _require_verified(s: AutomaticStructure) -> None:
    if not s.verified:
        raise UsageError("structure is not verified")


def multiply(s: AutomaticStructure, u: Word, y: int) -> Word:
    """The unique v in L with u*y =_G v, for u already in normal form.

    M_y of a verified structure relates each accepted u to exactly one
    v; a lookup that finds none or several means the structure is
    corrupt, and raises IntegrityError.
    """
    key = (y, u)
    memo = s._partner_memo
    v = memo.get(key)
    if v is None:
        v = pairfsa.partners(s.multipliers[y], u)
        if v is None:
            raise IntegrityError(
                f"multiplier lookup for symbol {y} on {u!r} has no unique partner"
            )
        memo[key] = v
    return v


def normal_form(s: AutomaticStructure, w: Word) -> Word:
    """The unique accepted representative of the element of w.

    Folds the multipliers: starting from the empty word, each letter of
    w is applied through its multiplier's functional lookup.
    """
    _require_verified(s)
    s.alphabet.check_word(w)
    rep = b""
    for y in w:
        rep = multiply(s, rep, y)
    if not s.word_acceptor.accepts(rep):
        raise IntegrityError("normal form not accepted by the word acceptor")
    return rep


def word_problem(s: AutomaticStructure, u: Word, v: Word) -> bool:
    """True iff u and v represent the same group element."""
    return normal_form(s, u) == normal_form(s, v)


def group_order(s: AutomaticStructure) -> int | None:
    """Group order (None for infinite): unique representatives make this
    the count of accepted words, infinite exactly when the acceptor
    admits loops through live states."""
    _require_verified(s)
    return fsa.language_is_finite(s.word_acceptor)


def growth(s: AutomaticStructure, n_terms: int) -> GrowthSeries:
    """Growth series of the normal-form language (counts representatives
    by word length; shortlex representatives have geodesic length)."""
    _require_verified(s)
    return fsa.growth_series(s.word_acceptor, n_terms)


def enumerate_elements(s: AutomaticStructure, max_len: int) -> list[Word]:
    _require_verified(s)
    return fsa.enumerate_words(s.word_acceptor, max_len)


def element_ball(s: AutomaticStructure, radius: int) -> dict[Word, int]:
    """BFS of the Cayley graph: normal form -> word-length distance."""
    return _geodesic_ball(s, radius)[0]


def _geodesic_ball(
    s: AutomaticStructure, radius: int
) -> tuple[dict[Word, int], dict[Word, list[tuple[int, Word]]]]:
    """BFS of the Cayley graph to radius: each normal form's distance,
    and for each g nearer than radius its geodesic edges (y, h), those
    with dist[h] = dist[g] + 1, in ascending y."""
    _require_verified(s)
    dist = {b"": 0}
    steps = {}
    layer = [b""]
    for d in range(1, radius + 1):
        nxt = []
        for g in layer:
            out = steps[g] = []
            for y in range(s.alphabet.size):
                h = multiply(s, g, y)
                if h not in dist:
                    dist[h] = d
                    nxt.append(h)
                if dist[h] == d:
                    out.append((y, h))
        layer = nxt
    return dist, steps


@dataclass
class ConeTypeResult:
    """Radius-limited cone-type classification (the equivalence is only
    tested to the stated depth, so the output is approximate)."""

    automaton: Dfa
    count: int
    radius: int
    depth: int


def cone_types(s: AutomaticStructure, radius: int) -> ConeTypeResult:
    """Classify group elements by their outgoing geodesic trees.

    Elements within radius - depth of the identity (depth = radius // 2)
    are classified by their geodesic continuation trees cut at that
    depth, read from the ball's one BFS.  Level j gives every element
    within radius - j the id of its tree cut at depth j, from the leaves
    up and not by recursion, since depth may pass the recursion limit.
    Ids count first occurrences in shortlex order, so the last level's
    ids are the classes; each class's row is read from its first
    element's geodesic edges.
    """
    _require_verified(s)
    if radius < 4:
        raise UsageError("cone-type radius must be at least 4")
    depth = radius // 2
    dist, steps = _geodesic_ball(s, radius)
    tree = dict.fromkeys(sorted(dist, key=lambda w: (len(w), w)), -1)  # depth 0: one leaf
    for j in range(1, depth + 1):
        ids: dict[tuple, int] = {}
        tree = {
            g: ids.setdefault(tuple((y, tree[h]) for y, h in steps[g]), len(ids))
            for g in tree
            if dist[g] <= radius - j
        }
    rep: dict[int, Word] = {}
    for g, c in tree.items():
        rep.setdefault(c, g)
    rows = []
    for g in rep.values():
        row = [fsa.FAIL] * s.alphabet.size
        for y, h in steps[g]:
            if h in tree:  # h is classified
                row[y] = tree[h]
        rows.append(row)
    count = len(rows)
    dfa = Dfa(s.alphabet, count, tree[b""], range(count), rows)
    return ConeTypeResult(dfa, count, radius, depth)


@dataclass
class ConjugacyAnswer:
    status: str  # "conjugate" | "notConjugateWithin" | "unknown"
    witness: Word | None
    searched_bound: int


def conjugacy_bound(s: AutomaticStructure, u: Word, v: Word) -> int:
    """The conjugator length bound |X^+-|^(k(|u|+|v|)), exactly."""
    _require_verified(s)
    return s.alphabet.size ** (s.k * (len(u) + len(v)))


def conjugacy_search(
    s: AutomaticStructure, u: Word, v: Word, max_len: int
) -> ConjugacyAnswer:
    """Breadth-first search for a conjugator among normal forms.

    Returns the shortlex-least witness g with g^-1 u g =_G v; reports
    notConjugateWithin only when the search reached the full conjugator
    bound (a complete search, hence a proof), else unknown.
    """
    _require_verified(s)
    if max_len < 0:
        raise UsageError("max_len must be >= 0")
    A = s.alphabet
    target = normal_form(s, v)
    for g in fsa.enumerate_words(s.word_acceptor, max_len):
        if normal_form(s, A.invert(g) + u + g) == target:
            return ConjugacyAnswer("conjugate", g, max_len)
    if max_len >= conjugacy_bound(s, u, v):
        return ConjugacyAnswer("notConjugateWithin", None, max_len)
    return ConjugacyAnswer("unknown", None, max_len)
