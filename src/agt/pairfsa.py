"""Two-variable automata over the padded pair alphabet.

A pair word encodes two words (u, v) letter by letter; when the lengths
differ, the shorter word is padded with the $ symbol at its end, so a
pair word has length max(|u|, |v|) and never contains ($, $).  Pair
automata are ordinary Dfas over the derived pair alphabet, wrapped with
their base alphabet; they are stored deterministic and minimized at API
boundaries.

Every pair automaton built here accepts only correctly padded strings:
once a side reads $ it reads nothing else.  Being minimal, such an
automaton has no move that leaves its language, so after a side's first
$ every move reads $ on that side.  :func:`compose` and
:func:`composite_within` need this of their first two inputs,
:func:`projects_onto` of its first, and the automata :func:`compose`
returns have it too.  The first projection is tested, and a failure's
witness found, by the walk of :func:`projects_onto`, which builds none.
"""

from __future__ import annotations

from . import fsa
from .errors import UsageError
from .fsa import FAIL, DEFAULT_STATE_CAP, Dfa
from .words import Alphabet, Word

PAD_NAME = "$"


class PairAlphabet:
    """Derived alphabet of pairs (a, b), a, b in base + {$}, minus ($, $).

    Symbols are ordered row-major by component indices with $ last in
    each component, matching the serialized column order: with the pad
    component index ``pad = base.size``, the pair (i, j) is symbol
    ``i * (pad + 1) + j``, and ($, $), which would be last, is omitted.
    A base symbol named $ is refused: the pad's name would be taken twice.
    So is a base of more than 15 symbols, whose pairs would not fit in an
    alphabet.
    """

    __slots__ = ("base", "pad", "alphabet")

    def __init__(self, base: Alphabet):
        if base.size > 15:  # (15 + 1) ** 2 - 1 = 255 pair symbols, the most an Alphabet holds
            raise UsageError(f"{base.size} symbols are too many for pair automata (at most 15)")
        if PAD_NAME in base.names:
            raise UsageError(f"{PAD_NAME!r} is the padding symbol and cannot name a base symbol")
        self.base = base
        self.pad = n = base.size
        names = (*base.names, PAD_NAME)
        inverse = (*base.inverse, n)
        width = n + 1
        pairs = [divmod(k, width) for k in range(width * width - 1)]
        self.alphabet = Alphabet(
            [f"({names[i]},{names[j]})" for i, j in pairs],
            [inverse[i] * width + inverse[j] for i, j in pairs],
        )

    def index(self, i: int, j: int) -> int:
        pad = self.pad
        if not (0 <= i <= pad and 0 <= j <= pad) or i == j == pad:
            raise UsageError(f"invalid pair symbol ({i},{j})")
        return i * (pad + 1) + j

    def parts(self, k: int) -> tuple[int, int]:
        if not 0 <= k < self.alphabet.size:
            raise UsageError("pair symbol index out of range")
        return divmod(k, self.pad + 1)


def encode_pair(pa: PairAlphabet, u: Word, v: Word) -> bytes:
    """Pad the shorter word with $ at its end and zip into pair symbols."""
    pa.base.check_word(u)
    pa.base.check_word(v)
    pad = pa.pad
    out = bytearray()
    for i in range(max(len(u), len(v))):
        a = u[i] if i < len(u) else pad
        b = v[i] if i < len(v) else pad
        out.append(pa.index(a, b))
    return bytes(out)


def decode_pair(pa: PairAlphabet, pw: bytes) -> tuple[Word, Word]:
    """Inverse of encode_pair; raises on padding-discipline violations."""
    u = bytearray()
    v = bytearray()
    u_done = v_done = False
    for k in pw:
        a, b = pa.parts(k)
        if a == pa.pad:
            u_done = True
        elif u_done:
            raise UsageError("left word resumes after padding")
        else:
            u.append(a)
        if b == pa.pad:
            v_done = True
        elif v_done:
            raise UsageError("right word resumes after padding")
        else:
            v.append(b)
    return bytes(u), bytes(v)


class PairDfa:
    """A Dfa over the pair alphabet of ``base``, accepting padded pairs."""

    __slots__ = ("base", "pairs", "dfa", "_by_first", "_lookup")

    def __init__(self, base: Alphabet, dfa: Dfa, pairs: PairAlphabet | None = None):
        self.base = base
        self.pairs = pairs if pairs is not None else PairAlphabet(base)
        if dfa.alphabet != self.pairs.alphabet:
            raise UsageError("automaton alphabet is not the pair alphabet of base")
        self.dfa = dfa
        self._by_first: list[dict[int, list[tuple[int, int]]]] | None = None
        self._lookup: _LookupIndex | None = None  # built by partners on first use

    @property
    def by_first(self) -> list[dict[int, list[tuple[int, int]]]]:
        """Sparse view of the table: state -> {a: [(b, target), ...]}.

        Keys a and, within each list, second letters b ascend, the pad
        index last.  Built on first use and kept with the automaton
        (which is immutable), so it lives and dies with it.
        """
        view = self._by_first
        if view is None:
            width = self.pairs.pad + 1
            view = []
            for row in self.dfa.transitions:
                d: dict[int, list[tuple[int, int]]] = {}
                for k, t in enumerate(row):
                    if t != FAIL:
                        a, b = divmod(k, width)
                        d.setdefault(a, []).append((b, t))
                view.append(d)
            self._by_first = view
        return view

    def is_empty(self) -> bool:
        return fsa.shortest_accepted(self.dfa) is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairDfa):
            return NotImplemented
        return self.base == other.base and self.dfa == other.dfa

    def __hash__(self) -> int:
        return hash((self.base, self.dfa))

    def __repr__(self) -> str:
        return f"PairDfa(states={self.dfa.num_states}, base={list(self.base.names)!r})"


def diagonal(m: Dfa) -> PairDfa:
    """Identity relation on L(m): accepts exactly the pairs (w, w), w in L(m).

    ``m`` must be minimal, as word acceptors are: renaming each symbol c
    to (c, c) is one-to-one and keeps the symbol order, so the result
    needs only :func:`fsa.canonical`, not a minimisation.
    """
    pa = PairAlphabet(m.alphabet)
    rows = [[(pa.index(c, c), t) for c, t in enumerate(row) if t != FAIL] for row in m.transitions]
    return PairDfa(m.alphabet, fsa.canonical(pa.alphabet, m.initial, m.accepting, rows), pa)


def swap(p: PairDfa) -> PairDfa:
    """Coordinate swap: accepts (v, u) iff p accepts (u, v).

    ``p`` must be minimal, as every pair automaton built here is:
    permuting the symbols keeps it minimal, so the result needs only
    :func:`fsa.canonical`, not a second minimisation.
    """
    pa = p.pairs
    perm = [pa.index(*reversed(pa.parts(k))) for k in range(pa.alphabet.size)]
    rows = [
        sorted((perm[k], t) for k, t in enumerate(row) if t != FAIL) for row in p.dfa.transitions
    ]
    return PairDfa(p.base, fsa.canonical(pa.alphabet, p.dfa.initial, p.dfa.accepting, rows), pa)


def project_first(p: PairDfa, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """The language {u : some v with (u, v) accepted}.

    Second coordinates are erased; moves ($, b) become epsilon moves
    (v outlives u); :func:`fsa.determinize` returns the minimal result.
    """
    pad = p.pairs.pad
    view = p.by_first

    def expand(s: int, index: dict) -> list[tuple[int | None, int]]:
        return [(None if a == pad else a, index[t]) for a, bt in view[s].items() for _b, t in bt]

    return fsa.determinize(p.base, p.dfa.initial, expand, p.dfa.accepting.__contains__, state_cap)


def project_second(p: PairDfa, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    return project_first(swap(p), state_cap)


def projects_onto(
    p: PairDfa, m: Dfa, state_cap: int = DEFAULT_STATE_CAP
) -> tuple[bool, Word | None]:
    """Whether the first side of p's pairs is exactly L(m), and the
    shortlex-least word of L(m) outside it or None (L(m) may then still
    lie strictly inside it): the language test of :func:`project_first`
    against ``m`` and its witness, with no automaton built.

    One backward search over p's moves that read $ on the first side
    finds ``ends``, the states that can finish accepting once that side
    has ended.  One forward walk then numbers the pairs (m's state or
    FAIL, set of p states) that the words w over the base alphabet
    reach: the set holds the states p enters while its first side reads
    w, and a successor is kept while m moves or the set is not empty.  w
    is on the first side of an accepted pair iff its set meets ``ends``,
    and in L(m) iff m's state accepts; a word past the walk is in
    neither.  So the test holds iff every walked pair agrees.
    :func:`fsa.explore` numbers the pairs breadth-first, letters
    ascending, so in the shortlex order of the least words that reach
    them: the first pair where m accepts and the set misses ``ends`` is
    reached by the witness, which is read back along the first move
    into each pair, the one that numbered it.

    p must accept only correctly padded strings, as every pair automaton
    built here does: once the first side reads $ it reads only $, which
    ``ends`` covers.  m must be deterministic over p's base alphabet; it
    need not be minimal.  The walked pairs count under ``state_cap`` as
    subset construction states.
    """
    if p.base != m.alphabet:
        raise UsageError("projects_onto needs a common base alphabet")
    pad = p.pairs.pad
    view = p.by_first
    ends = fsa._live([[(pad, t) for _b, t in row.get(pad, ())] for row in view], p.dfa.accepting)[0]
    letters = range(pad)
    rows = (*m.transitions, (FAIL,) * pad)  # the FAIL sink's row last, where FAIL = -1 indexes it

    def expand(state: tuple[int, frozenset], index: dict) -> list[tuple[int, int]]:
        sm, subset = state
        row = rows[sm]
        out = []
        for c in letters:
            targets = frozenset([t for q in subset for _b, t in view[q].get(c, ())])
            if targets or row[c] != FAIL:
                out.append((c, index[row[c], targets]))
        return out

    start = (m.initial, frozenset((p.dfa.initial,)))
    order, moves = fsa.explore(start, expand, state_cap, "subset construction states")
    accepting = m.accepting
    missing = [i for i, (sm, sub) in enumerate(order) if sm in accepting and ends.isdisjoint(sub)]
    if not missing:
        return all(sm in accepting or ends.isdisjoint(sub) for sm, sub in order), None
    # each pair's first move in, the one that numbered it, kept as the last written
    parent = {t: (i, c) for i in reversed(range(len(moves))) for c, t in reversed(moves[i])}
    word, i = bytearray(), missing[0]
    while i:
        i, c = parent[i]
        word.append(c)
    return False, bytes(reversed(word))


def _closed(m: PairDfa) -> list[dict[int, list[tuple[int, int]]]]:
    """``m.by_first`` with one more state ``done = m.dfa.num_states``,
    entered on ($, $) from every accepting state and from itself, so a
    pair string that has ended is a state, not a mode."""
    pad = m.pairs.pad
    done = m.dfa.num_states
    view = [*m.by_first, {}]
    for s in (*m.dfa.accepting, done):
        view[s] = {**view[s], pad: [*view[s].get(pad, ()), (pad, done)]}
    return view


def compose(p: PairDfa, q: PairDfa, state_cap: int = DEFAULT_STATE_CAP) -> PairDfa:
    """Relation composition {(u, w) : some v, (u,v) in p and (v,w) in q}.

    p and q must be minimal and accept only correctly padded strings, as
    every pair automaton built here is.  Each is closed under ($, $) by
    :func:`_closed`.  The product over (p state, q state) reads an output
    symbol (a, c) while p reads (a, b) and q reads (b, c) for some middle
    letter b; when a and c are both $ the middle word outlives u and w,
    and the move is an epsilon move.  Its subsets are determinized.  A
    subset accepts when it holds (done, done), which the ($, $) epsilon
    move adds exactly to the subsets that hold a pair of accepting
    states.

    No pad phase is needed.  Every move of a minimal automaton leads to
    a live state, so a correctly padded p has only ($, b) moves once u
    has ended, and only ($, $) moves into ``done``: p's first tape keeps
    u's padding, q's second tape keeps w's, and p's second and q's first
    tape together keep the middle word's.  :func:`fsa.determinize` walks
    the at most (|p| + 1)(|q| + 1) reachable product states once, drops
    those that cannot reach (done, done), and returns the minimal
    composite; the cap bounds the product states walked and the subsets.
    A caller that only compares the composite with a known relation can
    ask :func:`composite_within` instead, which builds none of this.
    """
    if p.base != q.base:
        raise UsageError("compose needs a common base alphabet")
    pa = p.pairs
    pad = pa.pad
    width = pad + 1  # pair symbol (a, c) is a * width + c
    p_view, q_view = _closed(p), _closed(q)  # read by first letter a, resp. b
    both_done = (p.dfa.num_states, q.dfa.num_states)

    def expand(state: tuple[int, int], index: dict) -> list:
        sp, sq = state
        qd = q_view[sq]
        return [
            (None if a == c == pad else a * width + c, index[tp, tq])
            for a, pb in p_view[sp].items()
            for b, tp in pb
            for c, tq in qd.get(b, ())
        ]

    composite = fsa.determinize(
        pa.alphabet,
        (p.dfa.initial, q.dfa.initial),
        expand,
        both_done.__eq__,
        state_cap,
        "composition product states",
    )
    return PairDfa(p.base, composite, pa)


def composite_within(
    p: PairDfa, q: PairDfa, t: PairDfa, state_cap: int = DEFAULT_STATE_CAP
) -> bool:
    """Whether every pair that ``compose(p, q)`` accepts is accepted by t.

    One forward walk over triples (p state, q state, t state), with no
    subset construction and no minimisation.  p and q are read as in
    :func:`compose`, closed under ($, $) by :func:`_closed`; t reads each
    output symbol (a, c) by its table, and stays where it is on the
    epsilon move ($, $).  A t move to FAIL enters a sink: its row is one
    more row of FAILs, which ``FAIL = -1`` indexes as the last.  A walked
    triple whose first two parts are (done, done) carries a pair of the
    composite, read by t up to the state in its third part, and every
    pair of the composite reaches one; so the inclusion holds iff each
    of them has an accepting t part.

    t must be deterministic over the pair alphabet; it need not be
    minimal.  :func:`fsa.explore` numbers the at most (|p| + 1)(|q| + 1)
    (|t| + 1) triples under ``state_cap``, as composition product states.
    """
    if not p.base == q.base == t.base:
        raise UsageError("composite_within needs a common base alphabet")
    pad = p.pairs.pad
    width = pad + 1  # pair symbol (a, c) is a * width + c; ($, $) is the last column
    p_view, q_view = _closed(p), _closed(q)
    # t's rows with a ($, $) column that stays put, then the FAIL sink's row
    rows = [(*row, s) for s, row in enumerate(t.dfa.transitions)]
    rows.append((FAIL,) * (width * width))

    def expand(state: tuple[int, int, int], index: dict) -> list:
        sp, sq, st = state
        qd = q_view[sq]
        row = rows[st]
        return [
            index[tp, tq, row[a * width + c]]
            for a, pb in p_view[sp].items()
            for b, tp in pb
            for c, tq in qd.get(b, ())
        ]

    start = (p.dfa.initial, q.dfa.initial, t.dfa.initial)
    order, _ = fsa.explore(start, expand, state_cap, "composition product states")
    done_p, done_q = p.dfa.num_states, q.dfa.num_states
    accepting = t.dfa.accepting
    return all(st in accepting for sp, sq, st in order if sp == done_p and sq == done_q)


def slice_first(p: PairDfa, u: Word, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """Dfa over the base alphabet accepting {v : (u, v) in L(p)}.

    Deterministic by construction: states are (position in u, pair
    state); acceptance means the rest of u pads out to an accepting
    state.  Exact for any partner multiplicity, including none, where
    the unique-partner lookup :func:`partners` stops at two.
    """
    pa = p.pairs
    pad = pa.pad
    rows = p.dfa.transitions
    m = p.dfa.num_states
    nu = len(u)
    # pad_ok[i][s]: reading (u_i,$)...(u_{nu-1},$) from s ends accepting
    pad_ok = [[False] * m for _ in range(nu + 1)]
    for s in range(m):
        pad_ok[nu][s] = s in p.dfa.accepting
    for i in range(nu - 1, -1, -1):
        sym = pa.index(u[i], pad)
        for s in range(m):
            t = rows[s][sym]
            pad_ok[i][s] = t != FAIL and pad_ok[i + 1][t]

    def expand(state: tuple[int, int], index: dict) -> list[int]:
        i, s = state
        # v reads its next letter b against u_i, or against $ once u ended
        a, j = (u[i], i + 1) if i < nu else (pad, nu)
        row = []
        for b in range(p.base.size):
            t = rows[s][pa.index(a, b)]
            row.append(FAIL if t == FAIL else index[j, t])
        return row

    order, table = fsa.explore((0, p.dfa.initial), expand, state_cap, "slice states")
    accepting = [k for k, (i, s) in enumerate(order) if pad_ok[i][s]]
    return Dfa(p.base, len(order), 0, accepting, table)


def partners(p: PairDfa, u: Word) -> Word | None:
    """The unique v with (u, v) accepted; None when there is none or
    more than one.

    One forward pass over layers, building no automaton.  Layer i holds
    the correctly padded pair strings of length i whose first side is
    u_0..u_{i-1}, padded with $ once i passes |u|: each element is a
    state with a mark for whether v has ended (read $), and counts its
    paths, capped at 2.  A v that ends before u goes on reading (u_i, $)
    as an element of its own, so every partner is seen from the end of u
    on, in an accepting state.  The pass stops at an empty layer, at the
    second accepted path, or after 2|Q| positions past the end of u, |Q|
    being p's state count.  One accepted path is read back along back
    pointers.

    Every step is read from p's lookup index (:class:`_LookupIndex`),
    which computes a layer move or an end count the first time a lookup
    on p needs it and keeps it with p.  A step seen before is a dict
    read, so a lookup costs O(|u| + |Q|) of them plus the steps seen for
    the first time.

    Why 2|Q| positions suffice.  Call v's part past the end of u its
    overhang.  An overhang path that repeats a state has a loop, which
    pumps into infinitely many partners; so a unique partner's overhang
    repeats no state and is shorter than |Q|.  With several partners,
    either every overhang is loop-free, so all of them are shorter than
    |Q|, or cutting simple loops out of a looping one leaves an accepted
    overhang path with no loop that still passes the last loop's state.
    That path, and the same path with that simple loop put back, are two
    partners with overhangs shorter than |Q| and 2|Q|.

    Only correctly padded encodings of (u, v) are followed, as in
    :func:`slice_first`.
    """
    index = p._lookup
    if index is None:
        index = p._lookup = _LookupIndex(p)
    return index.partner(u)


class _LookupIndex:
    """A pair automaton's first tape, determinised as lookups reach it.

    A layer element is ``2 * s + ended`` for a state s, where ``ended``
    is 1 after a move that read $ on the second side; an ended element
    reads only (a, $).  A layer is the tuple of (element, path count
    capped at 2), elements ascending, numbered when first seen; layer 0
    is the initial state alone.  Two caches grow as lookups need them:

    - ``moves[layer * width + a]``, a the first letter (the pad index
      for $): the next layer, with each element reached by one path
      mapped to its back pointer (previous element, letter b, the pad
      index for $); ``()`` for an empty layer;
    - ``ends[layer]``: the layer's paths in accepting states, capped at
      2, and the last such element, which is the only one when there is
      one path.

    An entry is a function of its key and the automaton alone, so no
    answer depends on the lookups made before it: a back pointer is read
    only along a path of count 1, where it is the only one.  The index
    keeps the automaton's table but not the automaton, so the two make
    no reference cycle.
    """

    __slots__ = ("rows", "pad", "width", "accepting", "overhang", "layers", "layer_ids",
                 "moves", "ends")

    def __init__(self, p: PairDfa):
        self.rows = p.dfa.transitions
        self.pad = p.pairs.pad
        self.width = self.pad + 1
        self.accepting = p.dfa.accepting
        self.overhang = 2 * p.dfa.num_states
        start = ((2 * p.dfa.initial, 1),)
        self.layers = [start]
        self.layer_ids = {start: 0}
        self.moves: dict[int, tuple] = {}
        self.ends: dict[int, tuple[int, int]] = {}

    def partner(self, u: Word) -> Word | None:
        width = self.width
        pad = self.pad
        moves = self.moves
        ends = self.ends
        nu = len(u)
        backs = []
        found = 0
        end = (0, FAIL)
        lid = 0
        for i in range(nu + self.overhang):
            if i < nu:
                a = u[i]
            else:
                a = pad
                got = ends.get(lid)
                n, e = self._end(lid) if got is None else got
                if n:
                    found += n
                    if found > 1:
                        return None
                    end = (i, e)
            key = lid * width + a
            move = moves.get(key)
            if move is None:
                move = self._move(key)
            if not move:
                break  # before the end of u, found is 0: no partner
            lid, back = move
            backs.append(back)
        if not found:
            return None
        i, e = end
        v = bytearray()
        while i:
            i -= 1
            e, b = backs[i][e]
            if b != pad:
                v.append(b)
        v.reverse()
        return bytes(v)

    def _move(self, key: int) -> tuple[int, dict[int, tuple[int, int]]] | tuple[()]:
        lid, a = divmod(key, self.width)
        rows = self.rows
        pad = self.pad
        lo = a * self.width  # the pair symbol (a, b) is lo + b
        stop = pad + (a != pad)  # b may be $ only while u lasts: ($, $) is no symbol
        paths: dict[int, int] = {}
        back: dict[int, tuple[int, int]] = {}
        for e, n in self.layers[lid]:
            s, ended = divmod(e, 2)
            start = pad if ended else 0
            for b, t in enumerate(rows[s][lo + start:lo + stop], start):
                if t != FAIL:
                    t = 2 * t + (b == pad)
                    paths[t] = 2 if t in paths else n
                    back[t] = (e, b)
        move: tuple = ()
        if paths:
            layer = tuple(sorted(paths.items()))
            nid = self.layer_ids.setdefault(layer, len(self.layers))
            if nid == len(self.layers):
                self.layers.append(layer)
            move = (nid, {t: eb for t, eb in back.items() if paths[t] == 1})
        self.moves[key] = move
        return move

    def _end(self, lid: int) -> tuple[int, int]:
        accepting = self.accepting
        n = 0
        last = FAIL
        for e, c in self.layers[lid]:
            if e // 2 in accepting:
                n += c
                last = e
        got = self.ends[lid] = (min(n, 2), last)
        return got
