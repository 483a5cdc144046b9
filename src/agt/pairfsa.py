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
$ every move reads $ on that side.  :func:`compose` needs this of its
inputs, and the automata it returns have it too.
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
    each component, matching the serialized column order.  The pad
    component index is ``base.size``.
    """

    __slots__ = ("base", "pad", "alphabet", "_index")

    def __init__(self, base: Alphabet):
        self.base = base
        n = base.size
        self.pad = n
        names = []
        pairs = []
        for i in range(n + 1):
            for j in range(n + 1):
                if i == n and j == n:
                    continue
                left = base.names[i] if i < n else PAD_NAME
                right = base.names[j] if j < n else PAD_NAME
                names.append(f"({left},{right})")
                pairs.append((i, j))
        inv = []
        index = {p: k for k, p in enumerate(pairs)}
        for i, j in pairs:
            ii = base.inverse[i] if i < n else n
            jj = base.inverse[j] if j < n else n
            inv.append(index[(ii, jj)])
        self.alphabet = Alphabet(names, inv)
        self._index = index

    def index(self, i: int, j: int) -> int:
        try:
            return self._index[(i, j)]
        except KeyError:
            raise UsageError(f"invalid pair symbol ({i},{j})") from None

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

    __slots__ = ("base", "pairs", "dfa", "_by_first")

    def __init__(self, base: Alphabet, dfa: Dfa, pairs: PairAlphabet | None = None):
        self.base = base
        self.pairs = pairs if pairs is not None else PairAlphabet(base)
        if dfa.alphabet != self.pairs.alphabet:
            raise UsageError("automaton alphabet is not the pair alphabet of base")
        self.dfa = dfa
        self._by_first: list[dict[int, list[tuple[int, int]]]] | None = None

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
    """Identity relation on L(m): accepts exactly the pairs (w, w), w in L(m)."""
    pa = PairAlphabet(m.alphabet)
    k = m.alphabet.size
    rows = []
    for s in range(m.num_states):
        row = [FAIL] * pa.alphabet.size
        for c in range(k):
            t = m.transitions[s][c]
            if t != FAIL:
                row[pa.index(c, c)] = t
        rows.append(row)
    d = Dfa(pa.alphabet, m.num_states, m.initial, m.accepting, rows)
    return PairDfa(m.alphabet, fsa.minimize(d), pa)


def swap(p: PairDfa) -> PairDfa:
    """Coordinate swap: accepts (v, u) iff p accepts (u, v).

    ``p`` must be minimal, as every pair automaton built here is:
    permuting the symbols keeps it minimal, so the result needs only
    :func:`fsa.canonical`, not a second minimisation.
    """
    pa = p.pairs
    perm = [pa.index(*reversed(pa.parts(k))) for k in range(pa.alphabet.size)]
    rows = []
    for row in p.dfa.transitions:
        new_row = [FAIL] * len(row)
        for k, t in enumerate(row):
            new_row[perm[k]] = t
        rows.append(new_row)
    return PairDfa(p.base, fsa.canonical(pa.alphabet, p.dfa.initial, p.dfa.accepting, rows), pa)


def project_first(p: PairDfa, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """The language {u : some v with (u, v) accepted}.

    Second coordinates are erased; moves ($, b) become epsilon moves
    (v outlives u), then determinize and minimize.
    """
    pad = p.pairs.pad
    view = p.by_first

    def moves(s: int) -> list[tuple[int | None, int]]:
        return [(None if a == pad else a, t) for a, bt in view[s].items() for _b, t in bt]

    det = fsa.determinize(
        p.base, p.dfa.initial, moves, p.dfa.accepting.__contains__, state_cap
    )
    return fsa.minimize(det)


def project_second(p: PairDfa, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    return project_first(swap(p), state_cap)


def compose(p: PairDfa, q: PairDfa, state_cap: int = DEFAULT_STATE_CAP) -> PairDfa:
    """Relation composition {(u, w) : some v, (u,v) in p and (v,w) in q}.

    p and q must be minimal and accept only correctly padded strings, as
    every pair automaton built here is.  Each is closed under ($, $): one
    more state ``done``, entered on ($, $) from every accepting state and
    from itself, so a pair string that has ended is a state, not a mode.
    The product over (p state, q state) reads an output symbol (a, c)
    while p reads (a, b) and q reads (b, c) for some middle letter b;
    when a and c are both $ the middle word outlives u and w, and the
    move is an epsilon move.  Its subsets are determinized.  A subset
    accepts when it holds (done, done), which the ($, $) epsilon move
    adds exactly to the subsets that hold a pair of accepting states.

    No pad phase is needed.  Every move of a minimal automaton leads to
    a live state, so a correctly padded p has only ($, b) moves once u
    has ended, and only ($, $) moves into ``done``: p's first tape keeps
    u's padding, q's second tape keeps w's, and p's second and q's first
    tape together keep the middle word's.  The cap counts the states of
    the determinized product.
    """
    if p.base != q.base:
        raise UsageError("compose needs a common base alphabet")
    pa = p.pairs
    pad = pa.pad
    width = pad + 1  # pair symbol (a, c) is a * width + c

    def closed(m: PairDfa) -> list[dict[int, list[tuple[int, int]]]]:
        # m.by_first with the state done = m.dfa.num_states added
        done = m.dfa.num_states
        view = [*m.by_first, {}]
        for s in (*m.dfa.accepting, done):
            view[s] = {**view[s], pad: [*view[s].get(pad, ()), (pad, done)]}
        return view

    p_view, q_view = closed(p), closed(q)  # read by first letter a, resp. b
    both_done = (p.dfa.num_states, q.dfa.num_states)

    def moves(state: tuple[int, int]) -> list:
        sp, sq = state
        qd = q_view[sq]
        return [
            (None if a == c == pad else a * width + c, (tp, tq))
            for a, pb in p_view[sp].items()
            for b, tp in pb
            for c, tq in qd.get(b, ())
        ]

    det = fsa.determinize(
        pa.alphabet,
        (p.dfa.initial, q.dfa.initial),
        moves,
        both_done.__eq__,
        state_cap,
        "composition product states",
    )
    return PairDfa(p.base, fsa.minimize(det), pa)


def slice_first(p: PairDfa, u: Word, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """Dfa over the base alphabet accepting {v : (u, v) in L(p)}.

    Deterministic by construction: states are (position in u, pair
    state); acceptance means the rest of u pads out to an accepting
    state.  Exact for any partner multiplicity, including none.  Used
    where an automaton of partners is needed (the functionality
    witness); a plain lookup is :func:`partners`.
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


def _live_overhang(p: PairDfa, starts: set[int]) -> set[int] | None:
    """States reachable from ``starts`` by ($, b) moves that can still
    reach acceptance by such moves; None when a loop runs through them
    (then some pair (u, v) has infinitely many such v)."""
    pad = p.pairs.pad
    view = p.by_first
    seen = set(starts)
    stack = list(seen)
    back: dict[int, list[int]] = {}
    while stack:
        s = stack.pop()
        for _b, t in view[s].get(pad, ()):
            back.setdefault(t, []).append(s)
            if t not in seen:
                seen.add(t)
                stack.append(t)
    stack = [s for s in seen if s in p.dfa.accepting]
    live = set(stack)
    while stack:
        for s in back.get(stack.pop(), ()):
            if s not in live:
                live.add(s)
                stack.append(s)
    # a loop among live states survives peeling off those of in-degree 0
    indeg = dict.fromkeys(live, 0)
    for s in live:
        for _b, t in view[s].get(pad, ()):
            if t in indeg:
                indeg[t] += 1
    stack = [s for s, d in indeg.items() if d == 0]
    peeled = 0
    while stack:
        peeled += 1
        for _b, t in view[stack.pop()].get(pad, ()):
            if t in indeg:
                indeg[t] -= 1
                if indeg[t] == 0:
                    stack.append(t)
    return live if peeled == len(live) else None


def partners(p: PairDfa, u: Word) -> list[Word] | None:
    """Shortlex-sorted list of all v with (u, v) accepted; None when infinite.

    One layered pass over p's table, building no automaton:

    - forward: the states reached after each prefix u_0..u_{i-1} read
      against a letter-for-letter prefix of v;
    - overhang: the last layer closed under ($, b) moves (v outlives u);
    - backward: the live states at each position, those from which the
      rest of u padded with $ ends accepting (memoised per position and
      state) or which have a move (u_i, b) to a live state;
    - read-out: every live path, one per partner.  A loop among the
      live overhang states gives infinitely many partners.

    Only correctly padded encodings of (u, v) are followed, as in
    :func:`slice_first`.  Cost O(|u| * r * d), where r bounds the states
    reached at one position (at most p's state count) and d the moves per
    state and letter.
    """
    pad = p.pairs.pad
    rows = p.dfa.transitions
    accepting = p.dfa.accepting
    view = p.by_first
    nu = len(u)
    pad_cols = [a * (pad + 1) + pad for a in u]  # the pair symbols (u_i, $)
    pad_memo: list[dict[int, bool]] = [{} for _ in range(nu)]

    def pad_ok(i: int, s: int) -> bool:
        # reading (u_i,$)...(u_{nu-1},$) from s ends accepting
        chain = []
        while True:
            if i == nu:
                ok = s in accepting
                break
            ok = pad_memo[i].get(s)
            if ok is not None:
                break
            chain.append((i, s))
            s = rows[s][pad_cols[i]]
            i += 1
            if s == FAIL:
                ok = False
                break
        for j, t in chain:
            pad_memo[j][t] = ok
        return ok

    layers: list[set[int]] = [{p.dfa.initial}]
    for a in u:
        nxt = {t for s in layers[-1] for b, t in view[s].get(a, ()) if b != pad}
        if not nxt:
            break
        layers.append(nxt)
    last = len(layers) - 1

    live_end = _live_overhang(p, layers[nu]) if last == nu else set()
    if live_end is None:
        return None
    if last == nu:
        live = [layers[nu] & live_end]
    else:
        col = pad_cols[last]
        live = [{s for s in layers[last] if rows[s][col] != FAIL and pad_ok(last, s)}]
    # most states have no (u_i, $) move, so that is tested before pad_ok
    for i in range(last - 1, -1, -1):
        a = u[i]
        col = pad_cols[i]
        ahead = live[-1]
        here = set()
        for s in layers[i]:
            for b, t in view[s].get(a, ()):
                if b != pad and t in ahead:
                    here.add(s)
                    break
            else:
                if rows[s][col] != FAIL and pad_ok(i, s):
                    here.add(s)
        live.append(here)
    live.reverse()
    if not live[0]:
        return []

    # depth first along live nodes (i, s); v holds the path's second
    # letters, and each entry records v's length after its letter b
    out: list[Word] = []
    v = bytearray()
    todo: list[tuple[int, int, int, int]] = [(0, p.dfa.initial, 0, 0)]
    while todo:
        i, s, n, b = todo.pop()
        if n:
            del v[n - 1 :]
            v.append(b)
        if i < nu:
            if rows[s][pad_cols[i]] != FAIL and pad_ok(i, s):
                out.append(bytes(v))
            if i < last:
                ahead = live[i + 1]
                for b, t in view[s].get(u[i], ()):
                    if b != pad and t in ahead:
                        todo.append((i + 1, t, n + 1, b))
        else:
            if s in accepting:
                out.append(bytes(v))
            for b, t in view[s].get(pad, ()):
                if t in live_end:
                    todo.append((i, t, n + 1, b))
    out.sort(key=lambda w: (len(w), w))
    return out
