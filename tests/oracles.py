"""Independent group models and definitional checks used as test oracles.

Each model multiplies elements without touching the package's rewriting
or automata: integer vectors, permutations, affine maps, and the
reduced Burau representation.  Symbols are indexed to match the
alphabets built in conftest.

The root-system checks (inner products, reflections, signs, depth and
dominance of roots) take the package's ``FieldContext`` as ``ctx`` and
use only its field arithmetic and form; the padding checks read a pair
automaton's table, and the critical pairs and difference runs read a
rewrite system's rules and a difference machine's table, and the
rewriting references (leftmost, lowest-indexed reduction by rescanning
and the critical pairs of two rules, containment included, and the
rules a new left side touches) read rule lists.  The subset
table reads a machine's moves, and the finite-language size and the
counts by length read a table directly.  The power series and the
coprimality of two integer polynomials are long division and Euclid's
algorithm over ``Fraction``.  None of these shares code with the package.  The builders at the end make small
package objects the tests need, from the package's public constructors,
and the slice route answers a partner lookup through ``slice_first``
and the automaton counts, not the forward pass of ``partners``.  The
reference verdict makes the elementary and axiom checks as separate
tests, each with the package's automaton operations: functionality and
inverse pairs on their own rather than the one inverse test.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from agt import fsa, pairfsa
from agt.fsa import Dfa
from agt.pairfsa import encode_pair, slice_first


class GroupModel:
    """identity() and mult(element, symbol index); elements are hashable."""

    def identity(self):
        raise NotImplementedError

    def mult(self, el, sym: int):
        raise NotImplementedError

    def element_of(self, word: bytes):
        el = self.identity()
        for c in word:
            el = self.mult(el, c)
        return el

    def sphere_sizes(self, radius: int, n_syms: int) -> list[int]:
        seen = {self.identity()}
        layer = [self.identity()]
        sizes = [1]
        for _ in range(radius):
            nxt = []
            for el in layer:
                for c in range(n_syms):
                    x = self.mult(el, c)
                    if x not in seen:
                        seen.add(x)
                        nxt.append(x)
            sizes.append(len(nxt))
            layer = nxt
        return sizes


class FreeGroupModel(GroupModel):
    """Free group on two generators; symbols a, A, b, B = 0..3.

    Elements are reduced tuples; reduction is a direct stack cancel,
    independent of the package's word utilities.
    """

    INV = (1, 0, 3, 2)

    def identity(self):
        return ()

    def mult(self, el, sym):
        if el and self.INV[el[-1]] == sym:
            return el[:-1]
        return el + (sym,)


class ZSquaredModel(GroupModel):
    """Z^2 with a, A, b, B = 0..3 acting as +-(1,0), +-(0,1)."""

    STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))

    def identity(self):
        return (0, 0)

    def mult(self, el, sym):
        dx, dy = self.STEPS[sym]
        return (el[0] + dx, el[1] + dy)


class PermutationModel(GroupModel):
    """Permutation group generated by given permutations (tuples)."""

    def __init__(self, gens):
        self.gens = [tuple(g) for g in gens]
        self.n = len(self.gens[0])

    def identity(self):
        return tuple(range(self.n))

    def mult(self, el, sym):
        g = self.gens[sym]
        return tuple(g[el[i]] for i in range(self.n))


def s3_model() -> PermutationModel:
    # a = (0 1), b = (1 2): (ab) has order 3
    return PermutationModel([(1, 0, 2), (0, 2, 1)])


class SignedPermModel(GroupModel):
    """B2 = symmetries of the square: a swaps axes, b negates y."""

    def identity(self):
        return ((1, 0), (0, 1))

    def mult(self, el, sym):
        if sym == 0:
            g = ((0, 1), (1, 0))
        else:
            g = ((1, 0), (0, -1))
        # el . g as 2x2 integer matrices
        return tuple(
            tuple(sum(el[i][k] * g[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )


class DInfinityModel(GroupModel):
    """Infinite dihedral group as affine maps x -> s x + t on Z.

    a is reflection at 0 (s=-1, t=0), b reflection at 1 (s=-1, t=2).
    """

    GENS = ((-1, 0), (-1, 2))

    def identity(self):
        return (1, 0)

    def mult(self, el, sym):
        s, t = el
        gs, gt = self.GENS[sym]
        # (el . g)(x) = el(g(x))
        return (s * gs, s * gt + t)


class AffineA2Model(GroupModel):
    """Affine Coxeter group of rank 3 (all orders 3) as affine maps on Z^3.

    s1 swaps coordinates 1,2; s2 swaps 2,3; s0 maps (x,y,z) to
    (z-1, y, x+1).  Elements are (permutation, offset) pairs acting as
    x -> perm(x) + offset.
    """

    def identity(self):
        return ((0, 1, 2), (0, 0, 0))

    def _gen(self, sym):
        if sym == 0:  # s0
            return ((2, 1, 0), (-1, 0, 1))
        if sym == 1:  # s1
            return ((1, 0, 2), (0, 0, 0))
        return ((0, 2, 1), (0, 0, 0))

    def mult(self, el, sym):
        p, t = el
        q, u = self._gen(sym)
        # (el . g)(x) = el(g(x)) = p(q(x) + u) + t = (p.q)(x) + p(u) + t
        comp = tuple(q[p[i]] for i in range(3))
        off = tuple(u[p[i]] + t[i] for i in range(3))
        return (comp, off)


class BurauB3Model(GroupModel):
    """Reduced Burau representation of the braid group B3 (faithful).

    Entries are Laurent polynomials in t, stored as sorted tuples of
    (exponent, coefficient); symbols a, A, b, B = 0..3.
    """

    def __init__(self):
        z = ()
        one = ((0, 1),)
        t = ((1, 1),)
        mt = ((1, -1),)
        ti = ((-1, 1),)
        mti = ((-1, -1),)
        self.I = ((one, z), (z, one))
        self.gens = (
            ((mt, one), (z, one)),  # a
            ((mti, ti), (z, one)),  # a^-1
            ((one, z), (t, mt)),  # b
            ((one, z), (one, mti)),  # b^-1
        )
        for g, gi in ((self.gens[0], self.gens[1]), (self.gens[2], self.gens[3])):
            assert self._mmul(g, gi) == self.I

    @staticmethod
    def _ladd(p, q):
        d = dict(p)
        for e, c in q:
            d[e] = d.get(e, 0) + c
        return tuple(sorted((e, c) for e, c in d.items() if c))

    @staticmethod
    def _lmul(p, q):
        d = {}
        for e1, c1 in p:
            for e2, c2 in q:
                d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
        return tuple(sorted((e, c) for e, c in d.items() if c))

    def _mmul(self, m, n):
        return tuple(
            tuple(
                self._ladd(self._lmul(m[i][0], n[0][j]), self._lmul(m[i][1], n[1][j]))
                for j in range(2)
            )
            for i in range(2)
        )

    def identity(self):
        return self.I

    def mult(self, el, sym):
        return self._mmul(el, self.gens[sym])


def cyclic_conjugacy_oracle(u: tuple, v: tuple, inv=(1, 0, 3, 2)) -> bool:
    """Free-group conjugacy: cyclically reduce both words, compare rotations."""

    def reduce_free(w):
        out = []
        for c in w:
            if out and inv[out[-1]] == c:
                out.pop()
            else:
                out.append(c)
        return tuple(out)

    def cyc_reduce(w):
        w = reduce_free(w)
        while len(w) >= 2 and inv[w[0]] == w[-1]:
            w = w[1:-1]
        return w

    cu, cv = cyc_reduce(u), cyc_reduce(v)
    if len(cu) != len(cv):
        return False
    return any(cv == cu[i:] + cu[:i] for i in range(max(1, len(cu))))


# -- Coxeter root systems ------------------------------------------------------


def inner(ctx, u, v):
    """Twice the bilinear form, 2B(u, v), exact: ``ctx.form`` holds 2B."""
    F = ctx.field
    total = F.zero
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            if not F.is_zero(ui) and not F.is_zero(vj):
                total = F.add(total, F.mul(F.mul(ui, vj), ctx.form[i][j]))
    return total


def root_sign(ctx, v) -> int:
    """+1 for a positive root, -1 negative, 0 for zero; raises if the
    coordinates are not sign-coherent."""
    signs = {ctx.field.sign(c) for c in v}
    signs.discard(0)
    if not signs:
        return 0
    if len(signs) > 1:
        raise AssertionError("root coordinates are not sign-coherent")
    return signs.pop()


def reflect(ctx, i: int, v):
    """r_i(v) = v - 2B(v, e_i) e_i: the reference the action table of
    ``small_roots`` is tested against."""
    F = ctx.field
    out = list(v)
    out[i] = F.sub(out[i], inner(ctx, v, ctx.simple_roots[i]))
    return tuple(out)


def as_integer(F, a):
    """The integer that the ring element a is: a has no term in t."""
    assert not any(a[1:]), a
    return a[0]


def root_depth(ctx, beta) -> int:
    """dp(beta): the least length of a group element sending the
    positive root beta negative.  A non-simple positive root has some
    B(e_i, beta) > 0, and then dp(r_i(beta)) = dp(beta) - 1."""
    depth = 1
    while beta not in ctx.simple_roots:
        i = next(i for i, e in enumerate(ctx.simple_roots)
                 if ctx.field.sign(inner(ctx, e, beta)) > 0)
        beta = reflect(ctx, i, beta)
        depth += 1
    return depth


def dominates(ctx, alpha, beta) -> bool:
    """Positive root alpha dominates beta (alpha != beta) iff
    B(alpha, beta) >= 1, that is 2B >= 2, and dp(alpha) > dp(beta).  The
    inner product alone is symmetric; of two such roots only the deeper
    dominates."""
    if alpha == beta:
        raise ValueError("dominance is between distinct positive roots")
    if root_sign(ctx, alpha) <= 0 or root_sign(ctx, beta) <= 0:
        raise ValueError("dominance needs positive roots")
    F = ctx.field
    if F.sign(F.sub(inner(ctx, alpha, beta), F.from_int(2))) < 0:
        return False
    return root_depth(ctx, alpha) > root_depth(ctx, beta)


def dominance_semi_oracle(ctx, alpha, beta, depth: int) -> bool:
    """Definitional dominance check over all group elements up to the
    given word length: every w sending alpha negative must send beta
    negative.  A bounded search: True here is consistency, not proof."""
    frontier = [(alpha, beta)]
    seen = {(alpha, beta)}
    for _ in range(depth):
        nxt = []
        for wa, wb in frontier:
            for i in range(ctx.rank):
                pa = reflect(ctx, i, wa)
                pb = reflect(ctx, i, wb)
                if (pa, pb) in seen:
                    continue
                seen.add((pa, pb))
                if root_sign(ctx, pa) < 0 and root_sign(ctx, pb) > 0:
                    return False
                nxt.append((pa, pb))
        frontier = nxt
    return True


def positive_roots_by_depth(ctx, max_depth: int) -> list[list]:
    """Positive roots of depth 1..max_depth, one list per depth: depth
    d+1 holds r_i(beta) for beta of depth d and B(e_i, beta) < 0."""
    layers = [list(ctx.simple_roots)]
    seen = set(layers[0])
    for _ in range(max_depth - 1):
        nxt = []
        for beta in layers[-1]:
            for i, e in enumerate(ctx.simple_roots):
                if ctx.field.sign(inner(ctx, e, beta)) < 0:
                    child = reflect(ctx, i, beta)
                    if child not in seen:
                        seen.add(child)
                        nxt.append(child)
        layers.append(nxt)
    return layers


# -- rewriting and word differences ---------------------------------------------


def critical_pairs(rs) -> list[tuple[bytes, bytes]]:
    """The unresolved critical pairs of a rewrite system, each side fully
    reduced and the shortlex-smaller side first, in sorted order.

    For rules l1 -> r1 and l2 -> r2 (possibly the same rule), each proper
    overlap, where a suffix of l1 of length k is a prefix of l2, gives
    the word l1 l2[k:] with reducts (r1 l2[k:], l1[:-k] r2); each
    occurrence of a distinct l2 inside l1 gives the reducts of l1 by
    either rule.
    """
    rules = [(r.lhs, r.rhs) for r in rs.rules]
    out = set()
    for l1, r1 in rules:
        for l2, r2 in rules:
            eqs = [(r1 + l2[k:], l1[:-k] + r2)
                   for k in range(1, min(len(l1), len(l2))) if l1[-k:] == l2[:k]]
            if l2 != l1:
                eqs += [(r1, l1[:i] + r2 + l1[i + len(l2):])
                        for i in range(len(l1) - len(l2) + 1) if l1[i:i + len(l2)] == l2]
            for w1, w2 in eqs:
                a, b = sorted((rs.reduce(w1), rs.reduce(w2)), key=lambda w: (len(w), w))
                if a != b:
                    out.add((a, b))
    return sorted(out)


def leftmost_reduce(rules, word: bytes) -> bytes:
    """Reduce ``word`` by the rules ``(lhs, rhs)``, listed in index order,
    always rewriting at the leftmost position where a left side starts,
    by the lowest-indexed rule starting there.  After a rewrite at i the
    scan restarts at i - max|lhs| + 1, as no match can start earlier."""
    max_lhs = max((len(lhs) for lhs, _ in rules), default=1)
    buf = bytearray(word)
    i = 0
    while i < len(buf):
        for lhs, rhs in rules:
            if buf.startswith(lhs, i):
                buf[i : i + len(lhs)] = rhs
                i = max(i - max_lhs + 1, 0)
                break
        else:
            i += 1
    return bytes(buf)


def overlap_equations(r1, r2, same_rule: bool) -> list[tuple[bytes, bytes]]:
    """The critical-pair equations of the rules r1 = (l1, q1) and
    r2 = (l2, q2): each proper overlap, a suffix of l1 of length k equal
    to a prefix of l2 (k increasing), then, unless ``same_rule``, each
    occurrence of a shorter l2 inside l1 (left to right); each equation
    is the two one-step reducts of the superposition word."""
    out = []
    l1, q1 = r1
    l2, q2 = r2
    for k in range(1, min(len(l1), len(l2))):
        if l1[-k:] == l2[:k]:
            out.append((q1 + l2[k:], l1[:-k] + q2))
    if not same_rule and len(l2) < len(l1):
        start = l1.find(l2)
        while start >= 0:
            out.append((q1, l1[:start] + q2 + l1[start + len(l2) :]))
            start = l1.find(l2, start + 1)
    return out


def touched_rules(rules, lhs: bytes) -> tuple[list[int], list[int]]:
    """What adding a rule with left side ``lhs`` touches among the rules
    ``(j, (l, r))``, listed in index order, by a test of every rule: the
    indices whose left side contains lhs (retired), then those of the
    others whose right side contains it (reduced again)."""
    retired, stale = [], []
    for j, (l, r) in rules:
        if lhs in l:
            retired.append(j)
        elif lhs in r:
            stale.append(j)
    return retired, stale


def run_pair(machine, u: bytes, v: bytes) -> tuple[bool, int]:
    """Run the padded pair (u, v) through a word-difference machine:
    (True, final state), or (False, position) at the first undefined
    move."""
    pad = machine.pairs.pad
    state = 0
    for i in range(max(len(u), len(v))):
        a = u[i] if i < len(u) else pad
        b = v[i] if i < len(v) else pad
        state = machine.table[state][machine.pairs.index(a, b)]
        if state < 0:
            return False, i
    return True, state


# -- padding of pair automata ----------------------------------------------------

FAIL = -1  # the package's undefined transition


def _pad_mode(pairs, symbol: int) -> str:
    a, b = pairs.parts(symbol)
    if a == pairs.pad:
        return "leftPadded"
    if b == pairs.pad:
        return "rightPadded"
    return "noPad"


def _live_states(table, accepting) -> set[int]:
    """States from which an accepting state can be reached."""
    back: dict[int, list[int]] = {}
    for s, row in enumerate(table):
        for t in row:
            if t != FAIL:
                back.setdefault(t, []).append(s)
    live = set(accepting)
    stack = list(live)
    while stack:
        for s in back.get(stack.pop(), ()):
            if s not in live:
                live.add(s)
                stack.append(s)
    return live


def pad_modes(p) -> dict[int, set[str]]:
    """Pad phases under which each reachable state of the pair automaton
    ``p`` can be entered.

    Modes are "noPad", "leftPadded", "rightPadded"; a clean pair
    automaton assigns each live state a single mode.
    """
    d = p.dfa
    modes: dict[int, set[str]] = {d.initial: {"noPad"}}
    queue = deque([(d.initial, "noPad")])
    while queue:
        s, mode = queue.popleft()
        for k, t in enumerate(d.transitions[s]):
            if t == FAIL:
                continue
            nmode = _pad_mode(p.pairs, k)
            if nmode != mode and mode != "noPad":
                continue  # discipline-violating path; flagged by validate_padding
            cur = modes.setdefault(t, set())
            if nmode not in cur:
                cur.add(nmode)
                queue.append((t, nmode))
    return modes


def validate_padding(p) -> None:
    """Check that no accepted string of ``p`` violates the padding
    discipline: a transition that resumes a padded side must not be able
    to reach acceptance."""
    d = p.dfa
    live = _live_states(d.transitions, d.accepting)
    seen = {(d.initial, "noPad")}
    queue = deque(seen)
    while queue:
        s, mode = queue.popleft()
        for k, t in enumerate(d.transitions[s]):
            if t == FAIL:
                continue
            nmode = _pad_mode(p.pairs, k)
            if mode != "noPad" and nmode != mode:
                if t in live:
                    raise AssertionError(
                        f"padding discipline violated at state {s} on symbol {k}"
                    )
                continue
            if (t, nmode) not in seen:
                seen.add((t, nmode))
                queue.append((t, nmode))


# -- minimality of automata -------------------------------------------------------


def minimal_state_count(num_states, initial, accepting, rows) -> int:
    """State count of the minimal automaton of a partial DFA, FAIL states
    not counted, by Moore refinement.

    ``rows[s][c]`` is the target of state ``s`` on symbol ``c``, or FAIL.
    The states reachable from ``initial`` and one explicit dead state,
    the target of every FAIL, are split by acceptance and then by the
    classes of their successors until no class splits.  The dead class
    holds every state that cannot reach acceptance and is not counted;
    the empty language still counts one state.
    """
    reach = [initial]
    seen = {initial}
    for s in reach:
        for t in rows[s]:
            if t != FAIL and t not in seen:
                seen.add(t)
                reach.append(t)
    width = len(rows[initial])
    succ = {s: rows[s] for s in reach}
    succ[FAIL] = [FAIL] * width
    cls = {s: int(s in accepting) for s in succ}
    n_classes = len(set(cls.values()))
    while True:
        sig = {s: (cls[s], tuple(cls[t] for t in row)) for s, row in succ.items()}
        ids: dict = {}
        cls = {s: ids.setdefault(v, len(ids)) for s, v in sig.items()}
        if len(ids) == n_classes:
            break
        n_classes = len(ids)
    return max(1, n_classes - 1)


def subset_table(width: int, start, moves, accepting):
    """The subset construction of a machine given by moves, from the
    definition, as ``(num_states, initial, accepting, rows)`` for
    :func:`minimal_state_count`.

    ``moves(state)`` lists ``(symbol, target)`` moves, ``None`` being the
    symbol of an epsilon move and ``FAIL`` a target that kills the
    symbol.  Every subset reachable from ``start``, closed under epsilon
    moves, is a state, dead members included; a symbol that some member
    kills, or that no member reads, is FAIL.
    """

    def closure(states) -> frozenset:
        out = set(states)
        stack = list(out)
        while stack:
            for c, t in moves(stack.pop()):
                if c is None and t not in out:
                    out.add(t)
                    stack.append(t)
        return frozenset(out)

    subsets = [closure({start})]
    number = {subsets[0]: 0}
    rows = []
    for subset in subsets:
        row = []
        for c in range(width):
            targets = {t for s in subset for d, t in moves(s) if d == c}
            if not targets or FAIL in targets:
                row.append(FAIL)
                continue
            target = closure(targets)
            if target not in number:
                number[target] = len(subsets)
                subsets.append(target)
            row.append(number[target])
        rows.append(row)
    final = {i for i, subset in enumerate(subsets) if any(map(accepting, subset))}
    return len(subsets), 0, final, rows


def finite_language_size(num_states, initial, accepting, rows) -> int | None:
    """Number of words a DFA accepts, or None when there are infinitely
    many, by counting words length by length.

    With n states, an accepted word of length n or more pumps up into
    infinitely many, and cutting loops of at most n letters out of one
    leaves an accepted word of length in [n, 2n); so the language is
    infinite iff some accepted word has such a length, and otherwise
    every accepted word is shorter than n.
    """
    counts = _length_counts(initial, accepting, rows, 2 * num_states)
    if any(counts[num_states:]):
        return None
    return sum(counts)


def count_words_by_length(dfa: Dfa, max_len: int) -> list[int]:
    """Number of words of each length 0..max_len that ``dfa`` accepts."""
    return _length_counts(dfa.initial, dfa.accepting, dfa.transitions, max_len + 1)


def _length_counts(initial, accepting, rows, n: int) -> list[int]:
    """Accepted words of each length below n, pushed one length at a time."""
    counts = []
    layer = {initial: 1}  # state -> words of the current length reaching it
    for _length in range(n):
        counts.append(sum(k for s, k in layer.items() if s in accepting))
        nxt: dict[int, int] = {}
        for s, k in layer.items():
            for t in rows[s]:
                if t != FAIL:
                    nxt[t] = nxt.get(t, 0) + k
        layer = nxt
    return counts


def power_series(num, den, n: int) -> list[Fraction]:
    """The first n coefficients of num/den (ascending coefficients,
    den[0] != 0), by long division: each step takes the quotient's next
    term from the remainder's constant term and shifts the rest down."""
    rem = [Fraction(c) for c in num]
    out = []
    for _ in range(n):
        rem += [Fraction(0)] * (len(den) - len(rem))
        q = rem[0] / den[0]
        out.append(q)
        rem = [r - q * d for r, d in zip(rem, list(den) + [0] * len(rem))][1:]
    return out


def _without_zero_top(p) -> list[Fraction]:
    """The coefficients of p up to its last nonzero one; [] is zero."""
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def polynomials_coprime(p, q) -> bool:
    """Whether p and q have no common factor of positive degree: their
    greatest common divisor, by Euclid's algorithm over the rationals,
    is a nonzero constant."""
    a, b = _without_zero_top(p), _without_zero_top(q)
    while b:
        while len(a) >= len(b):  # a <- a mod b
            k, top = len(a) - len(b), a[-1] / b[-1]
            for i, bv in enumerate(b):
                a[k + i] -= top * bv
            a = _without_zero_top(a)
        a, b = b, a
    return len(a) == 1


# -- small package objects built from public constructors ----------------------


def empty_language_dfa(alphabet) -> Dfa:
    """The one-state automaton that accepts nothing."""
    return Dfa(alphabet, 1, 0, (), [[FAIL] * alphabet.size])


def accepts_pair(p, u: bytes, v: bytes) -> bool:
    """Whether the pair automaton p accepts the padded pair (u, v)."""
    return p.dfa.accepts(encode_pair(p.pairs, u, v))


def matrix_to_json(m) -> dict:
    """A Coxeter matrix in the file format ``formats.matrix_from_json`` reads."""
    return {"rank": m.rank, "m": [list(row) for row in m.m]}


def slice_route_partners(p, u: bytes) -> list[bytes] | None:
    """Every v with (u, v) accepted by p, shortlex-sorted, or None when
    there are infinitely many: the slice automaton's finiteness, then
    its enumeration."""
    sl = slice_first(p, u)
    count = fsa.language_is_finite(sl)
    if count is None:
        return None
    return fsa.enumerate_words(sl, len(u) + p.dfa.num_states + 1) if count else []


def slice_route_unique(p, u: bytes) -> bytes | None:
    """The slice route mapped to the lookup's contract: the only
    partner, else None."""
    vs = slice_route_partners(p, u)
    return vs[0] if vs is not None and len(vs) == 1 else None


def reference_verdict(s) -> bool:
    """Whether a structure passes the checks made one by one: the empty
    word is accepted; both projections of each M_y are L(WA); M_eps is
    the diagonal (uniqueness); compose(swap(M_y), M_y) is the diagonal
    (functionality); M_y M_{y^-1} = M_eps for each inverse pair; and
    M(u) = M(v^-1) for each relator r = uv, |u| = ceil(|r|/2), every
    composite built left to right without memo or swap."""
    A = s.alphabet
    wa = s.word_acceptor
    m = s.multipliers
    if not wa.accepts(b""):
        return False
    for y in range(A.size):
        if wa != pairfsa.project_first(m[y]) or wa != pairfsa.project_second(m[y]):
            return False
    diag = pairfsa.diagonal(wa)
    if m[None] != diag:
        return False
    if any(pairfsa.compose(pairfsa.swap(m[y]), m[y]) != diag for y in range(A.size)):
        return False

    def composite(w: bytes):
        acc = m[w[0]] if w else m[None]
        for c in w[1:]:
            acc = pairfsa.compose(acc, m[c])
        return acc

    for y in range(A.size):
        if y <= A.inverse[y] and composite(bytes((y, A.inverse[y]))) != m[None]:
            return False
    for r in s.presentation.relators:
        half = (len(r) + 1) // 2
        if composite(r[:half]) != composite(A.invert(r[half:])):
            return False
    return True
