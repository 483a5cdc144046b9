"""Coxeter groups from their small roots.

The reflection representation acts on exact coordinates in the
simple-root basis, over the ring Z[2cos(2*pi/N)] of ``cyclotomic``.
The small roots (Brink & Howlett 1993) are the positive roots that
dominate no other positive root, where alpha is said to dominate beta
when every group element sending alpha negative also sends beta
negative.  They are finitely many, and they are the state alphabet of
the shortlex word acceptor.  ``small_roots`` builds them by their
closure characterisation, one exact inner product per root and
generator, with no dominance test; the same products give the action
of each s_i on the small roots, so the acceptors do no field
arithmetic.  The action also decides whether the group is finite
(``is_finite``), with no automaton.

The acceptors take one of two routes.  A finite group's shortlex
acceptor is built from its chain of parabolic subgroups: its language
is the concatenation of the tries of minimal coset representatives of
W_{k-1} in W_k, one state per representative, each held by the signed
roots v^-1(e_j).  Every other table, the geodesic acceptor and an
infinite group's shortlex acceptor, is the Brink-Howlett subset walk:
a state is a subset of the small roots held as an int bitmask, and
per-byte tables of the action pack the images under every generator
into one int, generator i's in bits i * roots up to (i + 1) * roots, so
a state's images under all generators are one sum of table entries.
The geodesic acceptor omits the shortlex-precedence term; for a finite
group it is minimal as explored, and every other table is refined from
sparse rows.
"""

from __future__ import annotations

from typing import Sequence

from . import fsa
from .cyclotomic import CyclotomicField, Element, conductor_for
from .errors import ResourceLimitError, UsageError
from .fsa import FAIL, Dfa
from .words import Alphabet

DEFAULT_ROOT_CAP = 100_000  # guard on the size of the small-root closure

Root = tuple[Element, ...]


class CoxeterMatrix:
    """Symmetric matrix of relation orders; 0 encodes an infinite order."""

    __slots__ = ("rank", "m")

    def __init__(self, m: Sequence[Sequence[int]]):
        rank = len(m)
        if rank < 1:
            raise UsageError("rank must be at least 1")
        rows = tuple(tuple(row) for row in m)
        for x in (x for row in rows for x in row):
            if isinstance(x, bool) or not isinstance(x, int):
                raise UsageError(f"Coxeter matrix entries must be integers, got {x!r}")
        if any(len(row) != rank for row in rows):
            raise UsageError("Coxeter matrix must be square")
        for i in range(rank):
            if rows[i][i] != 1:
                raise UsageError("diagonal entries must be 1")
            for j in range(rank):
                if rows[i][j] != rows[j][i]:
                    raise UsageError("Coxeter matrix must be symmetric")
                if i != j and rows[i][j] == 1 or rows[i][j] < 0:
                    raise UsageError("off-diagonal entries must be 0 (infinity) or >= 2")
        self.rank = rank
        self.m = rows


class FieldContext:
    """Exact arithmetic context: the ring Z[2cos(2*pi/N)] holding every
    2cos(pi/m_ij), twice the bilinear form, and the simple roots.

    ``form`` holds 2B, with 2B(e_i, e_j) = -2cos(pi/m_ij) =
    -C_{N/(2m_ij)}(t): 2 on the diagonal, where m = 1, and -2 for an
    infinite order."""

    def __init__(self, matrix: CoxeterMatrix):
        self.rank = matrix.rank
        self.field = F = CyclotomicField(conductor_for([m for row in matrix.m for m in row]))
        self.form = tuple(
            tuple(F.from_int(-2) if m == 0 else F.scale(-1, F.two_cos_pi_over(m)) for m in row)
            for row in matrix.m
        )
        self.simple_roots: tuple[Root, ...] = tuple(
            tuple(F.one if j == i else F.zero for j in range(self.rank))
            for i in range(self.rank)
        )

    def inner_simple(self, i: int, v: Root) -> Element:
        """2B(e_i, v) without building the one-hot root."""
        F = self.field
        total = F.zero
        for vj, bij in zip(v, self.form[i]):
            if not F.is_zero(vj) and not F.is_zero(bij):
                total = F.add(total, F.mul(vj, bij))
        return total

    def format_root(self, v: Root) -> str:
        F = self.field
        parts = []
        for i, c in enumerate(v):
            if not F.is_zero(c):
                txt = F.format_element(c)
                # only a sum of several terms needs parentheses
                single = sum(1 for x in c if x) == 1
                coeff = {"1": "", "-1": "-"}.get(txt, f"{txt}*" if single else f"({txt})*")
                parts.append(f"{coeff}e{i + 1}")
        return " + ".join(parts).replace("+ -", "- ") or "0"


def small_roots(
    matrix: CoxeterMatrix,
) -> tuple[FieldContext, list[Root], list[list[int | None]]]:
    """The finite set of small roots, simple roots first, then in
    breadth-first order of discovery, and the action of each s_i on it.

    Brink & Howlett, Math. Ann. 296 (1993); Björner & Brenti,
    *Combinatorics of Coxeter Groups* (2005), §4.7: the set of small
    roots is the smallest subset of the positive roots that contains the
    simple roots and contains s_i(beta) whenever beta is in it and
    -1 < B(e_i, beta) < 0.  For such beta the child
    beta + 2|B(e_i, beta)| e_i is positive and deeper than beta, so
    neither a sign test nor a dominance test is needed.  The closure
    computes c = 2B(e_i, beta), which lies in the ring, so the gate is
    -2 < c < 0 and the child is beta - c e_i.

    ``action[i][r]`` is the index of s_i(roots[r]) in ``roots``, or None
    when that image is not a small root, decided by the same c: c = 0
    fixes beta; -2 < c < 0 gives the child, recorded in both directions;
    c > 0 gives the parent, recorded from its side (None for beta = e_i,
    whose image is -e_i); c <= -2 gives no small root.
    """
    ctx = FieldContext(matrix)
    F = ctx.field
    two = F.from_int(2)
    found: list[Root] = list(ctx.simple_roots)
    index = {r: k for k, r in enumerate(found)}
    action: list[list[int | None]] = [[None] * ctx.rank for _ in range(ctx.rank)]
    for b, beta in enumerate(found):  # found grows while it is walked: it is the queue
        for i in range(ctx.rank):
            c = ctx.inner_simple(i, beta)
            if F.is_zero(c):
                action[i][b] = b
            elif F.sign(c) < 0 < F.sign(F.add(c, two)):
                child = beta[:i] + (F.sub(beta[i], c),) + beta[i + 1 :]
                k = index.get(child)
                if k is None:
                    if len(found) >= DEFAULT_ROOT_CAP:
                        raise ResourceLimitError("small root set size", DEFAULT_ROOT_CAP)
                    k = index[child] = len(found)
                    found.append(child)
                    for row in action:
                        row.append(None)
                action[i][b], action[i][k] = k, b
    return ctx, found, action


def is_finite(action: Sequence[Sequence[int | None]]) -> bool:
    """Whether the Coxeter group is finite, read from the action table
    of ``small_roots``: exactly when s_i(roots[r]) is a small root for
    every r but r = i (see ``_subset_acceptor`` for the argument)."""
    return all(
        k is not None or r == i for i, images in enumerate(action) for r, k in enumerate(images)
    )


def _coxeter_alphabet(matrix: CoxeterMatrix, names: Sequence[str] | None) -> Alphabet:
    if names is None:
        if matrix.rank <= 26:
            names = [chr(ord("a") + i) for i in range(matrix.rank)]
        else:
            names = [f"x{i + 1}" for i in range(matrix.rank)]
    if len(names) != matrix.rank:
        raise UsageError("need one generator name per rank")
    return Alphabet(tuple(names), tuple(range(matrix.rank)))


def _subset_acceptor(
    matrix: CoxeterMatrix,
    names: Sequence[str] | None,
    shortlex: bool,
    state_cap: int,
) -> Dfa:
    """Both acceptors from the small roots: a finite group's shortlex
    acceptor by ``_chain_acceptor``, every other table by
    ``_subset_walk``, refined unless the group is finite.

    Whether W is finite is read from the action table by ``is_finite``:
    W is finite exactly when ``action[i][r]`` is None only for r = i.
    If W is finite, B is positive definite, so |B(alpha, beta)| < 1 for
    distinct positive roots.  A root dominates another only when their
    product is at least 1, so every positive root is small, and
    c = 2B(e_i, beta) lies in (-2, 2) for every positive beta other than
    e_i.  So each image is recorded: from beta's side when c <= 0, and
    from the side of s_i(beta), whose c is -c, when c > 0.  If W is
    infinite, it has infinitely many positive roots; take one, gamma, of
    least depth that is not small.  It is not simple, so
    gamma = s_i(beta) for some i and some positive beta of smaller
    depth, which is small, with beta != e_i and c < 0.  Were c > -2,
    gamma would be the child of beta and small; so c <= -2, and
    ``action[i][beta]`` is None.
    """
    alphabet = _coxeter_alphabet(matrix, names)
    action = small_roots(matrix)[2]
    finite = is_finite(action)
    if shortlex and finite:
        return _chain_acceptor(alphabet, action, state_cap)
    return _subset_walk(alphabet, action, shortlex, not finite, state_cap)


def _subset_walk(
    alphabet: Alphabet,
    action: Sequence[Sequence[int | None]],
    shortlex: bool,
    refine: bool,
    state_cap: int,
) -> Dfa:
    """The subset construction of both acceptors, its states bitmasks
    over the small roots (bit r is root r), explored from the empty set;
    the table is minimised when ``refine`` is set, as it must be for
    every table but a finite group's geodesic one.

    A finite group's geodesic table is returned as explored, with no
    refinement: it is already minimal and canonical.  Every positive
    root is small, so the state after reading w is the whole set N(w) of
    positive roots that w sends negative.  N(w) determines w, so there
    is exactly one state per element of W.  Distinct elements have
    distinct cone types, since the cone type of w is the
    right-weak-order interval below w^-1 w_0, whose top element fixes w
    (Björner & Brenti, *Combinatorics of Coxeter Groups*, ch. 3).  So
    there are at least |W| Nerode classes; every state accepts, and the
    table is minimal.  ``fsa.explore`` numbers states breadth-first with
    symbols in ascending order, which is the numbering ``fsa.canonical``
    gives.  The other tables are refined (the C~3 geodesic table has 343
    states and its minimal automaton 317, the (2,3,7) triangle group's
    40 and 35) from sparse rows, symbols ascending, as ``fsa.minimal``
    reads them, with no dense ``Dfa`` in between.
    """
    n_roots = len(action[0])
    n_bytes = (n_roots + 7) // 8
    mask = (1 << n_roots) - 1
    # Per byte of a state, one table from the byte's value to the images
    # of its roots under every generator at once, generator i's in bits
    # i * n_roots up to (i + 1) * n_roots.  Distinct roots have distinct
    # images under one generator, so the bytes' images are disjoint and
    # add, and one sum of table entries gives a state's images under all
    # generators.  The tables hold at most 256 * ceil(roots / 8) entries
    # of rank * roots bits, since a last byte of fewer than 8 roots has a
    # shorter table: 1,040 of 216 bits for E6's 36 roots and rank 6.
    tables = []
    for low in range(0, n_roots, 8):
        table = [0]
        for r in range(low, min(low + 8, n_roots)):
            bits = 0
            for i, images in enumerate(action):
                if images[r] is not None:
                    bits |= 1 << (images[r] + i * n_roots)
            table += [image | bits for image in table]
        tables.append(table)
    # Every successor under x_i holds e_i and, for shortlex, the images
    # of e_k for k < i (simple root k is root k), which are distinct.
    # Those bits go in generator i's block of ``fixed``, so one OR per
    # state adds them for every generator.  Per generator: its symbol,
    # the bit of e_i and where its images start in a table entry.
    fixed = 0
    for i, images in enumerate(action):
        kept = [k for k in images[:i] if k is not None] if shortlex else []
        fixed |= sum(1 << k for k in [i, *kept]) << i * n_roots
    generators = [(i, 1 << i, i * n_roots) for i in range(len(action))]

    # a dense row built as a tuple is kept by Dfa without a copy
    def expand(S: int, index: dict) -> list[tuple[int, int]] | tuple[int, ...]:
        images = sum(map(list.__getitem__, tables, S.to_bytes(n_bytes, "little"))) | fixed
        if refine:
            return [
                (i, index[images >> shift & mask]) for i, bit, shift in generators if not S & bit
            ]
        return tuple(
            [FAIL if S & bit else index[images >> shift & mask] for _i, bit, shift in generators]
        )

    order, rows = fsa.explore(0, expand, state_cap, "acceptor subset states")
    if refine:
        return fsa.minimal(alphabet, 0, range(len(order)), rows)
    return Dfa(alphabet, len(order), 0, range(len(order)), rows)


def _chain_acceptor(
    alphabet: Alphabet, action: Sequence[Sequence[int | None]], state_cap: int
) -> Dfa:
    """A finite group's shortlex acceptor from its chain of parabolic
    subgroups W_1 < W_2 < ... < W_n, W_k generated by s_1, ..., s_k.

    Each w in W_k is u v with u in W_{k-1}, v the minimal representative
    of the coset W_{k-1} w, and l(w) = l(u) + l(v) (Björner & Brenti,
    *Combinatorics of Coxeter Groups*, §2.4).  Every reduced word of v
    starts with s_k.  The least reduced word of w takes, letter by
    letter, the least left descent of what is left; s_j with j < k is a
    left descent of w exactly when it is one of u, so the word is the
    least of u followed by the least of v.  So the shortlex language is
    L_1 L_2 ... L_n, L_k the least reduced words of level k's
    representatives other than 1, and one state per representative
    reads it: 1 + sum of ([W_k : W_{k-1}] - 1) states, 87 for E6
    against the 13,764 subsets of ``_subset_walk``.

    Generators are numbered from 0 below, so level k adds s_{k-1}.
    Level k's state for v is the tuple of the k signed roots v^-1(e_j),
    j < k, root r as r and its negative as ~r; v^-1 on the span of
    e_0, ..., e_{k-1} determines v.  The state of v s_i holds s_i of
    each, read from ``action``, where s_i(-beta) = -s_i(beta) and
    s_i(e_i) = -e_i is the only sign change.  v s_i is a representative
    exactly when s_i sends no v^-1(e_j), j < k - 1, negative, that is
    when none is e_i.  ``fsa.explore`` walks the representatives
    breadth-first with generators ascending, so the move that first
    finds one ends its least reduced word.  Only that move is kept; the
    others, among them the move from s_{k-1} back to 1, which is no
    state, lead to no normal form.  A state of level k reading s_i with
    i >= k starts level i + 1 at its state for s_i.  The initial state
    is level 0, and every state accepts.
    """
    rank = len(action)
    # s_i on signed roots: root r is r, its negative ~r = -r - 1, which a
    # list of 2 * roots entries reads from its end
    reflect = []
    for i, images in enumerate(action):
        positive = [~i if r == i else k for r, k in enumerate(images)]
        reflect.append(positive + [~k for k in reversed(positive)])
    # level i + 1's state for the word s_i: s_i(e_j) for j <= i
    starts = [tuple(reflect[i][: i + 1]) for i in range(rank)]
    # the representative 1 of each level, which is no state
    ones = [tuple(range(k)) for k in range(rank + 1)]

    def expand(images: tuple, index: dict) -> list[tuple[int, int]]:
        k = len(images)
        row = []
        for i in range(k):
            if i not in images[: k - 1]:
                child = tuple(map(reflect[i].__getitem__, images))
                if child not in index and child != ones[k]:
                    row.append((i, index[child]))
        for i in range(k, rank):
            row.append((i, index[starts[i]]))
        return row

    order, rows = fsa.explore((), expand, state_cap, "acceptor subset states")
    return fsa.minimal(alphabet, 0, range(len(order)), rows)


def build_shortlex_word_acceptor(
    matrix: CoxeterMatrix,
    names: Sequence[str] | None = None,
    state_cap: int = fsa.DEFAULT_STATE_CAP,
) -> Dfa:
    """Word acceptor for the shortlex normal forms over the standard
    generators (precedence = listed order), minimised.

    For a finite group, one state per minimal coset representative of
    the parabolic chain (``_chain_acceptor``).  For an infinite group,
    states are reachable subsets S of the small roots, held as bitmasks;
    reading x_i fails when e_i lies in S and otherwise maps S to the
    small-root part of {x_i(a) : a in S} + {e_i} + {x_i(e_k) : x_k before
    x_i} (``_subset_walk``).  Either way every image is read from the
    action table of ``small_roots``: no field arithmetic.  The state cap
    bounds the states either route explores.
    """
    return _subset_acceptor(matrix, names, True, state_cap)


def build_geodesic_acceptor(
    matrix: CoxeterMatrix,
    names: Sequence[str] | None = None,
    state_cap: int = fsa.DEFAULT_STATE_CAP,
) -> Dfa:
    """Acceptor for all geodesic words: the same subset construction
    without the shortlex-precedence term.  For a finite group it has one
    state per element and is returned unrefined, since it is already
    minimal; an infinite group's table is minimised."""
    return _subset_acceptor(matrix, names, False, state_cap)
