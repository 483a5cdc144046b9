"""Coxeter groups from root-system dominance.

The reflection representation acts on exact cyclotomic coordinates in
the simple-root basis; a positive root dominates another when their
inner product is at least 1, and the finitely many positive roots that
dominate no others (the small roots) are the state alphabet of the
shortlex word acceptor.  The geodesic acceptor is the same construction
without the shortlex-precedence term.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Sequence

from . import fsa
from .cyclotomic import CyclotomicField, Element, conductor_for
from .errors import ResourceLimitError, UsageError
from .fsa import FAIL, Dfa
from .words import Alphabet

DEFAULT_ROOT_CAP = 100_000

Root = tuple[Element, ...]


class CoxeterMatrix:
    """Symmetric matrix of relation orders; 0 encodes an infinite order."""

    __slots__ = ("rank", "m")

    def __init__(self, m: Sequence[Sequence[int]]):
        rank = len(m)
        if rank < 1:
            raise UsageError("rank must be at least 1")
        rows = tuple(tuple(int(x) for x in row) for row in m)
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

    def finite_orders(self) -> list[int]:
        return [
            self.m[i][j]
            for i in range(self.rank)
            for j in range(i + 1, self.rank)
            if self.m[i][j] != 0
        ]


class FieldContext:
    """Exact arithmetic context: the cyclotomic field containing every
    -cos(pi/m_ij), the bilinear form, and the simple roots."""

    def __init__(self, matrix: CoxeterMatrix):
        self.matrix = matrix
        self.rank = matrix.rank
        self.field = CyclotomicField(conductor_for(matrix.finite_orders()))
        F = self.field
        form = []
        for i in range(self.rank):
            row = []
            for j in range(self.rank):
                if i == j:
                    row.append(F.one)
                elif matrix.m[i][j] == 0:
                    row.append(F.from_rational(Fraction(-1)))
                else:
                    row.append(F.neg(F.cos_pi_over(matrix.m[i][j])))
            form.append(tuple(row))
        self.form = tuple(form)
        self.simple_roots: tuple[Root, ...] = tuple(
            tuple(F.one if j == i else F.zero for j in range(self.rank))
            for i in range(self.rank)
        )

    def inner(self, u: Root, v: Root) -> Element:
        """Bilinear form value <u, v>, exact."""
        if len(u) != self.rank or len(v) != self.rank:
            raise UsageError("root rank mismatch")
        F = self.field
        total = F.zero
        for i, ui in enumerate(u):
            if F.is_zero(ui):
                continue
            for j, vj in enumerate(v):
                if not F.is_zero(vj):
                    total = F.add(total, F.mul(F.mul(ui, vj), self.form[i][j]))
        return total

    def inner_simple(self, i: int, v: Root) -> Element:
        """<e_i, v> without building the one-hot root."""
        F = self.field
        total = F.zero
        for j, vj in enumerate(v):
            if not F.is_zero(vj):
                total = F.add(total, F.mul(vj, self.form[i][j]))
        return total

    def reflect(self, i: int, v: Root) -> Root:
        """r_i(v) = v - 2 <v, e_i> e_i (involutive, form-preserving)."""
        F = self.field
        c = F.scale(2, self.inner_simple(i, v))
        out = list(v)
        out[i] = F.sub(out[i], c)
        return tuple(out)

    def root_sign(self, v: Root) -> int:
        """+1 for a positive root, -1 negative, 0 for zero; raises if the
        coordinates are not sign-coherent."""
        signs = {self.field.sign(c) for c in v}
        signs.discard(0)
        if not signs:
            return 0
        if len(signs) > 1:
            raise UsageError("root coordinates are not sign-coherent")
        return signs.pop()

    def format_root(self, v: Root) -> str:
        F = self.field
        parts = []
        for i, c in enumerate(v):
            if F.is_zero(c):
                continue
            txt = F.format_element(c)
            if txt == "1":
                parts.append(f"e{i + 1}")
            elif txt == "-1":
                parts.append(f"-e{i + 1}")
            elif F.is_rational(c):
                parts.append(f"{txt}*e{i + 1}")
            else:
                parts.append(f"({txt})*e{i + 1}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def dominates(ctx: FieldContext, alpha: Root, beta: Root) -> bool:
    """Positive root alpha dominates beta (alpha != beta) iff their inner
    product is at least 1 (exact sign test)."""
    if alpha == beta:
        raise UsageError("dominance is between distinct positive roots")
    if ctx.root_sign(alpha) <= 0 or ctx.root_sign(beta) <= 0:
        raise UsageError("dominance needs positive roots")
    ip = ctx.inner(alpha, beta)
    return ctx.field.sign(ctx.field.sub(ip, ctx.field.one)) >= 0


def small_roots(
    matrix: CoxeterMatrix, root_cap: int = DEFAULT_ROOT_CAP
) -> tuple[FieldContext, list[Root]]:
    """The finite set of positive roots dominating no others.

    Breadth-first closure from the simple roots: a child r_i(beta) is
    kept when it is a new positive root, the expansion gate
    -1 < <e_i, beta> holds (otherwise the child dominates beta), and it
    dominates none of the small roots found so far.
    """
    ctx = FieldContext(matrix)
    F = ctx.field
    minus_one = F.from_rational(Fraction(-1))
    found: list[Root] = list(ctx.simple_roots)
    seen = set(found)
    queue = deque(found)
    while queue:
        beta = queue.popleft()
        for i in range(ctx.rank):
            child = ctx.reflect(i, beta)
            if child == beta or child in seen:
                continue
            if ctx.root_sign(child) <= 0:
                continue
            gate = F.sign(F.sub(ctx.inner_simple(i, beta), minus_one))
            if gate <= 0:
                continue
            if any(g != child and dominates(ctx, child, g) for g in found):
                continue
            if len(found) >= root_cap:
                raise ResourceLimitError("small root set size", root_cap)
            found.append(child)
            seen.add(child)
            queue.append(child)
    return ctx, found


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
    root_cap: int,
) -> Dfa:
    alphabet = _coxeter_alphabet(matrix, names)
    ctx, delta = small_roots(matrix, root_cap)
    root_id = {r: i for i, r in enumerate(delta)}
    simple_ids = [root_id[r] for r in ctx.simple_roots]
    # generator precedence is alphabet position; cache reflections on small roots
    reflect_small: list[list[int | None]] = []
    for i in range(ctx.rank):
        row: list[int | None] = []
        for r in delta:
            img = ctx.reflect(i, r)
            row.append(root_id.get(img))
        reflect_small.append(row)
    shortlex_extra: list[list[int]] = []
    for i in range(ctx.rank):
        extra = []
        if shortlex:
            for k in range(i):
                img = root_id.get(ctx.reflect(i, ctx.simple_roots[k]))
                if img is not None:
                    extra.append(img)
        shortlex_extra.append(extra)

    def expand(S: frozenset[int], index: dict) -> list[int]:
        row = []
        for i in range(ctx.rank):
            if simple_ids[i] in S:
                row.append(FAIL)
                continue
            nxt = {simple_ids[i]}
            for rid in S:
                img = reflect_small[i][rid]
                if img is not None:
                    nxt.add(img)
            nxt.update(shortlex_extra[i])
            row.append(index[frozenset(nxt)])
        return row

    order, rows = fsa.explore(frozenset(), expand, state_cap, "acceptor subset states")
    return fsa.minimize(Dfa(alphabet, len(order), 0, range(len(order)), rows))


def build_shortlex_word_acceptor(
    matrix: CoxeterMatrix,
    names: Sequence[str] | None = None,
    state_cap: int = fsa.DEFAULT_STATE_CAP,
    root_cap: int = DEFAULT_ROOT_CAP,
) -> Dfa:
    """Word acceptor for the shortlex normal forms over the standard
    generators (precedence = listed order).

    States are reachable subsets S of the small roots; reading x_i fails
    when e_i lies in S and otherwise maps S to the small-root part of
    {x_i(a) : a in S} + {e_i} + {x_i(e_k) : x_k before x_i}.
    """
    return _subset_acceptor(matrix, names, True, state_cap, root_cap)


def build_geodesic_acceptor(
    matrix: CoxeterMatrix,
    names: Sequence[str] | None = None,
    state_cap: int = fsa.DEFAULT_STATE_CAP,
    root_cap: int = DEFAULT_ROOT_CAP,
) -> Dfa:
    """Acceptor for all geodesic words: the same subset construction
    without the shortlex-precedence term."""
    return _subset_acceptor(matrix, names, False, state_cap, root_cap)


def reflection_action(ctx: FieldContext, word, start: Root) -> Root:
    """Apply the reflections of a word (leftmost letter acts last) to a root."""
    v = start
    for c in reversed(bytes(word)):
        v = ctx.reflect(c, v)
    return v


def dominance_semi_oracle(
    ctx: FieldContext, alpha: Root, beta: Root, depth: int
) -> bool:
    """Definitional dominance check over all group elements up to the
    given word length: every w sending alpha negative must send beta
    negative.  A bounded search: True here is consistency, not proof."""
    frontier: list[tuple[Root, Root]] = [(alpha, beta)]
    seen = {(alpha, beta)}
    for _ in range(depth):
        nxt = []
        for wa, wb in frontier:
            for i in range(ctx.rank):
                pa = ctx.reflect(i, wa)
                pb = ctx.reflect(i, wb)
                if (pa, pb) in seen:
                    continue
                seen.add((pa, pb))
                if ctx.root_sign(pa) < 0 and ctx.root_sign(pb) > 0:
                    return False
                nxt.append((pa, pb))
        frontier = nxt
    return True
