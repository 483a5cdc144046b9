"""Independent answers for the pipeline benchmark.

Nothing here imports ``agt`` or the test suite.  Words are strings of
one-character generator names; every model folds a word letter by
letter through ``mul`` and is faithful, so two words are equal in the
group exactly when their model elements are equal:

- reduced Burau matrices over Z[t, 1/t] for the braid group B3
  (faithful for three strands);
- integer vectors for Z^n;
- permutations for A5 = <a, b | a^2, b^3, (ab)^5>;
- integer generalized-Cartan reflection representations for Coxeter
  groups whose orders lie in {2, 3, 4, 6, infinity} (the Kac-Moody Weyl
  group of such a matrix is the Coxeter group), and the floating-point
  geometric representation for the others (used only in small balls).

Coxeter growth comes from the finite-type degree table and Steinberg's
formula, sum over finite parabolics W_T of (-1)^|T| / W_T(1/x) =
1/W(x) (Humphreys, Reflection Groups and Coxeter Groups, 1990).
"""

from __future__ import annotations

import math
from itertools import combinations

INF = 0  # Coxeter-matrix entry for an infinite order


class OracleMismatch(Exception):
    """Raised by ``expect`` when an answer disagrees with its oracle."""


def expect(what: str, got, want) -> None:
    if got != want:
        raise OracleMismatch(f"{what}: got {got!r}, expected {want!r}")


# -- words ------------------------------------------------------------------


def shortlex_key(word: str, order: str) -> tuple:
    return (len(word), [order.index(c) for c in word])


def shortlex_less(u: str, v: str, order: str) -> bool:
    return shortlex_key(u, order) < shortlex_key(v, order)


# -- models -----------------------------------------------------------------


class Model:
    """A faithful image of a group: ``gens`` maps each letter (inverse
    letters included) to an element; ``key`` makes elements comparable."""

    letters: str
    identity: object
    gens: dict

    def mul(self, x, y):
        raise NotImplementedError

    def key(self, x):
        return x

    def eval(self, word: str):
        x = self.identity
        for c in word:
            x = self.mul(x, self.gens[c])
        return x

    def same(self, u: str, v: str) -> bool:
        return self.key(self.eval(u)) == self.key(self.eval(v))


def _padd(p: tuple, q: tuple) -> tuple:
    d = dict(p)
    for e, c in q:
        d[e] = d.get(e, 0) + c
    return tuple(sorted((e, c) for e, c in d.items() if c))


def _pmul(p: tuple, q: tuple) -> tuple:
    d: dict[int, int] = {}
    for e1, c1 in p:
        for e2, c2 in q:
            d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
    return tuple(sorted((e, c) for e, c in d.items() if c))


class BurauB3(Model):
    """Reduced Burau representation of B3 = <a, b | aba = bab>; a, b are
    the Artin generators and A, B their inverses."""

    letters = "aAbB"

    def __init__(self):
        one, zero = ((0, 1),), ()
        t, mt, mti = ((1, 1),), ((1, -1),), ((-1, -1),)
        ti = ((-1, 1),)
        self.identity = (one, zero, zero, one)
        self.gens = {
            "a": (mt, one, zero, one),
            "A": (mti, ti, zero, one),
            "b": (one, zero, t, mt),
            "B": (one, zero, one, mti),
        }

    def mul(self, x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (
            _padd(_pmul(a, e), _pmul(b, g)),
            _padd(_pmul(a, f), _pmul(b, h)),
            _padd(_pmul(c, e), _pmul(d, g)),
            _padd(_pmul(c, f), _pmul(d, h)),
        )


class FreeAbelian(Model):
    """Z^n on letters a, A, b, B, ... (upper case inverts)."""

    def __init__(self, rank: int):
        self.rank = rank
        self.letters = "".join(chr(97 + i) + chr(65 + i) for i in range(rank))
        self.identity = (0,) * rank
        self.gens = {}
        for i in range(rank):
            unit = [0] * rank
            unit[i] = 1
            self.gens[chr(97 + i)] = tuple(unit)
            unit[i] = -1
            self.gens[chr(65 + i)] = tuple(unit)

    def mul(self, x, y):
        return tuple(p + q for p, q in zip(x, y))

    def normal_form(self, word: str) -> str:
        """Shortlex least word: letters sorted a < A < b < B < ..."""
        v = self.eval(word)
        return "".join(
            (chr(97 + i) if c > 0 else chr(65 + i)) * abs(c) for i, c in enumerate(v)
        )


class PermA5(Model):
    """A5 on five points: a = (0 1)(2 3), b = (0 2 4), B = b^-1."""

    letters = "abB"

    def __init__(self):
        self.identity = (0, 1, 2, 3, 4)
        self.gens = {"a": (1, 0, 3, 2, 4), "b": (2, 1, 4, 3, 0), "B": (4, 1, 0, 3, 2)}

    def mul(self, x, y):
        return tuple(y[i] for i in x)


def cartan_matrix(m: list[list[int]]) -> list[list[int]] | None:
    """A generalized Cartan matrix with a_ij * a_ji = 4 cos^2(pi/m_ij)
    (4 for infinite orders); None when some order is not 2, 3, 4, 6 or
    infinite, i.e. the group is not crystallographic."""
    n = len(m)
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    pairs = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3), INF: (-2, -2)}
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] not in pairs:
                return None
            a[i][j], a[j][i] = pairs[m[i][j]]
    return a


class CoxeterModel(Model):
    """Reflection representation of the Coxeter group with matrix ``m``
    on letters a, b, c, ... (each an involution).

    Elements are n x n matrices acting on simple-root coordinates.  With
    a crystallographic matrix the entries are exact integers; otherwise
    the geometric representation is used in floating point and ``key``
    rounds, which is safe for the small balls it is used on.
    """

    def __init__(self, m: list[list[int]]):
        self.m = m
        self.n = n = len(m)
        self.letters = "".join(chr(97 + i) for i in range(n))
        cartan = cartan_matrix(m)
        self.exact = cartan is not None
        if cartan is None:
            cartan = [
                [
                    2.0 if i == j
                    else 0.0 if m[i][j] == 2
                    else -2.0 if m[i][j] == INF
                    else -2.0 * math.cos(math.pi / m[i][j])
                    for j in range(n)
                ]
                for i in range(n)
            ]
        self.cartan = cartan
        self.identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        self.gens = {c: i for i, c in enumerate(self.letters)}

    def mul(self, x, i: int):
        """x * s_i: column j of x loses a_ij times column i."""
        row = self.cartan[i]
        return tuple(
            tuple(r[j] - row[j] * r[i] if row[j] else r[j] for j in range(self.n))
            for r in x
        )

    def key(self, x):
        if self.exact:
            return x
        return tuple(tuple(round(v, 7) + 0.0 for v in r) for r in x)

    def normal_form(self, word: str) -> str:
        """Shortlex normal form: repeatedly strip the first letter that is
        a left descent (w^-1 sends its simple root negative)."""
        if not self.exact:
            raise ValueError("exact normal forms need a crystallographic matrix")
        x = self.eval(word[::-1])  # the inverse element (letters are involutions)
        out = []
        while True:
            for i in range(self.n):
                if any(r[i] < 0 for r in x):
                    out.append(self.letters[i])
                    x = self.mul(x, i)
                    break
            else:
                return "".join(out)


# -- balls, spheres, geodesics, cone types ----------------------------------


class Ball:
    """Breadth-first ball of the Cayley graph (right multiplication)."""

    def __init__(self, model: Model, radius: int):
        self.model = model
        self.radius = radius
        e = model.identity
        self.dist = {model.key(e): 0}
        self.layers = [[e]]
        for d in range(radius):
            nxt = []
            for g in self.layers[-1]:
                for c in model.letters:
                    h = model.mul(g, model.gens[c])
                    k = model.key(h)
                    if k not in self.dist:
                        self.dist[k] = d + 1
                        nxt.append(h)
            self.layers.append(nxt)

    def sphere_sizes(self) -> list[int]:
        return [len(layer) for layer in self.layers]

    def geodesic_counts(self) -> list[int]:
        """Number of geodesic words of each length up to the radius."""
        model = self.model
        paths = {model.key(model.identity): 1}
        out = [1]
        for d, layer in enumerate(self.layers[:-1]):
            total = 0
            for g in layer:
                p = paths[model.key(g)]
                for c in model.letters:
                    k = model.key(model.mul(g, model.gens[c]))
                    if self.dist.get(k) == d + 1:
                        paths[k] = paths.get(k, 0) + p
                        total += p
            out.append(total)
        return out

    def cone_type_count(self) -> int:
        """Radius-limited cone types: elements within radius - depth of
        the identity (depth = radius // 2), told apart by their geodesic
        continuation trees cut at that depth."""
        model, dist = self.model, self.dist
        depth = self.radius // 2
        memo: dict = {}

        def tree(g, kg, d):
            if d == 0:
                return ()
            got = memo.get((kg, d))
            if got is None:
                kids = []
                for c in model.letters:
                    h = model.mul(g, model.gens[c])
                    kh = model.key(h)
                    if dist.get(kh, -1) == dist[kg] + 1:
                        kids.append((c, tree(h, kh, d - 1)))
                got = memo[(kg, d)] = frozenset(kids)
            return got

        limit = self.radius - depth
        return len({tree(g, self.model.key(g), depth) for layer in self.layers[: limit + 1] for g in layer})


def shortlex_forms(model: Model) -> dict:
    """Shortlex least word of every element of a finite group, keyed by
    element: a breadth-first search in shortlex order reaches each
    element first along its least word."""
    e = model.identity
    forms = {model.key(e): ""}
    frontier = [(e, "")]
    while frontier:
        nxt = []
        for g, w in frontier:
            for c in model.letters:
                h = model.mul(g, model.gens[c])
                k = model.key(h)
                if k not in forms:
                    forms[k] = w + c
                    nxt.append((h, w + c))
        frontier = nxt
    return forms


# -- Coxeter growth from the degree table -----------------------------------


def _component_degrees(m: list[list[int]], nodes: list[int]) -> list[int] | None:
    """Degrees of the irreducible finite Coxeter group on a connected
    node set, or None when it is infinite."""
    n = len(nodes)
    if n == 1:
        return [2]
    edges = [(i, j, m[i][j]) for i, j in combinations(nodes, 2) if m[i][j] != 2]
    if any(w == INF for _, _, w in edges):
        return None
    if n == 2:
        return [2, edges[0][2]]
    if len(edges) != n - 1:
        return None  # a cycle
    labels = sorted(w for _, _, w in edges if w != 3)
    deg = {v: 0 for v in nodes}
    for i, j, _ in edges:
        deg[i] += 1
        deg[j] += 1
    ends = [v for v in nodes if deg[v] == 1]
    branch = [v for v in nodes if deg[v] > 2]
    if not labels and not branch:
        return list(range(2, n + 2))  # A_n
    if not labels:
        if len(branch) != 1 or deg[branch[0]] != 3:
            return None
        adj = {v: [j for i, j, _ in edges if i == v] + [i for i, j, _ in edges if j == v] for v in nodes}
        arms = []
        for start in adj[branch[0]]:
            length, prev, cur = 1, branch[0], start
            while deg[cur] == 2:
                prev, cur = cur, next(x for x in adj[cur] if x != prev)
                length += 1
            arms.append(length)
        arms.sort()
        if arms[:2] == [1, 1]:
            return sorted(list(range(2, 2 * n - 1, 2)) + [n])  # D_n
        table = {(1, 2, 2): [2, 5, 6, 8, 9, 12], (1, 2, 3): [2, 6, 8, 10, 12, 14, 18],
                 (1, 2, 4): [2, 8, 12, 14, 18, 20, 24, 30]}
        return table.get(tuple(arms))
    if branch or len(labels) != 1:
        return None
    (i, j, w), = [e for e in edges if e[2] != 3]
    at_end = i in ends or j in ends
    if w == 4 and at_end:
        return list(range(2, 2 * n + 1, 2))  # B_n
    if w == 4 and n == 4:
        return [2, 6, 8, 12]  # F4
    if w == 5 and at_end and n == 3:
        return [2, 6, 10]  # H3
    if w == 5 and at_end and n == 4:
        return [2, 12, 20, 30]  # H4
    return None


def coxeter_degrees(m: list[list[int]], nodes: list[int] | None = None) -> list[int] | None:
    """Degrees of the parabolic subgroup on ``nodes`` (all by default);
    None when that subgroup is infinite."""
    nodes = list(range(len(m))) if nodes is None else list(nodes)
    out: list[int] = []
    seen: set[int] = set()
    for v in nodes:
        if v in seen:
            continue
        comp, stack = [], [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in nodes:
                if y not in seen and m[x][y] != 2:
                    seen.add(y)
                    stack.append(y)
        degs = _component_degrees(m, sorted(comp))
        if degs is None:
            return None
        out.extend(degs)
    return sorted(out)


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poincare_polynomial(degrees: list[int]) -> list[int]:
    """W(x) = prod over degrees d of (1 + x + ... + x^(d-1))."""
    out = [1]
    for d in degrees:
        out = _poly_mul(out, [1] * d)
    return out


def _series_inverse(p: list[int], n_terms: int) -> list[int]:
    """Power series 1/p for an integer series with p[0] = 1."""
    out = [0] * n_terms
    for k in range(n_terms):
        s = 1 if k == 0 else 0
        for i in range(1, min(k, len(p) - 1) + 1):
            s -= p[i] * out[k - i]
        out[k] = s
    return out


def coxeter_growth(m: list[list[int]], n_terms: int) -> list[int]:
    """Sphere sizes s(0..n_terms-1) over the standard generators."""
    degs = coxeter_degrees(m)
    if degs is not None:
        poly = poincare_polynomial(degs)
        return (poly + [0] * n_terms)[:n_terms]
    inv = [0] * n_terms  # 1/W(x) = sum_T (-1)^|T| x^N_T / W_T(x)
    n = len(m)
    for size in range(n):
        for nodes in combinations(range(n), size):
            d = coxeter_degrees(m, nodes)
            if d is None:
                continue
            shift = sum(x - 1 for x in d)
            if shift >= n_terms:
                continue
            term = _series_inverse(poincare_polynomial(d), n_terms - shift)
            for k, c in enumerate(term):
                inv[k + shift] += (-1) ** size * c
    return _series_inverse(inv, n_terms)


def coxeter_order(m: list[list[int]]) -> int | None:
    degs = coxeter_degrees(m)
    return None if degs is None else math.prod(degs)


def positive_root_count(m: list[list[int]]) -> int | None:
    """Number of positive roots of a finite Coxeter group, sum(d - 1);
    in a finite group every positive root is small."""
    degs = coxeter_degrees(m)
    return None if degs is None else sum(d - 1 for d in degs)


def free_group_spheres(rank: int, n_terms: int) -> list[int]:
    return [1] + [2 * rank * (2 * rank - 1) ** (k - 1) for k in range(1, n_terms)]


def free_abelian3_spheres(n_terms: int) -> list[int]:
    """Z^3 over a, b, c and inverses: s(n) = 4n^2 + 2 for n >= 1."""
    return [1] + [4 * k * k + 2 for k in range(1, n_terms)]
