"""The benchmark's fixed corpus and its seeded inputs.

Every group is given three ways: a presentation in the JSON format
``agt`` reads, a faithful model from ``oracles`` (sharing no code with
``agt``) and, for Coxeter groups, the Coxeter matrix.  Generator letters
are single characters, so a word is a plain string; ``letters`` lists
the alphabet in ``agt``'s shortlex order (each inverse right after its
generator).  Seeded generators build the query words, the word-problem
pairs and the reduction corpus; ``agt`` only ever sees their output.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import oracles
from oracles import INF


def linear(*orders: int) -> list[list[int]]:
    """Coxeter matrix of a path diagram with the given edge orders."""
    n = len(orders) + 1
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, k in enumerate(orders):
        m[i][i + 1] = m[i + 1][i] = k
    return m


def triangle(p: int, q: int, r: int) -> list[list[int]]:
    """The (p, q, r) triangle group: m(a,b) = p, m(b,c) = q, m(a,c) = r."""
    return [[1, p, r], [p, 1, q], [r, q, 1]]


D4 = [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]
E6 = [
    [1, 3, 2, 2, 2, 2],
    [3, 1, 3, 2, 2, 2],
    [2, 3, 1, 3, 2, 3],
    [2, 2, 3, 1, 3, 2],
    [2, 2, 2, 3, 1, 2],
    [2, 2, 3, 2, 2, 1],
]

COXETER = {
    "A4": linear(3, 3, 3),
    "D4": D4,
    "H3": linear(5, 3),
    "F4": linear(3, 4, 3),
    "E6": E6,
    "A2aff": triangle(3, 3, 3),
    "C3aff": linear(4, 3, 4),
    "T237": triangle(2, 3, 7),
    "T245": triangle(2, 4, 5),
    "T246": triangle(2, 4, 6),
}


@dataclass
class Group:
    name: str
    presentation: dict  # agt's presentation JSON
    letters: str  # alphabet in shortlex order
    relators: list[str]
    model: oracles.Model
    matrix: list[list[int]] | None = None

    def inverse(self, word: str) -> str:
        inv = self.presentation.get("inverses", {})
        back = {v: k for k, v in inv.items()}
        return "".join(inv.get(c) or back.get(c) or c for c in reversed(word))

    def order(self) -> int | None:
        if self.matrix is not None:
            return oracles.coxeter_order(self.matrix)
        if self.name == "A5":
            return 60
        return None

    def spheres(self, n_terms: int) -> list[int]:
        """Sphere sizes s(0..n_terms-1), from the cheapest exact oracle."""
        if self.matrix is not None:
            return oracles.coxeter_growth(self.matrix, n_terms)
        if self.name == "F2":
            return oracles.free_group_spheres(2, n_terms)
        if self.name == "Z3":
            return oracles.free_abelian3_spheres(n_terms)
        return ball(self.name, n_terms - 1).sphere_sizes()

    def normal_form(self, word: str) -> str | None:
        """The shortlex normal form when the oracle can give it exactly."""
        if isinstance(self.model, oracles.FreeAbelian):
            return self.model.normal_form(word)
        if isinstance(self.model, oracles.CoxeterModel) and self.model.exact:
            return self.model.normal_form(word)
        return None


@functools.cache
def ball(name: str, radius: int) -> oracles.Ball:
    """The ball of the named group's model, computed once per run."""
    return oracles.Ball(group(name).model, radius)


def coxeter_group(name: str) -> Group:
    m = COXETER[name]
    n = len(m)
    letters = "".join(chr(97 + i) for i in range(n))
    relators = [
        (letters[i] + letters[j]) * m[i][j]
        for i in range(n)
        for j in range(i + 1, n)
        if m[i][j] != INF
    ]
    pres = {"generators": list(letters), "involutions": list(letters), "relators": relators}
    return Group(name, pres, letters, relators, oracles.CoxeterModel(m), m)


def group(name: str) -> Group:
    if name in COXETER:
        return coxeter_group(name)
    if name == "F2":
        pres = {"generators": ["a", "b"], "inverses": {"a": "A", "b": "B"}, "relators": []}
        return Group(name, pres, "aAbB", [], _FreeModel())
    if name == "Z3":
        rels = ["abAB", "acAC", "bcBC"]
        pres = {"generators": ["a", "b", "c"], "inverses": {"a": "A", "b": "B", "c": "C"},
                "relators": rels}
        return Group(name, pres, "aAbBcC", rels, oracles.FreeAbelian(3))
    if name == "B3":
        rels = ["abaBAB"]
        pres = {"generators": ["a", "b"], "inverses": {"a": "A", "b": "B"}, "relators": rels}
        return Group(name, pres, "aAbB", rels, oracles.BurauB3())
    if name == "A5":
        rels = ["bbb", "ababababab"]
        pres = {"generators": ["a", "b"], "inverses": {"b": "B"}, "involutions": ["a"],
                "relators": rels}
        return Group(name, pres, "abB", rels, oracles.PermA5())
    raise KeyError(name)


class _FreeModel(oracles.Model):
    """F2: free reduction is the normal form, so the element is the word."""

    letters = "aAbB"
    identity = ""
    gens = {c: c for c in "aAbB"}

    def mul(self, x, y):
        return x[:-1] if x and x[-1] == y.swapcase() else x + y


# -- seeded inputs ----------------------------------------------------------


def random_word(rng: random.Random, g: Group, length: int) -> str:
    """A freely reduced word of exactly ``length`` letters."""
    out: list[str] = []
    while len(out) < length:
        c = rng.choice(g.letters)
        if out and g.inverse(out[-1]) == c:
            continue
        out.append(c)
    return "".join(out)


def equal_partner(rng: random.Random, g: Group, u: str, insertions: int) -> str:
    """A word equal to u in the group: conjugated relators (or their
    inverses, cyclically rotated) inserted at random positions."""
    rels = g.relators + [c + c for c in g.letters if g.inverse(c) == c]
    v = u
    for _ in range(insertions):
        r = rng.choice(rels)
        k = rng.randrange(len(r))
        r = r[k:] + r[:k]
        if rng.random() < 0.5:
            r = g.inverse(r)
        h = random_word(rng, g, rng.randrange(0, 4))
        pos = rng.randrange(len(v) + 1)
        v = v[:pos] + h + r + g.inverse(h) + v[pos:]
    return v


def wp_pairs(rng: random.Random, g: Group, count: int, length: int) -> list[tuple[str, str]]:
    """Word-problem pairs; every even-numbered pair is equal by construction."""
    out = []
    for i in range(count):
        u = random_word(rng, g, length)
        if i % 2 == 0:
            out.append((u, equal_partner(rng, g, u, 2)))
        else:
            out.append((u, random_word(rng, g, length)))
    return out
