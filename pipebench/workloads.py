"""The four workloads.

A workload holds seeded inputs made by the benchmark itself.  ``prepare``
is the program-side set-up (timed, repeated).  ``ops`` gives the list of
timed calls for one pass; every call carries a digest of its answer
(compared byte for byte across passes) and an oracle check (run on the
first pass, and on any pass whose digest differs).  ``entries`` are the
units whose per-pass times make ``geomean_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import corpus
import oracles
from oracles import expect


class SetupError(Exception):
    """The program failed during set-up, so no pass can run."""


@dataclass
class Op:
    entry: str
    kind: str
    call: Callable[[], Any]
    digest: Callable[[Any], bytes]
    check: Callable[[Any], None]  # raises on a wrong answer
    size: int = 1  # answers this call produces (words reduced, ...)


class Timing(NamedTuple):
    """One timed call of a pass.  It holds no reference to the call's
    inputs or answer, so a pass's structures are freed after it."""

    entry: str
    kind: str
    seconds: float


def sha(*parts) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"\x00")
    return h.digest()


def dfa_digest(d) -> bytes:
    return sha(d.num_states, d.initial, sorted(d.accepting), d.transitions)


def count_by_length(d, max_len: int) -> list[int]:
    """Accepted words of each length, read off the transition table."""
    vec = {d.initial: 1}
    out = []
    for _ in range(max_len + 1):
        out.append(sum(n for s, n in vec.items() if s in d.accepting))
        nxt: dict[int, int] = {}
        for s, n in vec.items():
            for t in d.transitions[s]:
                if t >= 0:
                    nxt[t] = nxt.get(t, 0) + n
        vec = nxt
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


class Workload:
    name = ""
    entries: list[str] = []

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir

    def encode(self, g: corpus.Group, word: str) -> bytes:
        return bytes(g.letters.index(c) for c in word)

    def decode(self, g: corpus.Group, word: bytes) -> str:
        return "".join(g.letters[c] for c in word)

    def presentation(self, ns, g: corpus.Group):
        pres = ns.formats.presentation_from_json(g.presentation)
        if "".join(pres.alphabet.names) != g.letters:
            raise SetupError(f"{g.name}: alphabet {pres.alphabet.names} is not {g.letters!r}")
        return pres

    def prepare(self, ns) -> None:
        raise NotImplementedError

    def ops(self, ns) -> list[Op]:
        raise NotImplementedError

    def detail(self, passes: list[list[Timing]]) -> dict:
        return {}

    def layer_counters(self) -> dict:
        return {}


# -- derive -----------------------------------------------------------------


class Derive(Workload):
    """derive_shortlex_structure with default limits on the corpus."""

    name = "derive"
    FULL = ["F2", "Z3", "B3", "A5", "A4", "D4", "H3", "F4", "A2aff", "C3aff", "T237", "T245"]
    TINY = ["F2", "A5", "T245"]
    TERMS = 9

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.entries = self.TINY if tiny else self.FULL
        self.groups = {name: corpus.group(name) for name in self.entries}

    def prepare(self, ns) -> None:
        self.pres = {n: self.presentation(ns, g) for n, g in self.groups.items()}

    def ops(self, ns) -> list[Op]:
        return [
            Op(name, "derive",
               lambda p=self.pres[name]: ns.autostruct.derive_shortlex_structure(p),
               lambda out: sha(out.status, out.transcript),
               lambda out, g=g: self.check(ns, g, out))
            for name, g in self.groups.items()
        ]

    def check(self, ns, g: corpus.Group, out) -> None:
        expect(f"{g.name} verdict", out.status, "verified")
        s = out.structure
        expect(f"{g.name} order", ns.groupcalc.group_order(s), g.order())
        expect(f"{g.name} spheres", ns.groupcalc.growth(s, self.TERMS).expand(self.TERMS),
               g.spheres(self.TERMS))


# -- query ------------------------------------------------------------------


class Query(Workload):
    """Consumer calls on verified structures: library normal forms with a
    warm partner memo, cone types, growth, order, enumeration, and the
    ``agt wp`` command on a saved bundle with a cold memo per call."""

    name = "query"
    FULL = ["B3", "Z3", "C3aff", "T246"]
    TINY = ["Z3", "T246"]

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.entries = self.TINY if tiny else self.FULL
        self.groups = {name: corpus.group(name) for name in self.entries}
        n_nf, n_wp = (2, 2) if tiny else (13, 10)  # 13 x 4 x two passes >= 100 per length
        self.nf_words = {
            (name, length): [corpus.random_word(self.rng, g, length) for _ in range(n_nf)]
            for name, g in self.groups.items()
            for length in (50, 200)
        }
        self.wp_pairs = {name: corpus.wp_pairs(self.rng, g, n_wp, 16) for name, g in self.groups.items()}
        self.structures: dict = {}

    def prepare(self, ns) -> None:
        for name, g in self.groups.items():
            out = ns.autostruct.derive_shortlex_structure(self.presentation(ns, g))
            if not out.verified:
                raise SetupError(f"{name}: derivation {out.status}: {out.reason}")
            path = self.workdir / "setup" / name
            shutil.rmtree(path, ignore_errors=True)
            ns.formats.save_structure(out.structure, path)

    def ops(self, ns) -> list[Op]:
        ops: list[Op] = []
        for name, g in self.groups.items():
            s = ns.formats.load_structure(self.workdir / "setup" / name)
            self.structures[name] = s
            bundle = self.workdir / "pass" / name
            shutil.rmtree(bundle, ignore_errors=True)
            ops.append(Op(name, "save", lambda s=s, b=bundle: ns.formats.save_structure(s, b),
                          lambda files, b=bundle: sha(*[(b / f).read_bytes() for f in files]),
                          lambda files: None))
            for length in (50, 200):
                for w in self.nf_words[(name, length)]:
                    ops.append(Op(name, f"nf{length}",
                                  lambda s=s, w=self.encode(g, w): ns.groupcalc.normal_form(s, w),
                                  lambda out: out,
                                  lambda out, g=g, w=w: self.check_nf(g, w, out)))
            ops.append(Op(name, "cone", lambda s=s: ns.groupcalc.cone_types(s, 8),
                          lambda out: sha(out.count, dfa_digest(out.automaton)),
                          lambda out, g=g: expect(f"{g.name} cone types", out.count,
                                                  corpus.ball(g.name, 8).cone_type_count())))
            ops.append(Op(name, "growth", lambda s=s: ns.groupcalc.growth(s, 16),
                          lambda out: sha(out.numerator, out.denominator),
                          lambda out, g=g: self.check_growth(g, out)))
            ops.append(Op(name, "order", lambda s=s: ns.groupcalc.group_order(s),
                          lambda out: sha(out),
                          lambda out, g=g: expect(f"{g.name} order", out, g.order())))
            ops.append(Op(name, "enumerate", lambda s=s: ns.groupcalc.enumerate_elements(s, 5),
                          lambda out: sha(*out),
                          lambda out, g=g: self.check_enumeration(g, out)))
            for u, v in self.wp_pairs[name]:
                ops.append(Op(name, "cli_wp", lambda b=bundle, u=u, v=v: run_cli(ns, ["wp", str(b), u, v]),
                              lambda out: sha(*out),
                              lambda out, g=g, u=u, v=v: expect(
                                  f"{g.name} wp {u} {v}", out,
                                  (0, "equal\n" if g.model.same(u, v) else "distinct\n", ""))))
        return ops

    def check_nf(self, g: corpus.Group, w: str, out: bytes) -> None:
        nf = self.decode(g, out)
        exact = g.normal_form(w)
        if exact is not None:
            expect(f"{g.name} normal form of {w}", nf, exact)
            return
        # B3: the answer must be the same element and no longer than w
        expect(f"{g.name} normal form of {w} is equal in the model", g.model.same(nf, w), True)
        expect(f"{g.name} normal form of {w} is shortlex-minimal so far",
               oracles.shortlex_less(w, nf, g.letters), False)

    def check_growth(self, g: corpus.Group, out) -> None:
        terms = 9 if g.name == "B3" else 16  # B3 sizes come from a ball in the model
        expect(f"{g.name} growth", out.expand(terms), g.spheres(terms))

    def check_enumeration(self, g: corpus.Group, out: list[bytes]) -> None:
        words = [self.decode(g, w) for w in out]
        counts = [sum(1 for w in words if len(w) == n) for n in range(6)]
        expect(f"{g.name} enumeration counts", counts, g.spheres(6))
        keys = {g.model.key(g.model.eval(w)) for w in words}
        expect(f"{g.name} enumerated elements are distinct", len(keys), len(words))

    def layer_counters(self) -> dict:
        return {"groupcalc.memo_entries": sum(len(s._partner_memo) for s in self.structures.values())}

    def detail(self, passes) -> dict:
        by_kind: dict[str, list[float]] = {}
        cone = []
        for records in passes:
            for t in records:
                by_kind.setdefault(t.kind, []).append(t.seconds)
            cone.append(sum(t.seconds for t in records if t.kind == "cone"))
        out = {}
        for kind in ("nf50", "nf200", "cli_wp"):
            ms = [dt * 1e3 for dt in by_kind.get(kind, [])]
            if ms:
                out[f"{kind}_p50_ms"] = percentile(ms, 0.5)
                out[f"{kind}_p90_ms"] = percentile(ms, 0.9)
                out[f"{kind}_samples"] = len(ms)
        out["cone_s"] = statistics.median(cone)
        return out


def run_cli(ns, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ns.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# -- kb ---------------------------------------------------------------------


class KB(Workload):
    """Knuth-Bendix writes (completion) and reads (reduction)."""

    name = "kb"
    FULL = {"B3": 450, "F4": None, "A5": None}  # rule cap, None for full completion
    TINY = {"F4": None, "A5": None}

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.caps = self.TINY if tiny else self.FULL
        self.groups = {name: corpus.group(name) for name in self.caps}
        self.entries = [f"{k}.{n}" for k in ("complete", "reduce") for n in self.caps]
        n_words = 20 if tiny else 1000
        self.words = {
            name: [corpus.random_word(self.rng, g, self.rng.randint(10, 60)) for _ in range(n_words)]
            for name, g in self.groups.items()
        }
        self.forms = {name: oracles.shortlex_forms(g.model)
                      for name, g in self.groups.items() if g.order() is not None}
        self.systems: dict = {}
        self.pairs: dict[str, int] = {}

    def prepare(self, ns) -> None:
        self.pres = {n: self.presentation(ns, g) for n, g in self.groups.items()}
        self.limits = {n: ns.limits.Limits() if cap is None else ns.limits.Limits(max_rules=cap)
                       for n, cap in self.caps.items()}

    def ops(self, ns) -> list[Op]:
        ops = []
        for name, g in self.groups.items():
            ops.append(Op(f"complete.{name}", "complete",
                          lambda name=name: self.complete(ns, name),
                          lambda out: sha(out[1], out[0].dump()),
                          lambda out, g=g: self.check_rules(g, *out)))
        for name, g in self.groups.items():
            words = [self.encode(g, w) for w in self.words[name]]
            ops.append(Op(f"reduce.{name}", "reduce",
                          lambda name=name, words=words: [self.systems[name].reduce(w) for w in words],
                          lambda out: sha(*out),
                          lambda out, g=g: self.check_reduced(g, out),
                          size=len(words)))
        return ops

    def complete(self, ns, name: str):
        rs = ns.rewrite.system_from_presentation(self.pres[name])
        result = ns.rewrite.Completion(rs, self.limits[name]).run()
        self.systems[name] = rs
        return rs, result

    def check_rules(self, g: corpus.Group, rs, result) -> None:
        self.pairs[g.name] = result.processed
        cap = self.caps[g.name]
        if cap is None:
            expect(f"{g.name} completion", result.status, "complete")
        else:
            expect(f"{g.name} bounded completion", (result.status, result.which, rs.num_live),
                   ("limitHit", "maxRules", cap))
        for rule in rs.rules:
            lhs, rhs = self.decode(g, rule.lhs), self.decode(g, rule.rhs)
            expect(f"{g.name} rule {lhs} -> {rhs} holds", g.model.same(lhs, rhs), True)
            expect(f"{g.name} rule {lhs} -> {rhs} is oriented",
                   oracles.shortlex_less(rhs, lhs, g.letters), True)

    def check_reduced(self, g: corpus.Group, out: list[bytes]) -> None:
        forms = self.forms.get(g.name)
        for w, r in zip(self.words[g.name], out):
            r = self.decode(g, r)
            if forms is not None:  # complete system of a finite group
                expect(f"{g.name} reduce {w}", r, forms[g.model.key(g.model.eval(w))])
            else:
                expect(f"{g.name} reduce {w} is equal in the model", g.model.same(r, w), True)
                expect(f"{g.name} reduce {w} is not longer", oracles.shortlex_less(w, r, g.letters), False)

    def detail(self, passes) -> dict:
        pairs = sum(self.pairs.values())
        words = sum(len(ws) for ws in self.words.values())
        kb = [sum(t.seconds for t in r if t.kind == "complete") for r in passes]
        red = [sum(t.seconds for t in r if t.kind == "reduce") for r in passes]
        return {"kb_pairs_per_s": pairs / statistics.median(kb),
                "reduce_words_per_s": words / statistics.median(red),
                "pairs_per_pass": pairs, "words_per_pass": words}


# -- coxeter ----------------------------------------------------------------


class Coxeter(Workload):
    """Root-system route: small roots, shortlex and geodesic acceptors,
    growth series of the shortlex acceptor."""

    name = "coxeter"
    FULL = ["H3", "F4", "E6", "A2aff", "C3aff", "T237", "T245"]
    TINY = ["A2aff", "T245"]
    TERMS = 16
    GEO_RADIUS = 6

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.entries = self.TINY if tiny else self.FULL
        self.groups = {name: corpus.group(name) for name in self.entries}
        self.acceptors: dict = {}

    def prepare(self, ns) -> None:
        self.matrices = {n: ns.formats.matrix_from_json({"m": g.matrix}) for n, g in self.groups.items()}

    def ops(self, ns) -> list[Op]:
        ops = []
        for name, g in self.groups.items():
            m = self.matrices[name]
            ops += [
                Op(name, "roots", lambda m=m: ns.coxeter.small_roots(m)[1],
                   lambda out: sha(out), lambda out, g=g: self.check_roots(g, out)),
                Op(name, "wa", lambda name=name, m=m: self.keep(name, ns.coxeter.build_shortlex_word_acceptor(m)),
                   dfa_digest, lambda out, g=g: expect(
                       f"{g.name} shortlex acceptor spheres", count_by_length(out, 10),
                       oracles.coxeter_growth(g.matrix, 11))),
                Op(name, "geo", lambda m=m: ns.coxeter.build_geodesic_acceptor(m),
                   dfa_digest, lambda out, g=g: expect(
                       f"{g.name} geodesic words by length", count_by_length(out, self.GEO_RADIUS),
                       corpus.ball(g.name, self.GEO_RADIUS).geodesic_counts())),
                Op(name, "growth", lambda name=name: ns.fsa.growth_series(self.acceptors[name], self.TERMS),
                   lambda out: sha(out.numerator, out.denominator),
                   lambda out, g=g: expect(f"{g.name} growth", out.expand(self.TERMS),
                                           oracles.coxeter_growth(g.matrix, self.TERMS))),
            ]
        return ops

    def keep(self, name: str, wa):
        self.acceptors[name] = wa
        return wa

    def check_roots(self, g: corpus.Group, roots) -> None:
        want = oracles.positive_root_count(g.matrix)
        if want is not None:
            expect(f"{g.name} small roots", len(roots), want)


WORKLOADS = {w.name: w for w in (Derive, Query, KB, Coxeter)}
