"""The shortlex automaticity pipeline.

From a presentation: run bounded Knuth-Bendix completion until the word
differences stabilise, build the candidate word acceptor and the
multiplier automata from the difference machine, apply the elementary
tests (feeding failure witnesses back into completion), and finally run
axiom checking.  The elementary tests are exact whole-language tests:
projection (dom M_y is L(WA)), uniqueness (M_eps is the diagonal) and
the inverse test (compose(M_y, M_{y^-1}) is the diagonal), which
together make every M_y a bijection of L(WA).  Each projection test is
one subset walk against the word acceptor
(:func:`pairfsa.projects_onto`) that also finds a failure's witness, so
projection tests and passing elementary checks build no automaton.
Axioms are then checked by relator halves over memoised composite
multipliers.  Where a composite is only compared, never reused, the test
is one inclusion walk (:func:`pairfsa.composite_within`), which the
bijections make an equality test: a passing inverse test and the last
composition of a relator half build no automaton.  Passing axiom checks
proves the automata form a shortlex automatic structure; failing them
abandons the attempt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from . import fsa, pairfsa
from .errors import ResourceLimitError
from .fsa import FAIL, Dfa
from .limits import Limits
from .pairfsa import PairAlphabet, PairDfa
from .rewrite import Completion, Presentation, RewriteSystem, system_from_presentation
from .words import Alphabet, Word
from .worddiff import WordDifferenceMachine, accumulate_from_rules, rule_differences

EPSILON_KEY = None  # multiplier map key for the identity multiplier

_LT, _GT, _PAD, _EQ = 0, 1, 2, 3  # a candidate v's standing against u


def build_candidate_word_acceptor(
    diff: WordDifferenceMachine, alphabet: Alphabet, state_cap: int = fsa.DEFAULT_STATE_CAP
) -> Dfa:
    """Candidate word acceptor: reject u as soon as some prefix u' admits
    a word v <_slex u' whose difference run ends at the empty difference.

    Rejecting on prefixes keeps the language prefix-closed (shortlex
    normal forms are).  One ``fsa.determinize`` tracks the runs of
    candidates v as items (difference, v lex-smaller / lex-bigger /
    ended and padded), plus the item "v equals u so far", which moves
    to itself on every letter and so lies in every subset.  A move that
    completes a witness (the empty difference, v smaller or ended) is a
    move to FAIL.
    """
    n = alphabet.size
    eps = diff.initial
    pad = diff.pairs.pad
    step = diff.step
    equal = eps * 4 + _EQ

    def expand(item: int, index: dict) -> list[tuple[int, int]]:
        d, flag = divmod(item, 4)
        out = []
        for x in range(n):
            if flag == _EQ:
                out.append((x, index[item]))
                runs = [(y, _LT if y < x else _GT) for y in range(n) if y != x]
            else:
                runs = [] if flag == _PAD else [(y, flag) for y in range(n)]
            for y, f in runs + [(pad, _PAD)]:
                d2 = step(d, x, y)
                if d2 >= 0:
                    out.append((x, FAIL if d2 == eps and f != _GT else index[d2 * 4 + f]))
        return out

    return fsa.determinize(
        alphabet, equal, expand, lambda item: item == equal, state_cap, "word acceptor states"
    )


class MultiplierProduct(NamedTuple):
    """The padded product of two word-acceptor runs with the difference
    machine, explored once for every multiplier.

    ``rows[i]`` lists product state ``i``'s defined moves as
    ``(pair symbol, target)`` pairs, symbols ascending, as
    :func:`fsa.minimal` reads them.  ``labels[i]`` is the difference
    state of product state ``i`` when both runs end accepted, and FAIL
    otherwise: only which label accepts depends on the multiplier's key.
    """

    pairs: PairAlphabet
    rows: tuple[tuple[tuple[int, int], ...], ...]
    labels: list[int]


def build_multipliers(
    wa: Dfa, diff: WordDifferenceMachine, state_cap: int = fsa.DEFAULT_STATE_CAP
) -> dict[int | None, PairDfa]:
    """All multipliers, M_eps first, then M_y for each generator y.

    M_y accepts (u, v) iff both are accepted by the word acceptor and
    the difference run ends at the state of the reduced word of y (the
    empty word for M_eps).  The word acceptor gets one more accepting
    state ``done``, entered on $ from every accepting state and from
    itself, and no other move: a side that has ended is in ``done``, and
    it was accepted where its padding started.  The product state is
    (u's state, v's state, difference).  The product is explored once
    and each multiplier minimised from its own accepting set (the
    general multiplier of Epstein et al., *Word Processing in Groups*,
    1992).
    """
    pa = diff.pairs
    pad = pa.pad
    symbols = [pa.parts(k) for k in range(pa.alphabet.size)]
    done = wa.num_states
    # wa's rows with the pad column (index pad) added, then done's row
    step = [(*row, done if s in wa.accepting else FAIL) for s, row in enumerate(wa.transitions)]
    step.append((FAIL,) * pad + (done,))
    final = wa.accepting | {done}

    def expand(state: tuple[int, int, int], index: dict) -> tuple[tuple[int, int], ...]:
        su, sv, d = state
        ru, rv = step[su], step[sv]
        row = []
        for k, (a, b) in enumerate(symbols):
            d2 = diff.step_sym(d, k)
            if d2 >= 0 and ru[a] != FAIL and rv[b] != FAIL:
                row.append((k, index[ru[a], rv[b], d2]))
        return tuple(row)

    start = (wa.initial, wa.initial, diff.initial)
    order, rows = fsa.explore(start, expand, state_cap, "multiplier states")
    labels = [d if su in final and sv in final else FAIL for su, sv, d in order]
    product = MultiplierProduct(pa, tuple(rows), labels)
    del order, rows  # only the product stays alive across the minimisations
    reduce = diff.reducer.reduce if diff.reducer else bytes
    keys = (EPSILON_KEY, *range(wa.alphabet.size))
    words = {key: reduce(b"" if key is None else bytes((key,))) for key in keys}
    return {key: build_multiplier(product, diff.state_of(w)) for key, w in words.items()}


def build_multiplier(product: MultiplierProduct, target: int | None) -> PairDfa:
    """One multiplier of the explored product: the states labelled
    ``target`` accept, then minimise.

    A target that is not a difference state (None) labels no state, so
    the multiplier is the one-state empty automaton.
    """
    pa, rows, labels = product
    accepting = [i for i, d in enumerate(labels) if d == target]
    return PairDfa(pa.base, fsa.minimal(pa.alphabet, 0, accepting, rows), pa)


@dataclass
class AutomaticStructure:
    """Word acceptor, multipliers and provenance for one derivation."""

    presentation: Presentation
    word_acceptor: Dfa
    multipliers: dict[int | None, PairDfa]
    diff_machine: WordDifferenceMachine
    k: int
    verified: bool = False
    transcript: str = ""
    reducer: RewriteSystem | None = None
    _partner_memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def alphabet(self) -> Alphabet:
        return self.presentation.alphabet


@dataclass
class CheckFailure:
    kind: str  # "epsilon" | "projection" | "uniqueness" | "inverse"
    symbol: int | None = None  # multiplier key involved
    witness: Word | None = None
    partners: tuple[Word, ...] = ()


@dataclass
class ElementaryReport:
    ok: bool
    failures: list[CheckFailure] = field(default_factory=list)


def elementary_checks(
    s: AutomaticStructure, state_cap: int = fsa.DEFAULT_STATE_CAP
) -> ElementaryReport:
    """The exact whole-language tests that must pass before axiom checking.

    (a) the word acceptor accepts the empty word;
    (b) each generator's M_y projects onto L = L(WA) on its first
        coordinate.  (d) relies on this: it is what makes (d)'s
        inclusion test exact.  The second coordinate follows from (b),
        (c) and (d) (below), so it is not tested.  The test is one
        subset walk, :func:`pairfsa.projects_onto` of M_y and WA,
        bounded by ``state_cap``, which builds no automaton, passing or
        failing.  It pairs WA's state on a word w with the set of M_y
        states that reading w on the first side reaches: w must be
        accepted by both or by neither;
    (c) uniqueness: M_eps is the diagonal of L, so no two accepted words
        represent the same element;
    (d) the inverse test: for each generator y, compose(M_y, M_{y^-1})
        is the diagonal of L.  It is decided by one inclusion walk,
        :func:`pairfsa.composite_within` of M_y, M_{y^-1} and the
        diagonal, which builds no composite.  After (b) the inclusion is
        the equality: for w in L, dom M_y = L gives a v with (w, v) in
        M_y, and v in L = dom M_{y^-1} gives a z with (v, z) in
        M_{y^-1}; (w, z) then lies in the composite, so inside the
        diagonal, and z = w.  So the composite holds every (w, w).

    Why (c) and (d) make every M_y a bijection of L with inverse
    M_{y^-1}.  Let R = M_y and S = M_{y^-1}; both are subsets of L x L,
    as a multiplier accepts only when both runs end accepted.  (d) for y
    and for y^-1 gives R;S = diag(L) and S;R = diag(L).  Then dom R = L,
    because (u, u) is in R;S.  R is functional: if u R v1 and u R v2,
    then v1 S w for some w (dom S = L), and u R v1 S w forces w = u; so
    v1 S u, and v1 S u R v2 gives v2 = v1.  R is injective by the mirror
    argument, and onto because (v, v) is in S;R.  So the range of every
    M_y is L too, and every u has exactly one partner.

    Minimized automata are canonical, so (c) is a structural equality.
    A projection failure has the shortlex-least word of L outside the
    projection as its witness, read off the walk, or none when L lies
    inside it.  Every failure of (c) and (d) is collected.  Its relation
    is M_eps (kind "uniqueness") or the composite, built only when the
    walk fails (kind "inverse").  If the relation has a pair (u, w) off
    the diagonal, the shortlex-least one gives witness u and partners
    (u, w); otherwise the shortlex-least missing (u, u) gives witness u.
    Failures feed the retry loop as equations.
    """
    failures: list[CheckFailure] = []
    wa = s.word_acceptor
    if not wa.accepts(b""):
        return ElementaryReport(False, [CheckFailure(kind="epsilon")])
    A = s.alphabet
    for y in range(A.size):
        onto, witness = pairfsa.projects_onto(s.multipliers[y], wa, state_cap)
        if not onto:
            failures.append(CheckFailure("projection", y, witness))
    if failures:
        return ElementaryReport(False, failures)
    diag = pairfsa.diagonal(wa)
    for key in (EPSILON_KEY, *range(A.size)):
        if key is EPSILON_KEY:
            kind, rel = "uniqueness", s.multipliers[key]
            if rel == diag:
                continue
        else:
            m, back = s.multipliers[key], s.multipliers[A.inverse[key]]
            if pairfsa.composite_within(m, back, diag, state_cap):
                continue
            kind, rel = "inverse", pairfsa.compose(m, back, state_cap)
        extra = fsa.shortest_accepted(fsa.boolean_op("minus", rel.dfa, diag.dfa, state_cap))
        if extra is not None:
            u, w = pairfsa.decode_pair(rel.pairs, extra)
            failures.append(CheckFailure(kind, key, u, (u, w)))
        else:
            missing = fsa.shortest_accepted(fsa.boolean_op("minus", diag.dfa, rel.dfa, state_cap))
            failures.append(CheckFailure(kind, key, pairfsa.decode_pair(rel.pairs, missing)[0]))
    return ElementaryReport(not failures, failures)


@dataclass
class AxiomReport:
    ok: bool
    failed_relator: Word | None = None


def axiom_check(s: AutomaticStructure, state_cap: int = fsa.DEFAULT_STATE_CAP) -> AxiomReport:
    """Axiom checking: M(u) = M(v^-1) for every relator r = uv with
    |u| = ceil(|r|/2).

    M(w) is the composite multiplier of the word w, memoised per call.
    A word is known when M(w) or M(w^-1) is in the memo; M(w) is then
    the memo entry or the swap of M(w^-1).  A new M(w) is built as
    compose(M_{w[0]}, M(w[1:])) when w[1:] is known and w[:-1] is not,
    and otherwise from its longest known prefix, composing one letter
    at a time and memoising each prefix, so prefixes shared by relator
    halves are composed once.

    A relator whose halves are both known, whose second half is the
    first one's inverse, or with a half of at most one letter compares
    the two halves' multipliers, by structural equality of the canonical
    automata that build_multiplier, compose and swap return.  Any other
    relator's last composition is decided without being built.  Its
    half w is the first half, or the second if the first is known;
    M(w[:-1]) is built, then the other half's M(x), and
    ``pairfsa.composite_within(M(w[:-1]), M_{w[-1]}, M(x))`` decides the
    relator.  B3's halves aba and bab take two compositions, M(ab) and
    M(bab) = compose(M_b, M(ab)), and one walk of M(ab) and M_a within
    M(bab); so do S3's, where a and b are involutions and M(bab) is
    composed from M(ba), the swap of M(ab).

    Every plan gives the same M(w) once the elementary checks have
    passed.  By uniqueness and the inverse test, each M_y is a bijection
    f_y of L(WA) with inverse f_{y^-1}, so f_{w^-1} = (f_w)^-1 for every
    word w, not only for a whole half: M(w^-1) is the swap of M(w) at
    every prefix.  Relation composition is associative, so M(w) is the
    same however w is split.  Checking halves is then enough: f_u =
    f_{v^-1} holds iff f_v o f_u = id, that is iff M(uv) = M_eps.  The
    walk is exact for the same reason: M(w) and M(x) are the graphs of
    two functions defined on all of L, and when one graph lies inside
    the other they agree at every word, so the graphs are equal.  A pass
    proves the structure; a failure abandons the derivation.
    """
    A = s.alphabet
    memo: dict[Word, PairDfa] = {b"": s.multipliers[EPSILON_KEY]}
    for y in range(A.size):
        memo[bytes((y,))] = s.multipliers[y]

    def known(w: Word) -> bool:
        return w in memo or A.invert(w) in memo

    def lookup(w: Word) -> PairDfa:
        # a known word's multiplier, the swap of its inverse's if need be
        if w not in memo:
            memo[w] = pairfsa.swap(memo[A.invert(w)])
        return memo[w]

    def mult(w: Word) -> PairDfa:
        i = len(w)
        while not known(w[:i]):
            i -= 1
        if i < len(w) - 1 and known(w[1:]):
            memo[w] = pairfsa.compose(s.multipliers[w[0]], lookup(w[1:]), state_cap)
            return memo[w]
        acc = lookup(w[:i])
        for j in range(i, len(w)):
            acc = memo[w[: j + 1]] = pairfsa.compose(acc, s.multipliers[w[j]], state_cap)
        return acc

    for relator in s.presentation.relators:
        half = (len(relator) + 1) // 2
        u, vi = relator[:half], A.invert(relator[half:])
        if known(u) and known(vi) or A.invert(vi) == u or min(len(u), len(vi)) <= 1:
            same = mult(u) == mult(vi)
        else:
            if known(u):
                u, vi = vi, u
            prefix = mult(u[:-1])
            same = pairfsa.composite_within(prefix, s.multipliers[u[-1]], mult(vi), state_cap)
        if not same:
            return AxiomReport(False, failed_relator=relator)
    return AxiomReport(True)


@dataclass
class DeriveOutcome:
    status: str  # "verified" | "abandoned"
    structure: AutomaticStructure | None
    transcript: str
    reason: str | None = None
    resource_limited: bool = False

    @property
    def verified(self) -> bool:
        return self.status == "verified"


def derive_shortlex_structure(
    pres: Presentation, limits: Limits | None = None
) -> DeriveOutcome:
    """The outer loop: complete a while, build automata, test, retry.

    Completion pauses when no new word difference has appeared during
    the last ``stability_window`` processed critical pairs.  Elementary
    failures feed witness equations back and resume completion; axiom
    failure, a resource limit or pass exhaustion abandons with a
    transcript.
    """
    limits = limits or Limits()
    A = pres.alphabet
    PairAlphabet(A)  # refuses, before any completion, a base too large for pair automata
    rs = system_from_presentation(pres)
    comp = Completion(rs, limits)
    lines: list[str] = []
    diff_words: set[Word] = set()
    since_new = 0
    structure: AutomaticStructure | None = None

    def name(y: int | None) -> str:
        return "eps" if y is None else A.names[y]

    def log(text: str) -> None:
        lines.append(f"pass {pass_no}: {text}")

    def abandon(reason: str, resource_limited: bool = False) -> DeriveOutcome:
        return DeriveOutcome("abandoned", structure, "\n".join(lines), reason, resource_limited)

    def note_rule(lhs: Word, rhs: Word) -> None:
        nonlocal since_new
        for d in rule_differences(rs, lhs, rhs):
            if d not in diff_words:
                diff_words.add(d)
                diff_words.add(rs.reduce(A.invert(d)))
                since_new = 0

    def pause_when(c: Completion) -> bool:
        nonlocal since_new
        since_new += 1
        return since_new >= limits.stability_window

    comp.on_rule = note_rule
    for pass_no in range(1, limits.max_passes + 1):
        structure = None
        since_new = 0
        result = comp.run(pause_when)
        log(
            f"kb status={result.status}"
            + (f" which={result.which}" if result.which else "")
            + f" rules={rs.num_live} processed={result.processed} queue={result.queue_size}"
        )
        phase = "resource failure"
        try:
            diff = accumulate_from_rules(rs)
            k = diff.max_difference_length()
            log(f"diffs={diff.num_states} k={k}")
            wa = build_candidate_word_acceptor(diff, A, limits.state_cap)
            log(f"wa states={wa.num_states} (+sink={wa.num_states_with_sink})")
            multipliers = build_multipliers(wa, diff, limits.state_cap)
            log(" ".join(f"m_{name(y)}={m.dfa.num_states}" for y, m in multipliers.items()))
            for y, m in multipliers.items():
                if m.is_empty():
                    log(f"warning multiplier m_{name(y)} is empty")
            structure = AutomaticStructure(pres, wa, multipliers, diff, k, reducer=rs)
            phase = "elementary check resource failure"
            report = elementary_checks(structure, limits.state_cap)
            if report.ok:
                log("elementary=ok")
                phase = "axiom check resource failure"
                ax = axiom_check(structure, limits.state_cap)
        except ResourceLimitError as exc:
            log(f"{phase}: {exc}")
            return abandon(str(exc), resource_limited=True)
        if not report.ok:
            descs = []
            injected = 0
            for f in report.failures:
                w = A.format_word(f.witness) if f.witness is not None else "-"
                descs.append(f"{f.kind}(m_{name(f.symbol)}, witness={w!r})")
                if f.witness is not None and f.symbol is not None:
                    uy = f.witness + bytes((f.symbol,))
                    nf = rs.reduce(uy)
                    if nf != uy:
                        comp.enqueue((uy, nf))
                        injected += 1
                for v1, v2 in zip(f.partners, f.partners[1:]):
                    comp.enqueue((v1, v2))
                    injected += 1
            log(f"elementary=failed [{'; '.join(descs)}] injected={injected}")
            if not comp.pending:
                log("no further equations available; giving up")
                return abandon("elementary checks fail with no equations left to process")
            continue
        if not ax.ok:
            what = f"relator {A.format_word(ax.failed_relator)!r}"
            log(f"axiom=failed on {what}; procedure abandoned")
            return abandon(f"axiom check failed on {what}")
        log("axiom=ok")
        lines.append(f"verified: k={k}")
        structure.verified = True
        structure.transcript = "\n".join(lines)
        return DeriveOutcome("verified", structure, structure.transcript)
    lines.append(f"abandoned: pass limit ({limits.max_passes}) exhausted")
    return abandon("pass limit exhausted")
