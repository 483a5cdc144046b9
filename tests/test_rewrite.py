import random
import sys
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from agt.errors import UsageError
from agt.limits import Limits
from agt.rewrite import (
    Completion,
    OverlapBatch,
    Presentation,
    RewriteSystem,
    system_from_presentation,
)
from agt.words import inverse_closed_alphabet

from oracles import (
    ZSquaredModel,
    critical_pairs,
    leftmost_reduce,
    overlap_equations,
    s3_model,
    touched_rules,
)


@pytest.fixture(scope="module")
def ab():
    return inverse_closed_alphabet(["a", "b"], {"a": "A", "b": "B"})


@pytest.fixture(scope="module")
def cox():
    return inverse_closed_alphabet(["a", "b"], involutions=["a", "b"])


def z2_presentation(ab):
    return Presentation(ab, [ab.parse_word("abAB")])


# -- construction -----------------------------------------------------------


def test_presentation_drops_empty_relators(ab):
    p = Presentation(ab, [ab.parse_word("abBA"), ab.parse_word("abAB")])
    assert p.relators == (ab.parse_word("abAB"),)


def test_system_from_presentation_z2(ab):
    rs = system_from_presentation(z2_presentation(ab))
    rules = {(ab.format_word(l), ab.format_word(r)) for l, r in rs.rules}
    assert ("ba", "ab") in rules
    assert ("aA", "") in rules and ("Aa", "") in rules
    assert ("bB", "") in rules and ("Bb", "") in rules


def test_system_from_presentation_free_group(ab):
    rs = system_from_presentation(Presentation(ab, []))
    assert all(r.rhs == b"" and len(r.lhs) == 2 for r in rs.rules)
    assert rs.num_live == 4


def test_system_involution_square(cox):
    single = inverse_closed_alphabet(["a"], involutions=["a"])
    rs = system_from_presentation(Presentation(single, [single.parse_word("aa")]))
    assert [(single.format_word(l), single.format_word(r)) for l, r in rs.rules] == [
        ("aa", "")
    ]


def test_system_braid_split(ab):
    rs = system_from_presentation(Presentation(ab, [ab.parse_word("abaBAB")]))
    rules = {(ab.format_word(l), ab.format_word(r)) for l, r in rs.rules}
    assert ("bab", "aba") in rules


def test_add_rule_orientation_guard(ab):
    rs = RewriteSystem(ab)
    with pytest.raises(UsageError):
        rs.add_rule(ab.parse_word("ab"), ab.parse_word("ba"))


def test_add_rule_needs_an_irreducible_lhs_and_retires_the_rules_containing_it(ab):
    rs = RewriteSystem(ab)
    rs.add_rule(ab.parse_word("bab"), ab.parse_word("a"))
    rs.add_rule(ab.parse_word("bb"), ab.parse_word("aa"))
    rs.add_rule(ab.parse_word("aBa"), ab.parse_word("ba"))
    with pytest.raises(UsageError):
        rs.add_rule(ab.parse_word("bb"), ab.parse_word("a"))
    with pytest.raises(UsageError):
        rs.add_rule(ab.parse_word("abba"), b"")
    idx, retired = rs.add_rule(ab.parse_word("ba"), ab.parse_word("ab"))
    assert idx == 3 and retired == [(ab.parse_word("bab"), ab.parse_word("a"))]
    assert rs.dump().splitlines() == ["bb -> aa", "aBa -> ab", "ba -> ab"]
    assert rs.reduce(ab.parse_word("bab")) == ab.parse_word("aaa")


@pytest.mark.parametrize("relators", [["aab", "aaB"], ["aaB", "aab"]])
def test_system_from_presentation_keeps_relators_with_one_oriented_lhs(ab, relators):
    # both relators orient to aa -> ..., which once dropped the second one
    rs = system_from_presentation(Presentation(ab, [ab.parse_word(r) for r in relators]))
    assert Completion(rs).run().status == "complete"
    z4 = {0: 1, 1: 3, 2: 2, 3: 2}  # a -> 1, A -> 3, b = a^2 -> 2, B -> 2 in Z/4
    seen, words = {b""}, [b""]
    while words:
        w = words.pop()
        for c in range(ab.size):
            nxt = rs.reduce(w + bytes((c,)))
            if nxt not in seen:
                seen.add(nxt)
                words.append(nxt)
    assert len(seen) == 4
    assert len({sum(z4[c] for c in w) % 4 for w in seen}) == 4


# -- reduction ----------------------------------------------------------------


def test_reduce_examples(ab):
    rs = system_from_presentation(z2_presentation(ab))
    Completion(rs).run()
    assert rs.reduce(ab.parse_word("ba")) == ab.parse_word("ab")
    assert rs.reduce(ab.parse_word("ab")) == ab.parse_word("ab")
    assert rs.reduce(ab.parse_word("aA")) == b""


def test_reduce_leftmost_lowest_index(ab):
    rs = RewriteSystem(ab)
    rs.add_rule(ab.parse_word("ab"), ab.parse_word("aa"))  # rule 0
    rs.add_rule(ab.parse_word("bb"), ab.parse_word("ab"))  # rule 1 (longer word maps down)
    # "abb": leftmost position 0 matches rule 0 even though rule 1 matches at 1
    out = rs.reduce(ab.parse_word("abb"))
    # ab|b -> aa|b; then no match ("ab" at 1? a,a,b: "ab" at position 1) -> a|ab -> a|aa
    assert out == ab.parse_word("aaa")


def test_reduce_left_sides_longer_than_the_recursion_limit():
    single = inverse_closed_alphabet(["a"], {"a": "A"})
    n = sys.getrecursionlimit() + 100
    rs = system_from_presentation(Presentation(single, [b"\0" * (2 * n)]))
    assert rs.dump().splitlines()[-1] == "A" * n + " -> " + "a" * n
    for w in (b"\1" * (n - 1) + b"\0", b"\1" * (n - 1) + b"\0" * n, b"\1" * (3 * n)):
        assert rs.reduce(w) == leftmost_reduce(rs.rules, w)


# -- critical pairs -------------------------------------------------------------


def test_critical_pairs_resolved_self_overlap():
    single = inverse_closed_alphabet(["a"], involutions=["a"])
    rs = RewriteSystem(single)
    rs.add_rule(single.parse_word("aa"), b"")
    assert critical_pairs(rs) == []


def test_critical_pairs_z2_initial(ab):
    rs = system_from_presentation(z2_presentation(ab))
    pairs = critical_pairs(rs)
    assert pairs  # the ba/aA overlap produces an unresolved consequence
    formatted = {(ab.format_word(a), ab.format_word(b)) for a, b in pairs}
    assert ("b", "abA") in formatted


def test_critical_pairs_disjoint_lhs(ab):
    rs = RewriteSystem(ab)
    rs.add_rule(ab.parse_word("aa"), b"")
    rs.add_rule(ab.parse_word("bb"), b"")
    assert critical_pairs(rs) == []


# -- completion ------------------------------------------------------------------


def test_knuth_bendix_s3(cox):
    rs = system_from_presentation(Presentation(cox, [cox.parse_word("ababab")]))
    result = Completion(rs).run()
    assert result.status == "complete"
    assert rs.confluent
    assert critical_pairs(rs) == []
    # irreducible words = group elements
    model = s3_model()
    elements = set()
    words = [b""]
    seen = {b""}
    while words:
        w = words.pop()
        elements.add(model.element_of(w))
        for c in range(cox.size):
            nxt = rs.reduce(w + bytes((c,)))
            if nxt not in seen:
                seen.add(nxt)
                words.append(nxt)
    assert len(seen) == 6 and len(elements) == 6


def test_knuth_bendix_z2_canonical_system(ab):
    rs = system_from_presentation(z2_presentation(ab))
    result = Completion(rs).run()
    assert result.status == "complete"
    dump = rs.dump().splitlines()
    assert sorted(dump) == sorted(
        ["aA -> ", "Aa -> ", "bB -> ", "Bb -> ", "ba -> ab", "Ba -> aB", "bA -> Ab", "BA -> AB"]
    )
    # irreducible counts match Z^2 sphere sizes 1, 4, 8, 12, ...
    model = ZSquaredModel()
    layer = [b""]
    seen = {b""}
    for length in range(1, 6):
        nxt = []
        for w in layer:
            for c in range(ab.size):
                r = rs.reduce(w + bytes((c,)))
                if len(r) == length and r not in seen:
                    seen.add(r)
                    nxt.append(r)
        assert len(nxt) == 4 * length
        assert len({model.element_of(w) for w in nxt}) == len(nxt)
        layer = nxt


def test_knuth_bendix_free_group_immediate(ab):
    rs = system_from_presentation(Presentation(ab, []))
    result = Completion(rs).run()
    assert result.status == "complete"
    assert rs.num_live == 4


def test_limits_max_rules(ab):
    rs = system_from_presentation(Presentation(ab, [ab.parse_word("abaBAB")]))
    result = Completion(rs, Limits(max_rules=6)).run()
    assert result.status == "limitHit" and result.which == "maxRules"


def test_limits_lhs_cap_reports(ab):
    rs = system_from_presentation(Presentation(ab, [ab.parse_word("abaBAB")]))
    result = Completion(rs, Limits(max_lhs_len=3, max_rhs_len=3, max_rules=50)).run()
    assert result.status == "limitHit"
    assert "maxLhsLen" in result.which


def test_pause_hook(ab):
    rs = system_from_presentation(Presentation(ab, [ab.parse_word("abaBAB")]))
    result = Completion(rs).run(lambda c: c.processed >= 3)
    assert result.status == "paused"
    assert result.processed == 3


# -- invariants -------------------------------------------------------------------


def random_word(rng, n_syms, max_len=12):
    return bytes(rng.randrange(n_syms) for _ in range(rng.randrange(max_len + 1)))


def test_reduce_idempotent_and_shortlex_decreasing(ab):
    rs = system_from_presentation(z2_presentation(ab))
    Completion(rs).run()
    rng = random.Random(17)
    for _ in range(10_000):
        w = random_word(rng, ab.size)
        r = rs.reduce(w)
        assert rs.reduce(r) == r
        assert r == w or ab.shortlex_less(r, w)


def test_confluent_system_decides_word_problem(ab):
    rs = system_from_presentation(z2_presentation(ab))
    Completion(rs).run()
    relator = ab.parse_word("abAB")
    rng = random.Random(23)
    for _ in range(200):
        u = random_word(rng, ab.size, 8)
        # v = u with relator conjugates inserted: same group element
        g = random_word(rng, ab.size, 3)
        ins = ab.invert(g) + relator + g
        pos = rng.randrange(len(u) + 1)
        v = u[:pos] + ins + u[pos:]
        assert rs.reduce(u) == rs.reduce(v)


def test_rules_recover_identity_on_complete_systems(ab, cox):
    for alphabet, rel in ((ab, "abAB"), (cox, "ababab")):
        rs = system_from_presentation(Presentation(alphabet, [alphabet.parse_word(rel)]))
        Completion(rs).run()
        assert rs.confluent
        for lhs, rhs in rs.rules:
            assert rs.reduce(lhs + alphabet.invert(rhs)) == b""


def test_completion_determinism(ab):
    def run():
        rs = system_from_presentation(Presentation(ab, [ab.parse_word("abaBAB")]))
        Completion(rs, Limits(max_rules=60)).run()
        return rs.dump()

    assert run() == run()


# -- against the references ------------------------------------------------------


words_ab = st.binary(max_size=7).map(lambda b: bytes(c % 4 for c in b))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.booleans(), words_ab, words_ab), max_size=25),
    st.lists(words_ab.map(lambda w: w * 3), min_size=1, max_size=6),
)
# ab and aB end on the row of a; retiring ab leaves that row holding aB's code
@example([(True, b"\0\2", b""), (True, b"\0\3", b""), (False, b"", b"")], [b"\0\3\1" * 3])
def test_reduce_matches_the_leftmost_reference(ops, probes):
    """After each random addition or retirement, reduce gives what the
    leftmost, lowest-indexed rescan gives on the live rules."""
    ab = inverse_closed_alphabet(["a", "b"], {"a": "A", "b": "B"})
    rs = RewriteSystem(ab)
    for add, w1, w2 in ops:
        if add:
            u, v = rs.reduce(w1), rs.reduce(w2)
            if u != v:
                rs.add_rule(*((u, v) if ab.shortlex_less(v, u) else (v, u)))
        elif rs.num_live:
            live = rs.live_items()
            rs.remove_rule(live[len(w1) % len(live)][0])
        # the trie's states are found by their words, which are the proper
        # prefixes of the live left sides, b"" included; each state is a row
        # offset, and each live left side maps to its rule's code
        node_of = rs._node_of
        live = rs.live_items()
        assert node_of.keys() == {b"", *rs._prefixes, *(lhs for _, (lhs, _) in live)}
        states = {w: s for w, s in node_of.items() if s >= 0}
        assert states.keys() == {b"", *rs._prefixes}
        assert all(s % ab.size == 0 and rs._word[s] == w for w, s in states.items())
        assert rs._word.keys() == set(states.values())
        for i, (lhs, _) in live:
            assert node_of[lhs] == rs._next[node_of[lhs[:-1]] + lhs[-1]] == -2 - i
        # no move of the trie leads to a retired rule's code
        assert {t for t in rs._next if t < -1} == {-2 - i for i, _ in live}
        for w in probes:
            assert rs.reduce(w) == leftmost_reduce(rs.rules, w)


def test_prefix_index_shares_the_node_words(ab):
    """Each proper prefix of a live left side is held once: the prefix
    index is keyed by the word object of the prefix's trie state."""
    rs = system_from_presentation(Presentation(ab, [ab.parse_word("abaBAB")]))
    Completion(rs, Limits(max_rules=450)).run()
    assert rs.num_live == 450
    assert rs._prefixes
    for key in rs._prefixes:
        s = rs._node_of[key]
        assert s > 0 and s % ab.size == 0 and key is rs._word[s]


def test_missing_move_lands_on_a_longer_suffix(ab):
    """Reading abb, the trie has no move from ab on b: the automaton goes
    to bb, a prefix of bbaa, and not to b or the root, so the match bbaa
    of abbaa is found."""
    rs = RewriteSystem(ab)
    rs.add_rule(ab.parse_word("abaa"), b"")
    rs.add_rule(ab.parse_word("bbaa"), b"")
    w = ab.parse_word("abbaa")
    assert rs.reduce(w) == leftmost_reduce(rs.rules, w) == ab.parse_word("a")
    from_ab_on_b = rs._node_of[ab.parse_word("ab")] + ab.parse_word("b")[0]
    assert rs._next[from_ab_on_b] == -1
    assert rs._goto[from_ab_on_b] == rs._node_of[ab.parse_word("bb")] > 0


def test_single_letter_left_sides_put_rule_codes_on_the_root():
    """<a,b,c | aB, c> completes to aA, Aa, b -> a, c, C and B -> A: each
    one-letter left side is a move of the root holding its rule's code.
    Retiring c -> e cuts that move, and reduction follows."""
    abc = inverse_closed_alphabet(["a", "b", "c"], {"a": "A", "b": "B", "c": "C"})
    rs = system_from_presentation(Presentation(abc, [abc.parse_word("aB"), abc.parse_word("c")]))
    assert Completion(rs).run().status == "complete"
    assert rs.dump().splitlines() == ["aA -> ", "Aa -> ", "b -> a", "c -> ", "C -> ", "B -> A"]
    code = {abc.format_word(lhs): -2 - i for i, (lhs, _) in rs.live_items()}
    for x in "bcCB":
        assert rs._next[abc.parse_word(x)[0]] == rs._node_of[abc.parse_word(x)] == code[x]
    probes = [abc.parse_word(w) for w in ("bcBCAcb", "cccb", "aCbBc", "CaAcB")]
    for w in probes:
        assert rs.reduce(w) == leftmost_reduce(rs.rules, w)
    assert rs.reduce(probes[0]) == b""
    c = abc.parse_word("c")
    rs.remove_rule(next(i for i, (lhs, _) in rs.live_items() if lhs == c))
    assert rs._next[c[0]] == -1 and c not in rs._node_of
    for w in probes:
        assert rs.reduce(w) == leftmost_reduce(rs.rules, w)
    assert rs.reduce(probes[1]) == abc.parse_word("ccca")


@pytest.mark.parametrize(
    "word", [b"\x05", b"\x00\x07", b"\xc8", "ab"], ids=["letter", "later_letter", "byte", "str"]
)
def test_reduce_refuses_a_word_outside_the_alphabet(ab, word):
    rs = system_from_presentation(z2_presentation(ab))
    Completion(rs).run()
    with pytest.raises(UsageError):
        rs.reduce(word)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.booleans(), words_ab, words_ab), max_size=25))
def test_add_rule_touches_what_the_full_scan_finds(ops):
    """After each random addition or retirement, add_rule retires the
    rules, and reduces again the right sides, that a test of every live
    rule finds, in index order."""
    ab = inverse_closed_alphabet(["a", "b"], {"a": "A", "b": "B"})
    rs = RewriteSystem(ab)
    for add, w1, w2 in ops:
        if add:
            u, v = rs.reduce(w1), rs.reduce(w2)
            if u == v:
                continue
            lhs, rhs = (u, v) if ab.shortlex_less(v, u) else (v, u)
            before = dict(rs.live_items())
            retire, stale = touched_rules(before.items(), lhs)
            _, retired = rs.add_rule(lhs, rhs)
            after = dict(rs.live_items())
            assert retired == [before[j] for j in retire]
            assert [j for j in after if j in before and after[j] is not before[j]] == stale
        elif rs.num_live:
            live = rs.live_items()
            rs.remove_rule(live[len(w1) % len(live)][0])


def test_add_rule_matches_no_word_across_two_sides(ab):
    """ba is the end of one stored side followed by the start of the
    next, for the left sides Ab, aB and the right sides b, a: it is in
    no side, so nothing is retired or reduced again."""
    rs = RewriteSystem(ab)
    rs.add_rule(ab.parse_word("Ab"), ab.parse_word("b"))
    rs.add_rule(ab.parse_word("aB"), ab.parse_word("a"))
    before = rs.live_items()
    lhs = ab.parse_word("ba")
    for sides in zip(*(rule for _, rule in before)):
        assert lhs in b"".join(sides)
    assert touched_rules(before, lhs) == ([], [])
    assert rs.add_rule(lhs, ab.parse_word("ab")) == (2, [])
    assert rs.live_items()[:2] == before
    assert rs.dump().splitlines() == ["Ab -> b", "aB -> a", "ba -> ab"]


def presentation_over(involutions, relators):
    if involutions:
        alphabet = inverse_closed_alphabet(["a", "b"], involutions=["a", "b"])
    else:
        alphabet = inverse_closed_alphabet(["a", "b"], {"a": "A", "b": "B"})
    return Presentation(alphabet, [bytes(c % alphabet.size for c in r) for r in relators])


def seed_equations(rs):
    """What the eager scan queues at the start: every pair of live rules."""
    live = rs.live_items()
    return [eq for i, r1 in live for j, r2 in live for eq in overlap_equations(r1, r2, i == j)]


def added_equations(before, after):
    """What the eager scan appends when a rule is added and the live
    rules go from ``before`` to ``after`` (dicts by index): the retired
    rules, then the new rule's overlaps with every live rule."""
    expected = [rule for j, rule in before.items() if j not in after]
    for idx in after.keys() - before.keys():
        new = after[idx]
        for j, rule in after.items():
            if j != idx:
                expected += overlap_equations(new, rule, False)
                expected += overlap_equations(rule, new, False)
        expected += overlap_equations(new, new, True)
    return expected


@settings(max_examples=60, deadline=None)
@given(
    st.booleans(),
    st.lists(st.binary(min_size=1, max_size=7), min_size=1, max_size=2),
)
def test_queued_equations_match_the_full_overlap_scan(involutions, relators):
    """The seed queue, and what each added rule appends to the queue, are
    the equations of the full scan of every pair of rules, in order."""
    rs = system_from_presentation(presentation_over(involutions, relators))
    comp = Completion(rs, Limits(max_rules=40))
    assert comp.pending_equations() == seed_equations(rs)
    add_rule = comp._add_rule

    def checked(lhs, rhs):
        before = dict(rs.live_items())
        start = comp.pending
        add_rule(lhs, rhs)
        queued = comp.pending_equations()
        assert len(queued) == comp.pending
        assert queued[start:] == added_equations(before, dict(rs.live_items()))

    comp._add_rule = checked
    comp.run(lambda c: c.processed >= 300)


class EagerShadow:
    """An eager queue of expanded equations kept next to a completion's
    lazy one: it is seeded and extended with the oracle's overlap scan
    at every added rule, enqueued equation and retired rule, and every
    popped equation is checked against its head.

    ``stale`` counts the queued pairs whose rule or partner was replaced
    (its right side reduced again) or retired while the pair waited.
    """

    def __init__(self, comp):
        self.comp = comp
        self.eqs = deque(seed_equations(comp.sys))
        self.stale = 0
        assert comp.pending == len(self.eqs)
        self._add_rule, self._pop, self._enqueue = comp._add_rule, comp._pop, comp.enqueue
        comp._add_rule, comp._pop, comp.enqueue = self.add_rule, self.pop, self.enqueue

    def add_rule(self, lhs, rhs):
        rs = self.comp.sys
        before = dict(rs.live_items())
        self._add_rule(lhs, rhs)
        after = dict(rs.live_items())
        changed = {id(rule) for j, rule in before.items() if after.get(j) is not rule}
        start = self.comp._cursor
        for item in self.comp.queue:
            if isinstance(item, OverlapBatch):
                waiting = item.partners[start:]
                if id(item.rule) in changed:
                    self.stale += len(waiting)
                else:
                    self.stale += sum(id(rule) in changed for rule in waiting)
            start = 0
        self.eqs.extend(added_equations(before, after))
        assert self.comp.pending == len(self.eqs)

    def enqueue(self, eq):
        self._enqueue(eq)
        self.eqs.append(eq)

    def pop(self):
        eq = self._pop()
        assert eq == self.eqs.popleft()
        assert self.comp.pending == len(self.eqs)
        return eq


@settings(max_examples=40, deadline=None)
@given(
    st.booleans(),
    st.lists(st.binary(min_size=1, max_size=7), min_size=1, max_size=2),
    st.lists(st.tuples(st.binary(max_size=6), st.binary(max_size=6)), max_size=4),
)
def test_lazy_queue_pops_what_an_eager_queue_pops(involutions, relators, extra):
    """Over a whole run with equations enqueued between pauses, each
    popped equation is the eager queue's head and the pending count is
    its length."""
    pres = presentation_over(involutions, relators)
    size = pres.alphabet.size
    comp = Completion(system_from_presentation(pres), Limits(max_rules=40))
    shadow = EagerShadow(comp)
    for n, (w1, w2) in enumerate(extra, 1):
        comp.run(lambda c: c.processed >= 25 * n)
        comp.enqueue((bytes(c % size for c in w1), bytes(c % size for c in w2)))
    result = comp.run(lambda c: c.processed >= 300)
    assert result.queue_size == comp.pending == len(shadow.eqs)
    assert comp.pending_equations() == list(shadow.eqs)


def test_lazy_queue_reads_the_rule_versions_it_queued(ab):
    """B3 capped at 60 rules: queued pairs outlive re-reduced and retired
    partners, and still pop the eager equations."""
    rs = system_from_presentation(Presentation(ab, [ab.parse_word("abaBAB")]))
    comp = Completion(rs, Limits(max_rules=60))
    shadow = EagerShadow(comp)
    result = comp.run()
    assert result.status == "limitHit" and result.which == "maxRules"
    assert shadow.stale > 0
    assert result.queue_size == len(comp.pending_equations()) == len(shadow.eqs)
    assert comp.pending_equations() == list(shadow.eqs)
