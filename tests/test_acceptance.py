"""Acceptance criteria: exact small-group reproductions and property suites.

Each test prints one line: ACCEPTANCE <n> PASS/FAIL (<elapsed>s) <summary>.
Run with `pytest -s tests/test_acceptance.py` to see the lines live.
"""

import itertools
import random
import time
from contextlib import contextmanager

from agt import formats, fsa, groupcalc as gc, pairfsa
from agt.autostruct import (
    axiom_check,
    derive_shortlex_structure,
)
from agt.coxeter import (
    CoxeterMatrix,
    FieldContext,
    build_geodesic_acceptor,
    build_shortlex_word_acceptor,
    small_roots,
)
from agt.fsa import FAIL, Dfa
from agt.rewrite import Completion, Presentation, system_from_presentation
from agt.words import inverse_closed_alphabet
from agt.worddiff import accumulate_from_rules

from oracles import (
    AffineA2Model,
    BurauB3Model,
    ZSquaredModel,
    as_integer,
    count_words_by_length,
    cyclic_conjugacy_oracle,
    dominance_semi_oracle,
    dominates,
    inner,
    reflect,
    root_sign,
    s3_model,
)


@contextmanager
def criterion(number: int, limit_seconds: float, summary: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} FAIL ({elapsed:.2f}s) {summary}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit_seconds else "FAIL"
    print(f"ACCEPTANCE {number} {status} ({elapsed:.2f}s) {summary}")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def free_ab():
    return inverse_closed_alphabet(["a", "b"], {"a": "A", "b": "B"})


def coxeter_ab():
    return inverse_closed_alphabet(["a", "b"], involutions=["a", "b"])


def words_up_to(n_syms, max_len):
    for length in range(max_len + 1):
        yield from (bytes(t) for t in itertools.product(range(n_syms), repeat=length))


def coxeter_presentation(matrix, names):
    alphabet = inverse_closed_alphabet(names, involutions=names)
    rels = []
    for i in range(matrix.rank):
        for j in range(i + 1, matrix.rank):
            if matrix.m[i][j]:
                rels.append(bytes([i, j]) * matrix.m[i][j])
    return Presentation(alphabet, rels)


def test_criterion_1_free_group():
    with criterion(1, 5.0, "F2: verified, 6-state acceptor, growth (1+x)/(1-3x)"):
        A = free_ab()
        out = derive_shortlex_structure(Presentation(A, []))
        assert out.verified
        wa = fsa.minimize(out.structure.word_acceptor)
        assert wa.num_states_with_sink == 6
        assert wa.num_states == 5
        g = fsa.growth_series(wa, 5)
        assert (g.numerator, g.denominator) == ((1, 1), (1, -3))
        assert g.coefficients == (1, 4, 12, 36, 108)
        counts = [0] * 5
        for w in fsa.enumerate_words(wa, 4):
            counts[len(w)] += 1
        assert tuple(counts) == g.coefficients


def test_criterion_2_z_squared():
    with criterion(2, 10.0, "Z^2: verified, k=2, sphere sizes 4n, axiom check"):
        A = free_ab()
        pres = Presentation(A, [A.parse_word("abAB")])
        out = derive_shortlex_structure(pres)
        assert out.verified
        s = out.structure
        assert s.k == 2
        counts = count_words_by_length(s.word_acceptor, 10)
        assert counts == [1] + [4 * n for n in range(1, 11)]
        assert counts == ZSquaredModel().sphere_sizes(10, 4)
        assert axiom_check(s).ok


def test_criterion_3_s3():
    with criterion(3, 5.0, "S3: completion, order 6, exact normal forms"):
        C = coxeter_ab()
        pres = Presentation(C, [C.parse_word("ababab")])
        rs = system_from_presentation(pres)
        assert Completion(rs).run().status == "complete"
        out = derive_shortlex_structure(pres)
        assert out.verified
        assert gc.group_order(out.structure) == 6
        words = gc.enumerate_elements(out.structure, 4)
        assert [C.format_word(w) for w in words] == ["", "a", "b", "ab", "ba", "aba"]
        model = s3_model()
        elements = {model.element_of(w) for w in words}
        assert len(elements) == 6


def test_criterion_4_braid_b3():
    with criterion(4, 60.0, "B3: verified in default limits, counts match BFS to 8"):
        A = free_ab()
        out = derive_shortlex_structure(Presentation(A, [A.parse_word("abaBAB")]))
        assert out.verified
        counts = count_words_by_length(out.structure.word_acceptor, 8)
        assert counts == BurauB3Model().sphere_sizes(8, 4)
        ball = gc.element_ball(out.structure, 8)
        by_len = [0] * 9
        for w, d in ball.items():
            assert len(w) == d
            by_len[d] += 1
        assert by_len == counts


def test_criterion_5_coxeter_a2():
    with criterion(5, 5.0, "Coxeter A2: 3 small roots, 6/7 words, equals KB acceptor"):
        matrix = CoxeterMatrix([[1, 3], [3, 1]])
        ctx, roots, _ = small_roots(matrix)
        assert len(roots) == 3
        wa = build_shortlex_word_acceptor(matrix)
        geo = build_geodesic_acceptor(matrix)
        assert fsa.language_is_finite(wa) == 6
        assert fsa.language_is_finite(geo) == 7
        model = s3_model()
        accepted = fsa.enumerate_words(wa, 4)
        assert len({model.element_of(w) for w in accepted}) == 6
        # geodesic words verified against brute-force distances in S3
        dist = {}
        for w in sorted(words_up_to(2, 4), key=len):
            el = model.element_of(w)
            dist.setdefault(el, len(w))
        for w in words_up_to(2, 4):
            is_geo = dist[model.element_of(w)] == len(w)
            assert geo.accepts(w) == is_geo
        out = derive_shortlex_structure(coxeter_presentation(matrix, ["a", "b"]))
        assert out.verified
        assert wa == out.structure.word_acceptor


def test_criterion_6_infinite_dihedral():
    with criterion(6, 5.0, "D-infinity: roots {e1,e2}, alternating words, dominance"):
        matrix = CoxeterMatrix([[1, 0], [0, 1]])
        ctx, roots, _ = small_roots(matrix)
        assert roots == list(ctx.simple_roots)
        wa = build_shortlex_word_acceptor(matrix)
        for w in words_up_to(2, 8):
            alternating = all(w[i] != w[i + 1] for i in range(len(w) - 1))
            assert wa.accepts(w) == alternating
        g = fsa.growth_series(wa, 6)
        assert (g.numerator, g.denominator) == ((1, 1), (1, -1))
        assert g.coefficients == (1, 2, 2, 2, 2, 2)
        e1, e2 = ctx.simple_roots
        r = reflect(ctx, 0, e2)  # 2 e1 + e2
        F = ctx.field
        assert as_integer(F, inner(ctx, r, e1)) == 2  # 2B(r, e1)
        assert dominates(ctx, r, e1)
        assert dominance_semi_oracle(ctx, r, e1, 10)


def test_criterion_7_affine_a2():
    with criterion(7, 60.0, "Affine A2: small roots finite, counts match KB pipeline"):
        matrix = CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
        ctx, roots, _ = small_roots(matrix)
        assert len(roots) == 6
        wa = build_shortlex_word_acceptor(matrix, ["a", "b", "c"])
        out = derive_shortlex_structure(coxeter_presentation(matrix, ["a", "b", "c"]))
        assert out.verified
        counts = count_words_by_length(wa, 8)
        assert counts == count_words_by_length(out.structure.word_acceptor, 8)
        assert counts == AffineA2Model().sphere_sizes(8, 3)


def test_criterion_8_cone_types():
    with criterion(8, 30.0, "cone types: Z^2 has 9 at radii 6/8/10, F2 has 5"):
        A = free_ab()
        z2 = derive_shortlex_structure(Presentation(A, [A.parse_word("abAB")])).structure
        for radius in (6, 8, 10):
            assert gc.cone_types(z2, radius).count == 9
        f2 = derive_shortlex_structure(Presentation(A, [])).structure
        assert gc.cone_types(f2, 8).count == 5


def test_criterion_9_conjugacy():
    with criterion(9, 5.0, "conjugacy: witness a, unknown(6) + oracle, bound 16"):
        A = free_ab()
        f2 = derive_shortlex_structure(Presentation(A, [])).structure
        ans = gc.conjugacy_search(f2, A.parse_word("ab"), A.parse_word("ba"), 6)
        assert ans.status == "conjugate" and ans.witness == A.parse_word("a")
        assert gc.word_problem(
            f2,
            A.invert(ans.witness) + A.parse_word("ab") + ans.witness,
            A.parse_word("ba"),
        )
        ans2 = gc.conjugacy_search(f2, A.parse_word("a"), A.parse_word("b"), 6)
        assert ans2.status == "unknown" and ans2.searched_bound == 6
        assert not cyclic_conjugacy_oracle((0,), (2,))
        assert gc.conjugacy_bound(f2, A.parse_word("a"), A.parse_word("b")) == 16


def test_criterion_10_property_suites(tmp_path):
    with criterion(10, 60.0, "property suites: fsa/rewrite/diff/pads/roots/determinism"):
        A = free_ab()
        rng = random.Random(2024)

        # fsa ops vs brute-force membership, exhaustive to length 8 (2 symbols)
        # and length 6 on the 4-symbol alphabet
        two = inverse_closed_alphabet(["a"], {"a": "A"})

        def random_dfa(alphabet, n):
            rows = [
                [rng.choice([FAIL] + list(range(n))) for _ in range(alphabet.size)]
                for _ in range(n)
            ]
            acc = [s for s in range(n) if rng.random() < 0.5]
            return Dfa(alphabet, n, rng.randrange(n), acc, rows)

        for alphabet, max_len in ((two, 8), (A, 6)):
            m1 = random_dfa(alphabet, 5)
            m2 = random_dfa(alphabet, 4)
            s1 = {w for w in words_up_to(alphabet.size, max_len) if m1.accepts(w)}
            s2 = {w for w in words_up_to(alphabet.size, max_len) if m2.accepts(w)}
            combos = {
                "and": s1 & s2,
                "or": s1 | s2,
                "minus": s1 - s2,
            }
            for kind, expected in combos.items():
                got = fsa.boolean_op(kind, m1, m2)
                assert {
                    w for w in words_up_to(alphabet.size, max_len) if got.accepts(w)
                } == expected
            inv = fsa.boolean_op("not", m1)
            assert {
                w for w in words_up_to(alphabet.size, max_len) if inv.accepts(w)
            } == set(words_up_to(alphabet.size, max_len)) - s1

        # minimize canonicality on randomized language-equal pairs
        for _ in range(10):
            m = fsa.minimize(random_dfa(A, 6))
            n = m.num_states
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [None] * n
            for s in range(n):
                rows[perm[s]] = [
                    FAIL if t == FAIL else perm[t] for t in m.transitions[s]
                ]
            scrambled = Dfa(A, n, perm[m.initial], [perm[s] for s in m.accepting], rows)
            assert fsa.minimize(scrambled) == m

        # reduceWord idempotence/termination on 10^4 random words
        rs = system_from_presentation(Presentation(A, [A.parse_word("abAB")]))
        Completion(rs).run()
        for _ in range(10_000):
            w = bytes(rng.randrange(A.size) for _ in range(rng.randrange(15)))
            r = rs.reduce(w)
            assert rs.reduce(r) == r
            assert r == w or A.shortlex_less(r, w)

        # word-difference inversion symmetry
        d = accumulate_from_rules(rs)
        pa = d.pairs
        inverse_state = [d.state_of(d.reducer.reduce(A.invert(w))) for w in d.words]
        for s in range(d.num_states):
            si = inverse_state[s]
            for k in range(pa.alphabet.size):
                a, b = pa.parts(k)
                t = d.table[s][k]
                mirrored = d.table[si][pa.index(b, a)]
                assert (t < 0) == (mirrored < 0)
                if t >= 0:
                    assert mirrored == inverse_state[t]

        # padding round-trip
        for _ in range(300):
            u = bytes(rng.randrange(A.size) for _ in range(rng.randrange(7)))
            v = bytes(rng.randrange(A.size) for _ in range(rng.randrange(7)))
            assert pairfsa.decode_pair(pa, pairfsa.encode_pair(pa, u, v)) == (u, v)

        # reflection form-preservation and root sign-coherence, exact
        matrix = CoxeterMatrix([[1, 4], [4, 1]])
        ctx = FieldContext(matrix)
        roots = list(ctx.simple_roots)
        for _ in range(25):
            v = roots[rng.randrange(len(roots))]
            i = rng.randrange(ctx.rank)
            w = reflect(ctx, i, v)
            roots.append(w)
            assert root_sign(ctx, w) in (-1, 1)
            u = roots[rng.randrange(len(roots))]
            assert inner(ctx, reflect(ctx, i, u), reflect(ctx, i, v)) == inner(ctx, u, v)

        # determinism: repeated derivations serialize byte-identically
        pres = Presentation(A, [A.parse_word("abAB")])
        outs = []
        for sub in ("one", "two"):
            out = derive_shortlex_structure(pres)
            assert out.verified
            target = tmp_path / sub
            formats.save_structure(out.structure, target)
            outs.append(target)
        for name in sorted(p.name for p in outs[0].iterdir()):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
