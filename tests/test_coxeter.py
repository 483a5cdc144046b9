import math
import random
import time

import pytest

from agt import coxeter, fsa
from agt.autostruct import derive_shortlex_structure
from agt.coxeter import (
    CoxeterMatrix,
    FieldContext,
    build_geodesic_acceptor,
    build_shortlex_word_acceptor,
    small_roots,
)
from agt.cyclotomic import CyclotomicField
from agt.errors import ResourceLimitError, UsageError
from agt.rewrite import Presentation
from agt.words import inverse_closed_alphabet

from oracles import (
    AffineA2Model,
    DInfinityModel,
    SignedPermModel,
    as_integer,
    count_words_by_length,
    dominance_semi_oracle,
    dominates,
    finite_language_size,
    inner,
    minimal_state_count,
    positive_roots_by_depth,
    reflect,
    root_sign,
    s3_model,
)

A2 = CoxeterMatrix([[1, 3], [3, 1]])
B2 = CoxeterMatrix([[1, 4], [4, 1]])
DINF = CoxeterMatrix([[1, 0], [0, 1]])
AFFINE_A2 = CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])


def linear(*orders):
    """Coxeter matrix of a path diagram with the given edge orders."""
    n = len(orders) + 1
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, k in enumerate(orders):
        m[i][i + 1] = m[i + 1][i] = k
    return CoxeterMatrix(m)


def triangle(p, q, r):
    return CoxeterMatrix([[1, p, r], [p, 1, q], [r, q, 1]])


# The Coxeter groups of the benchmark corpus: finite, affine, hyperbolic.
CORPUS = {
    "A4": linear(3, 3, 3),
    "D4": CoxeterMatrix([[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]),
    "H3": linear(5, 3),
    "F4": linear(3, 4, 3),
    "E6": CoxeterMatrix([
        [1, 3, 2, 2, 2, 2],
        [3, 1, 3, 2, 2, 2],
        [2, 3, 1, 3, 2, 3],
        [2, 2, 3, 1, 3, 2],
        [2, 2, 2, 3, 1, 2],
        [2, 2, 3, 2, 2, 1],
    ]),
    "A2aff": triangle(3, 3, 3),
    "C3aff": linear(4, 3, 4),
    "T237": triangle(2, 3, 7),
    "T245": triangle(2, 4, 5),
    "T246": triangle(2, 4, 6),
}


def coxeter_presentation(matrix, names):
    alphabet = inverse_closed_alphabet(names, involutions=names)
    rels = []
    for i in range(matrix.rank):
        for j in range(i + 1, matrix.rank):
            if matrix.m[i][j]:
                rels.append(bytes([i, j]) * matrix.m[i][j])
    return Presentation(alphabet, rels)


def test_matrix_validation():
    with pytest.raises(UsageError):
        CoxeterMatrix([[1, 2], [3, 1]])  # asymmetric
    for bad in (2.7, True, "3"):
        with pytest.raises(UsageError, match="must be integers"):
            CoxeterMatrix([[1, bad], [bad, 1]])  # once coerced: 2.7 was read as 2
    with pytest.raises(UsageError):
        CoxeterMatrix([[2, 3], [3, 1]])  # bad diagonal
    with pytest.raises(UsageError):
        CoxeterMatrix([[1, 1], [1, 1]])  # off-diagonal 1


def test_inner_product_examples():
    ctx = FieldContext(A2)
    F = ctx.field
    e1, e2 = ctx.simple_roots
    # inner is 2B: B(e1, e2) = -1/2, B(e1, e1) = 1
    assert as_integer(F, inner(ctx, e1, e2)) == -1
    assert as_integer(F, inner(ctx, e1, e1)) == 2
    assert as_integer(F, ctx.inner_simple(0, e2)) == -1
    ctx_inf = FieldContext(DINF)
    assert as_integer(
        ctx_inf.field, inner(ctx_inf, ctx_inf.simple_roots[0], ctx_inf.simple_roots[1])
    ) == -2


def test_reflection_examples():
    ctx = FieldContext(A2)
    F = ctx.field
    e1, e2 = ctx.simple_roots
    assert reflect(ctx, 0, e1) == tuple(F.scale(-1, c) for c in e1)
    # A2: r1(e2) = e2 + e1
    assert reflect(ctx, 0, e2) == (F.one, F.one)
    ctx_inf = FieldContext(DINF)
    f1, f2 = ctx_inf.simple_roots
    # D-infinity: r1(e2) = e2 + 2 e1
    assert reflect(ctx_inf, 0, f2) == (ctx_inf.field.from_int(2), ctx_inf.field.one)


def test_reflection_involutive_and_form_preserving():
    ctx = FieldContext(B2)
    rng = random.Random(5)
    roots = list(ctx.simple_roots)
    for _ in range(20):
        v = roots[rng.randrange(len(roots))]
        i = rng.randrange(ctx.rank)
        roots.append(reflect(ctx, i, v))
    for _ in range(40):
        u = roots[rng.randrange(len(roots))]
        v = roots[rng.randrange(len(roots))]
        i = rng.randrange(ctx.rank)
        assert reflect(ctx, i, reflect(ctx, i, u)) == u
        assert inner(ctx, reflect(ctx, i, u), reflect(ctx, i, v)) == inner(ctx, u, v)


def test_orbit_roots_sign_coherent():
    for matrix in (A2, B2, DINF, AFFINE_A2):
        ctx = FieldContext(matrix)
        frontier = list(ctx.simple_roots)
        seen = set(frontier)
        for _ in range(8):
            nxt = []
            for v in frontier:
                for i in range(ctx.rank):
                    w = reflect(ctx, i, v)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        for v in seen:
            assert root_sign(ctx, v) in (-1, 1)  # raises if not coherent


def test_dominance_examples():
    ctx = FieldContext(DINF)
    e1, e2 = ctx.simple_roots
    r = reflect(ctx, 0, e2)  # 2e1 + e2
    assert dominates(ctx, r, e1)
    assert dominance_semi_oracle(ctx, r, e1, 10)
    # dominance is not symmetric: r_1 sends e1 negative and r to e2
    assert not dominates(ctx, e1, r)
    assert not dominance_semi_oracle(ctx, e1, r, 10)
    # A2: no distinct positive pair dominates
    ctx2 = FieldContext(A2)
    f1, f2 = ctx2.simple_roots
    pos = [f1, f2, reflect(ctx2, 0, f2)]
    for a in pos:
        for b in pos:
            if a != b:
                assert not dominates(ctx2, a, b)
    # right-angled: orthogonal simple roots never dominate
    ctx3 = FieldContext(CoxeterMatrix([[1, 2], [2, 1]]))
    assert not dominates(ctx3, ctx3.simple_roots[0], ctx3.simple_roots[1])


def test_dominance_consistent_with_semi_oracle():
    """Positive roots of depth <= 3, every pair in both directions.

    Two distinct positive roots with B >= 1 are comparable: exactly one
    dominates the other, and the bounded search must agree on both
    orders (it finds the witness against the wrong one).  Pairs with
    B < 1 are incomparable, and the search has nothing to confirm."""
    # finite groups have no comparable pairs: there |B(a, b)| < 1
    expected = {"A2aff": 3, "T245": 2, "T246": 2, "Dinf": 6}
    for name, matrix in {"A2": A2, "B2": B2, "Dinf": DINF, **CORPUS}.items():
        ctx = FieldContext(matrix)
        F = ctx.field
        roots = [r for layer in positive_roots_by_depth(ctx, 3) for r in layer]
        comparable = 0
        for x, a in enumerate(roots):
            for b in roots[x + 1 :]:
                if F.sign(F.sub(inner(ctx, a, b), F.from_int(2))) < 0:
                    assert not dominates(ctx, a, b) and not dominates(ctx, b, a)
                    continue
                comparable += 1
                assert dominates(ctx, a, b) != dominates(ctx, b, a)
                for p, q in ((a, b), (b, a)):
                    assert dominates(ctx, p, q) == dominance_semi_oracle(ctx, p, q, 6)
        assert comparable == expected.get(name, 0), name


def test_small_roots_right_angled():
    matrix = CoxeterMatrix(
        [[1, 2, 2], [2, 1, 2], [2, 2, 1]]
    )
    ctx, roots, _ = small_roots(matrix)
    assert roots == list(ctx.simple_roots)


def test_small_roots_examples():
    ctx, roots, _ = small_roots(DINF)
    assert roots == list(ctx.simple_roots)
    ctx2, roots2, _ = small_roots(A2)
    assert len(roots2) == 3
    ctx3, roots3, _ = small_roots(AFFINE_A2)
    assert len(roots3) == 6


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_other_roots_dominate_a_small_root(name):
    """Every positive root of depth <= 4 that the gate does not list
    dominates some listed root, so none is small."""
    ctx, roots, _ = small_roots(CORPUS[name])
    listed = set(roots)
    others = [
        r for layer in positive_roots_by_depth(ctx, 4) for r in layer if r not in listed
    ]
    for r in others:
        assert any(dominates(ctx, r, g) for g in roots), ctx.format_root(r)
    # in the finite groups every positive root is small
    expected = {"A2aff": 6, "C3aff": 2, "T237": 2, "T245": 6, "T246": 7}
    assert len(others) == expected.get(name, 0)


def test_format_root_parenthesises_only_sums():
    ctx = FieldContext(linear(5, 3))  # Z[t], t the golden ratio
    one, t, zero = (1, 0), (0, 1), (0, 0)
    cases = {
        (t, (0, 2), zero): "t*e1 + 2*t*e2",
        (one, (0, -1), zero): "e1 - t*e2",
        ((-1, 0), (1, 1), (-3, 0)): "-e1 + (1 + t)*e2 - 3*e3",
        (zero, (-1, -1), t): "(-1 - t)*e2 + t*e3",
        (zero, zero, zero): "0",
    }
    for root, text in cases.items():
        assert ctx.format_root(root) == text


def test_h4_small_roots_and_acceptor():
    """H4: all 60 positive roots are small, the shortlex acceptor counts
    the 14400 group elements, and the geodesic acceptor has one state
    per element, within a generous time limit."""
    h4 = linear(5, 3, 3)
    start = time.perf_counter()
    ctx, roots, _ = small_roots(h4)
    assert len(roots) == 60
    wa = build_shortlex_word_acceptor(h4)
    assert fsa.language_is_finite(wa) == 14400
    assert build_geodesic_acceptor(h4).num_states == 14400
    assert time.perf_counter() - start < 60.0


# degrees of the basic invariants of a finite group: its Poincare
# polynomial, the shortlex growth, is the product of 1 + x + ... + x^(d-1)
DEGREES = {"H4": (linear(5, 3, 3), (2, 12, 20, 30)), "E6": (CORPUS["E6"], (2, 5, 6, 8, 9, 12))}


@pytest.mark.parametrize("name", sorted(DEGREES))
def test_finite_shortlex_growth_is_the_poincare_polynomial(name):
    matrix, degrees = DEGREES[name]
    poly = [1]
    for d in degrees:
        padded = [0] * (d - 1) + poly + [0] * (d - 1)
        poly = [sum(padded[k : k + d]) for k in range(len(poly) + d - 1)]
    g = fsa.growth_series(build_shortlex_word_acceptor(matrix), len(poly) + 2)
    assert g.numerator == tuple(poly)
    assert g.denominator == (1,)
    assert g.coefficients == (*poly, 0, 0)


def test_h4_geodesic_growth_counts_its_geodesics():
    """H4's geodesic language is finite, its longest words those of the
    longest element, of length 60: its series is a polynomial of degree
    60 whose coefficients count the geodesics."""
    geo = build_geodesic_acceptor(linear(5, 3, 3))
    g = fsa.growth_series(geo, 61)
    assert g.denominator == (1,)
    assert len(g.numerator) == 61
    assert g.coefficients == g.numerator
    assert sum(g.numerator) == fsa.language_is_finite(geo)


@pytest.mark.parametrize(
    "matrix", [A2, B2, linear(3, 3), linear(4, 3), linear(5, 3), linear(3, 4, 3)],
    ids=["A2", "B2", "A3", "B3", "H3", "F4"],
)
def test_finite_geodesic_acceptor_is_minimal(matrix):
    """A finite group's geodesic acceptor, returned without refinement,
    has one state per element and is its own minimal automaton."""
    geo = build_geodesic_acceptor(matrix)
    assert geo.num_states == minimal_state_count(
        geo.num_states, geo.initial, geo.accepting, geo.transitions
    )
    assert geo.num_states == fsa.language_is_finite(build_shortlex_word_acceptor(matrix))
    assert fsa.minimize(geo) == geo


# |W| for each group whose finiteness is checked, None when W is infinite
ORDERS = {
    "A4": 120, "D4": 192, "H3": 120, "F4": 1152, "E6": 51840, "A2aff": None, "C3aff": None,
    "T237": None, "T245": None, "T246": None,
    "H4": 14400, "T2311": None, "A1": 2, "A1aff": None, "H435": None,
}
FINITENESS_CASES = {
    **CORPUS, "H4": linear(5, 3, 3), "T2311": triangle(2, 3, 11),
    "A1": CoxeterMatrix([[1]]), "A1aff": DINF, "H435": linear(4, 3, 5),
}


@pytest.mark.parametrize("name", sorted(FINITENESS_CASES))
def test_finiteness_read_from_the_action_table(name):
    """The action table's verdict agrees with the finiteness of the
    geodesic language, counted by ``fsa`` and by the oracle, and with
    the group order; a finite group's acceptors count its elements."""
    matrix, order = FINITENESS_CASES[name], ORDERS[name]
    finite = coxeter.is_finite(small_roots(matrix)[2])
    assert finite == (order is not None)
    geo = build_geodesic_acceptor(matrix)
    assert finite == (fsa.language_is_finite(geo) is not None)
    size = finite_language_size(geo.num_states, geo.initial, geo.accepting, geo.transitions)
    assert finite == (size is not None)
    if finite:
        wa = build_shortlex_word_acceptor(matrix)
        assert order == geo.num_states
        assert order == finite_language_size(wa.num_states, wa.initial, wa.accepting, wa.transitions)


def test_small_root_cap(monkeypatch):
    monkeypatch.setattr(coxeter, "DEFAULT_ROOT_CAP", 2)
    with pytest.raises(ResourceLimitError) as exc:
        small_roots(A2)
    assert (exc.value.which, exc.value.cap) == ("small root set size", 2)
    with pytest.raises(ResourceLimitError):
        build_geodesic_acceptor(A2)
    monkeypatch.setattr(coxeter, "DEFAULT_ROOT_CAP", 3)
    assert len(small_roots(A2)[1]) == 3


@pytest.mark.parametrize("m", [5, 31, 97])
def test_dihedral_groups_have_m_small_roots(m, monkeypatch):
    """I2(m) has order 2m and m positive roots, all small: an oracle that
    uses no ring arithmetic.  For I2(97), t = 2cos(2pi/194) has degree 48
    and root coordinates in the power basis grow like 2^k, so the float
    filter leaves signs open and the exact path decides them."""
    exact_calls = []
    exact = CyclotomicField._exact_sign
    monkeypatch.setattr(
        CyclotomicField, "_exact_sign", lambda self, a: exact_calls.append(a) or exact(self, a)
    )
    ctx, roots, _ = small_roots(linear(m))
    assert len(roots) == m
    if m == 97:
        assert ctx.field.degree == 48
        assert len(exact_calls) > 0


def test_float_signs_agree_with_exact_signs(monkeypatch):
    """Every sign the float filter decides over the corpus, the exact
    path decides the same way."""
    sign, exact = CyclotomicField.sign, CyclotomicField._exact_sign
    went_exact, compared = [], []

    def counted_exact(self, a):
        went_exact.append(a)
        return exact(self, a)

    def checked_sign(self, a):
        before = len(went_exact)
        s = sign(self, a)
        if any(a[1:]) and len(went_exact) == before:  # not an integer
            assert exact(self, a) == s, a
            compared.append(a)
        return s

    monkeypatch.setattr(CyclotomicField, "_exact_sign", counted_exact)
    monkeypatch.setattr(CyclotomicField, "sign", checked_sign)
    for matrix in (*CORPUS.values(), linear(5, 3, 3), triangle(2, 3, 11), linear(31)):
        small_roots(matrix)
    assert len(compared) > 400


def test_small_roots_pairwise_non_dominating():
    for matrix in (A2, B2, DINF, AFFINE_A2, *CORPUS.values()):
        ctx, roots, _ = small_roots(matrix)
        for a in roots:
            for b in roots:
                if a != b:
                    assert not dominates(ctx, a, b)


@pytest.mark.parametrize(
    "matrix",
    [*CORPUS.values(), linear(5, 3, 3), triangle(2, 3, 11), DINF],
    ids=[*CORPUS, "H4", "T2311", "Dinf"],
)
def test_action_table_matches_reflect(matrix):
    """The action the closure records is the exact reflection, looked up
    among the small roots."""
    ctx, roots, action = small_roots(matrix)
    position = {r: k for k, r in enumerate(roots)}
    assert len(action) == ctx.rank
    for i in range(ctx.rank):
        assert action[i] == [position.get(reflect(ctx, i, r)) for r in roots]


def test_shortlex_acceptor_a2():
    wa = build_shortlex_word_acceptor(A2)
    A = wa.alphabet
    words = [A.format_word(w) for w in fsa.enumerate_words(wa, 5)]
    assert words == ["", "a", "b", "ab", "ba", "aba"]
    assert not wa.accepts(A.parse_word("bab"))


def test_geodesic_acceptor_a2():
    geo = build_geodesic_acceptor(A2)
    A = geo.alphabet
    words = [A.format_word(w) for w in fsa.enumerate_words(geo, 5)]
    assert words == ["", "a", "b", "ab", "ba", "aba", "bab"]


def test_acceptors_dinf():
    wa = build_shortlex_word_acceptor(DINF)
    geo = build_geodesic_acceptor(DINF)
    assert wa == geo
    assert count_words_by_length(wa, 8) == [1, 2, 2, 2, 2, 2, 2, 2, 2]
    g = fsa.growth_series(wa, 4)
    assert (g.numerator, g.denominator) == ((1, 1), (1, -1))


def test_acceptor_rank_one():
    m1 = CoxeterMatrix([[1]])
    wa = build_shortlex_word_acceptor(m1)
    assert [wa.alphabet.format_word(w) for w in fsa.enumerate_words(wa, 3)] == ["", "a"]
    geo = build_geodesic_acceptor(m1)
    assert wa == geo


def test_shortlex_subset_of_geodesics():
    for matrix in (A2, B2, DINF, AFFINE_A2):
        wa = build_shortlex_word_acceptor(matrix)
        geo = build_geodesic_acceptor(matrix)
        assert fsa.language_is_finite(fsa.boolean_op("minus", wa, geo)) == 0


@pytest.mark.parametrize(
    "matrix,model,radius",
    [
        (A2, s3_model(), 5),
        (B2, SignedPermModel(), 6),
        (DINF, DInfinityModel(), 8),
        (AFFINE_A2, AffineA2Model(), 8),
    ],
)
def test_acceptor_counts_match_group_model(matrix, model, radius):
    wa = build_shortlex_word_acceptor(matrix)
    assert count_words_by_length(wa, radius) == model.sphere_sizes(
        radius, matrix.rank
    )


def test_oracle_models_satisfy_coxeter_relations():
    for matrix, model in (
        (A2, s3_model()),
        (B2, SignedPermModel()),
        (DINF, DInfinityModel()),
        (AFFINE_A2, AffineA2Model()),
    ):
        e = model.identity()
        for i in range(matrix.rank):
            assert model.mult(model.mult(e, i), i) == e
            for j in range(matrix.rank):
                if i != j and matrix.m[i][j]:
                    x = e
                    for _ in range(matrix.m[i][j]):
                        x = model.mult(model.mult(x, i), j)
                    assert x == e


@pytest.mark.parametrize("matrix", [A2, B2, DINF, *(CORPUS[n] for n in ("A4", "D4", "H3", "F4"))])
def test_cross_validation_with_kb_pipeline(matrix):
    names = ["a", "b", "c", "d"][: matrix.rank]
    out = derive_shortlex_structure(coxeter_presentation(matrix, names))
    assert out.verified
    assert build_shortlex_word_acceptor(matrix, names) == out.structure.word_acceptor


# [W_k : W_{k-1}] along the chain W_1 < ... < W_n, W_k generated by the
# first k generators
CHAIN_INDICES = {
    "F4": (2, 3, 8, 24), "E6": (2, 3, 4, 5, 6, 72), "H4": (2, 5, 12, 120),
}


@pytest.mark.parametrize("name", sorted(CHAIN_INDICES))
def test_chain_levels_are_the_parabolic_indices(name, monkeypatch):
    """A finite group's shortlex acceptor explores one state per coset
    representative of each level but 1, and one initial state.  The
    subgroup orders are counted by the subset walk's geodesic tables."""
    matrix, indices = FINITENESS_CASES[name], CHAIN_INDICES[name]
    explored = []
    real = fsa.explore

    def recording(start, expand, state_cap, label):
        order, rows = real(start, expand, state_cap, label)
        if label == "acceptor subset states":
            explored.append(order)
        return order, rows

    monkeypatch.setattr(fsa, "explore", recording)
    build_shortlex_word_acceptor(matrix)
    monkeypatch.undo()
    [order] = explored
    # a state of level k holds k images
    levels = [sum(len(state) == k for state in order) + 1 for k in range(1, matrix.rank + 1)]
    assert tuple(levels) == indices
    assert len(order) == 1 + sum(k - 1 for k in indices)
    orders = [1]
    for k in range(1, matrix.rank):
        sub = CoxeterMatrix([row[:k] for row in matrix.m[:k]])
        orders.append(build_geodesic_acceptor(sub).num_states)
    orders.append(ORDERS[name])
    assert indices == tuple(b // a for a, b in zip(orders, orders[1:]))
    assert math.prod(indices) == ORDERS[name]


@pytest.mark.parametrize("name", ["A4", "D4", "H3", "F4", "E6", "H4"])
def test_chain_acceptor_equals_the_subset_walk(name):
    matrix = FINITENESS_CASES[name]
    alphabet = coxeter._coxeter_alphabet(matrix, None)
    action = small_roots(matrix)[2]
    walked = coxeter._subset_walk(alphabet, action, True, True, fsa.DEFAULT_STATE_CAP)
    assert build_shortlex_word_acceptor(matrix) == walked


def test_only_a_finite_shortlex_acceptor_takes_the_chain(monkeypatch):
    chained = []
    real = coxeter._chain_acceptor

    def recording(alphabet, action, state_cap):
        chained.append(alphabet.size)
        return real(alphabet, action, state_cap)

    monkeypatch.setattr(coxeter, "_chain_acceptor", recording)
    for matrix in (A2, B2, DINF, AFFINE_A2, CORPUS["T237"]):
        build_geodesic_acceptor(matrix)
        build_shortlex_word_acceptor(matrix)
    assert chained == [2, 2]


def test_affine_a2_counts_match_kb_pipeline():
    out = derive_shortlex_structure(coxeter_presentation(AFFINE_A2, ["a", "b", "c"]))
    assert out.verified
    wa_cox = build_shortlex_word_acceptor(AFFINE_A2, ["a", "b", "c"])
    assert count_words_by_length(wa_cox, 8) == count_words_by_length(
        out.structure.word_acceptor, 8
    )


def test_geodesic_acceptor_matches_model_distances():
    """A word is accepted by the geodesic acceptor iff its length equals
    the model distance of the element it represents (exhaustive)."""
    import itertools

    for matrix, model, max_len in (
        (A2, s3_model(), 6),
        (B2, SignedPermModel(), 6),
        (DINF, DInfinityModel(), 7),
    ):
        geo = build_geodesic_acceptor(matrix)
        dist = {}
        for length in range(max_len + 1):
            for t in itertools.product(range(matrix.rank), repeat=length):
                el = model.element_of(bytes(t))
                dist.setdefault(el, length)
        for length in range(max_len + 1):
            for t in itertools.product(range(matrix.rank), repeat=length):
                w = bytes(t)
                assert geo.accepts(w) == (dist[model.element_of(w)] == length)


def test_rank_three_finite_b3():
    matrix = CoxeterMatrix([[1, 4, 2], [4, 1, 3], [2, 3, 1]])
    ctx, roots, _ = small_roots(matrix)
    assert len(roots) == 9
    wa = build_shortlex_word_acceptor(matrix, ["a", "b", "c"])
    assert fsa.language_is_finite(wa) == 48
    out = derive_shortlex_structure(coxeter_presentation(matrix, ["a", "b", "c"]))
    assert out.verified
    assert wa == out.structure.word_acceptor


def test_hyperbolic_triangle_group_2_3_7():
    matrix = CoxeterMatrix([[1, 2, 3], [2, 1, 7], [3, 7, 1]])
    ctx, roots, _ = small_roots(matrix)
    assert ctx.field.conductor == 14
    assert len(roots) == 12
    wa = build_shortlex_word_acceptor(matrix, ["a", "b", "c"])
    assert count_words_by_length(wa, 8) == [1, 3, 5, 7, 9, 12, 16, 20, 24]
    out = derive_shortlex_structure(coxeter_presentation(matrix, ["a", "b", "c"]))
    assert out.verified
    assert wa == out.structure.word_acceptor
