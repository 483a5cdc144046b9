"""SHA-256 pins on tables that must stay byte-identical.

Identical inputs and limits give byte-identical outputs, and a change
that only restructures a construction must not move a single byte of
what it builds.  Each digest covers one structure's transcript, word
acceptor and every multiplier table (epsilon first, then generator
order), or one Coxeter acceptor, in the JSON encoding of the bundle
files, or the rules and result of one Knuth-Bendix completion, or the
outcome of one abandoned derivation, or the composite multipliers that
one check builds, or the small-root action table of one Coxeter matrix,
or the normal forms of seeded random words and the cone-type count of
one structure, or the cone-type automaton of one structure at one
radius, or the boolean combinations of two acceptors, or the transcript
of one derivation that retries, or the growth series of one acceptor.
A failing pin means an output changed: if the change is meant, say so
and re-pin; if not, it is a regression.
"""

import hashlib
import json
import random

import pytest

from agt import autostruct, formats, fsa, groupcalc, pairfsa
from agt.autostruct import AxiomReport, CheckFailure, ElementaryReport, derive_shortlex_structure
from agt.coxeter import (
    CoxeterMatrix,
    build_geodesic_acceptor,
    build_shortlex_word_acceptor,
    small_roots,
)
from agt.limits import Limits
from agt.rewrite import Completion, Presentation, system_from_presentation
from agt.words import inverse_closed_alphabet

from oracles import validate_padding


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def _structure_texts(s):
    yield s.transcript
    yield formats.dumps(formats.dfa_to_json(s.word_acceptor))
    for key in sorted(s.multipliers, key=lambda k: (k is not None, k or 0)):
        yield formats.dumps(formats.pairdfa_to_json(s.multipliers[key]))


STRUCTURES = {
    "free_structure": "75bf5c45384bed5d0fe603eeb82d3d98462ac50d2a4c9a4c98c66740f76f7459",
    "z2_structure": "a410a16146d374af15895309878264fc99248bdfacbaa8fe676859a30a8c7c86",
    "s3_structure": "081c60983143c199c88714a91a32b5bebc3d4600cfcebc2eae738e94ac534588",
    "b3_structure": "1161b34995ba767044c54e70d43f6881f9fabac017945a02fa8d64a7e754abfd",
    "dinf_structure": "e70920f304829037e31c4be8901253e9c37f14c5fd06db69a737acfcb0ff49c3",
    "starved_b3_structure": "e08c830f5a1b09510805cbb3deae73e474e82cca03cf82df0e0a51251ae246b0",
}


@pytest.mark.parametrize("fixture", sorted(STRUCTURES))
def test_structure_tables_are_pinned(fixture, request):
    s = request.getfixturevalue(fixture)
    assert _digest(_structure_texts(s)) == STRUCTURES[fixture]


def _path(*orders):
    m = [[1 if i == j else 2 for j in range(len(orders) + 1)] for i in range(len(orders) + 1)]
    for i, k in enumerate(orders):
        m[i][i + 1] = m[i + 1][i] = k
    return CoxeterMatrix(m)


COXETER = {
    "A3": _path(3, 3),
    "B3": _path(4, 3),
    "H3": _path(5, 3),
    "F4": _path(3, 4, 3),
    # infinite: distinct small roots can have B <= -1 here, never in a finite group
    "C3aff": _path(4, 3, 4),
    "T237": CoxeterMatrix([[1, 2, 7], [2, 1, 3], [7, 3, 1]]),
}
ACCEPTORS = {
    ("A3", "shortlex"): "c9305450e2fb7839e05c58623c1510f914ed039dbed60404a926794069c87cb9",
    ("A3", "geodesic"): "fb991376e5f9e03fc323d27395842c2e782c66561fe26d17709296652b97d1fd",
    ("B3", "shortlex"): "4a476cbd7dbe8c165f7b1c9aef04cb88972f99372181aa646c2b30e83101da8b",
    ("B3", "geodesic"): "9dd3a4497322e234d210135b2934bdacd9a8e00e2485ac5fcad92b5cae2157e1",
    ("F4", "shortlex"): "bb2146bfe7adcdc1b63138e3014c0e0ed960b0130eb8f499580373f6c1d81863",
    ("F4", "geodesic"): "d02d54ca9bc61c09ad8cea31a320d679defe447e3eb9a921ea891be27a1bdd06",
    ("H3", "shortlex"): "da4b02a903bce4c8579ff8970c9c82adcf62de98f1a76519e8642249b44864a7",
    ("H3", "geodesic"): "bac9e7a99196ef186f9f787f49309b1ba9fb1793e08b4e329a15a7d42994c019",
    ("C3aff", "shortlex"): "f507925909e75934bde6c04b027188e530b7649d03012eec0fae8508888c441b",
    ("C3aff", "geodesic"): "c9263bd5007efbeb5ddccb06c3b927797aeb7f7321f20294e1d8c80c7f915850",
    ("T237", "shortlex"): "4cc231551e877ee9b9f3b3d57c778d388ed79e1fc61efa9b10d5b7a9829c7d3e",
    ("T237", "geodesic"): "f64f47eeee78e718ddd2df7ba2203d2b675cb64c866ff1d4fdfc6ace15d3eff6",
    # E6's 36 small roots end in a partial byte of a state; F4's 24 do not
    ("E6", "shortlex"): "4056db0f9ca301d59bf0fbf09d3f1e4ecac974952f5a77c321e561b552c92c20",
    ("E6", "geodesic"): "e03bfa2d973216a7f4ad1ec6168354d447e4c86cdd36a4b3d710ff2bc98ab0ab",
    ("H4", "shortlex"): "4c366b7f22fdd8756d0f3acb898ee10b0a1c6ab755937e2eae0731a8b2e2098c",
    ("H4", "geodesic"): "f9f649008371a6002d07db239430baaf7fcc0631d1a9107a538f640f50b15f75",
    ("T2311", "shortlex"): "d90bde7490aed34c8ba19dc3a9ab36342edbe6560aa31ccda046a057354619bf",
    ("T2311", "geodesic"): "c5491dc8da7aa9a7dad7a12df42096ea155f6330aac56f534651c1fcc7dcec2e",
}


@pytest.mark.parametrize("group,kind", sorted(ACCEPTORS))
def test_coxeter_acceptors_are_pinned(group, kind):
    build = build_shortlex_word_acceptor if kind == "shortlex" else build_geodesic_acceptor
    wa = build(MATRICES[group])
    assert _digest([formats.dumps(formats.dfa_to_json(wa))]) == ACCEPTORS[group, kind]


# -- small-root action tables ---------------------------------------------------
#
# Each digest covers ``small_roots(m)[2]``, the action of each generator on
# the small roots as indices in discovery order.  It does not depend on how
# root coordinates are represented.


def _matrix(rank, orders, default=2):
    m = [[1 if i == j else default for j in range(rank)] for i in range(rank)]
    for (i, j), k in orders.items():
        m[i][j] = m[j][i] = k
    return CoxeterMatrix(m)


def _triangle(p, q, r):
    return CoxeterMatrix([[1, p, r], [p, 1, q], [r, q, 1]])


ROOT_MATRICES = {
    "A2": _path(3),
    "A4": _path(3, 3, 3),
    "B5": _path(4, 3, 3, 3),
    "D4": _matrix(4, {(0, 1): 3, (1, 2): 3, (1, 3): 3}),
    "H3": _path(5, 3),
    "H4": _path(5, 3, 3),
    "F4": _path(3, 4, 3),
    "E6": _matrix(6, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (2, 5): 3}),
    "A2aff": _triangle(3, 3, 3),
    "A3aff": _matrix(4, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (0, 3): 3}),
    "C3aff": _path(4, 3, 4),
    "T237": _triangle(2, 3, 7),
    "T245": _triangle(2, 4, 5),
    "T246": _triangle(2, 4, 6),
    "T2311": _triangle(2, 3, 11),
    "Dinf": _path(0),
    "RA4": _matrix(4, {(0, 1): 0, (1, 2): 0, (2, 3): 0, (0, 3): 0}),
    "X": CoxeterMatrix([[1, 3, 0], [3, 1, 4], [0, 4, 1]]),
    "I2_5": _path(5),
    "I2_31": _path(31),
    "I2_97": _path(97),
}
MATRICES = {**ROOT_MATRICES, **COXETER}
ROOT_ACTIONS = {
    "A2": "1f43703d92640f0b95e3d73d949449dfac76afb12ac43f62f982d5e06b7a63ee",
    "A4": "8278316fe8e42e596bae254de7345382537227bf64e773511e31a1088d48b0a9",
    "B5": "7179d8f9de7b029411472b3b514bbf4346c3b3ef4b5e57f8a32c09b870069681",
    "D4": "b191108c0f62b4196b265fc8ffbd221b0b227f71850111a331e6ab68a64ca92f",
    "H3": "e4ebfbfef34ebf609babee4cc5ba98a58ed009be275722ca9724261104b658b4",
    "H4": "0ff737d3882762d44ab744bac219b14f32e25a9eb8f5189559b08e9176a83289",
    "F4": "c815ca81e72cb670ec4004679f7009b6bfd1d4355de256ad216b4ec07bfd0728",
    "E6": "38faecd04563a4ce32b33f451b1e8955b2d1ad331bc80db0600e1cb68177db87",
    "A2aff": "071afcda717145d628452b26ac5d76fa3a54765812afca331680193274be4fe1",
    "A3aff": "3f93ccd8c24ed8fd39df00bf0260b4884aabfa80f9c030f0c134a4a10f54ae04",
    "C3aff": "b659d877fc1a9f20baeb42a70de4d88b3487a213d9165f3e3e5f6585a6d72348",
    "T237": "a139815c1777530db98276d61e285077fd0028787ac779ef6babe4dfa0cc00fe",
    "T245": "0b76412d184b533ccc9e8068096e5e5ef083ffceb42b2bc1247d98b4cd398412",
    "T246": "1d6c78bbb54b80ad78f43b6244d5a3d1464b45ae7d6d414146131b38dd16bdbf",
    "T2311": "66a60f73884378d8cf2bd0f7d4c6f950bdf561ca0971dc5658f2900ef49c852f",
    "Dinf": "457275267cb49bc3a2abce6128a21371df8775560598327965b83ce381fb7459",
    "RA4": "4e3852cdbecf679e59d5500fa777d3a2b69f47644a43cfd367ff4d64526ec9ea",
    "X": "a9e5c0210bcabc97555262a13d041c1ae2d37543d5e580730205a580d52898d9",
    "I2_5": "cd64bc565ab39728cacb2c6b442f2646b4c8a525fc9f7e1dfe9d1a198fb4f034",
    "I2_31": "654f9557c68d81c9c1fe0b9ce6611e3af8a73e55265c493d3351f41bbec008c4",
    "I2_97": "baadaa6038350fa95b711265f001adddd97b500c8a07fba4d9e0afcf8f3d78d3",
}


@pytest.mark.parametrize("group", sorted(ROOT_ACTIONS))
def test_small_root_actions_are_pinned(group):
    assert _digest([json.dumps(small_roots(ROOT_MATRICES[group])[2])]) == ROOT_ACTIONS[group]


# -- Knuth-Bendix completions -------------------------------------------------
#
# Each digest covers the rules dump and the CompletionResult of one
# completion, capped or complete.


KB = {
    ("B3", 450): ({"generators": ["a", "b"], "inverses": {"a": "A", "b": "B"},
                   "relators": ["abaBAB"]},
                  "c4eb724029bc4997e9d8aaff637b8b8502270676970fed64bba90c5978f4adb3"),
    ("F4", None): ({"generators": list("abcd"), "involutions": list("abcd"),
                    "relators": ["ababab", "acac", "adad", "bcbcbcbc", "bdbd", "cdcdcd"]},
                   "78c1f4e2e9326be2967ce18539394da4d23c9ccb7373138a971d7f940113f8cc"),
    ("A5", None): ({"generators": ["a", "b"], "inverses": {"b": "B"}, "involutions": ["a"],
                    "relators": ["bbb", "ababababab"]},
                   "1b4095a8dcd1361e273793c622252476d1f5cbe0f1585fef108694f818054674"),
    ("T245", 300): ({"generators": list("abc"), "involutions": list("abc"),
                     "relators": ["abab", "acacacacac", "bcbcbcbc"]},
                    "405d107c2af500b8079d70fd2914db9d458a927f31b33e7590dc1e81523187b6"),
}


@pytest.mark.parametrize("group,cap", sorted(KB), ids=str)
def test_completions_are_pinned(group, cap):
    data, pin = KB[group, cap]
    rs = system_from_presentation(formats.presentation_from_json(data))
    result = Completion(rs, Limits() if cap is None else Limits(max_rules=cap)).run()
    assert _digest([rs.dump(), repr(result)]) == pin


# -- every exit of the derivation driver ---------------------------------------
#
# Each digest covers (status, transcript, reason, resource_limited,
# structure is None) of one abandoned derivation: the pass limit, a
# resource failure in each phase, the witness-free elementary failure and
# the axiom failure.


def _outcome_digest(out):
    return _digest(
        [out.status, out.transcript, repr(out.reason), repr(out.resource_limited),
         repr(out.structure is None)]
    )


def _b3(ab):
    return Presentation(ab, [ab.parse_word("abaBAB")])


def _z2(ab):
    return Presentation(ab, [ab.parse_word("abAB")])


def _with_checks(monkeypatch, name, replace):
    real = getattr(autostruct, name)
    monkeypatch.setattr(autostruct, name, lambda s, state_cap: replace(real, s))


def _pass_limit(ab, monkeypatch):
    return derive_shortlex_structure(_b3(ab), Limits(stability_window=1, max_passes=2))


def _construction_cap(ab, monkeypatch):
    return derive_shortlex_structure(_b3(ab), Limits(state_cap=5))


def _elementary_cap(ab, monkeypatch):
    _with_checks(monkeypatch, "elementary_checks", lambda real, s: real(s, 6))
    return derive_shortlex_structure(_z2(ab))


def _axiom_cap(ab, monkeypatch):
    _with_checks(monkeypatch, "axiom_check", lambda real, s: real(s, 3))
    return derive_shortlex_structure(_z2(ab))


def _no_equations_left(ab, monkeypatch):
    failed = ElementaryReport(False, [CheckFailure("epsilon")])
    _with_checks(monkeypatch, "elementary_checks", lambda real, s: failed)
    return derive_shortlex_structure(_z2(ab))


def _failed_relator(ab, monkeypatch):
    failed = AxiomReport(False, failed_relator=ab.parse_word("abAB"))
    _with_checks(monkeypatch, "axiom_check", lambda real, s: failed)
    return derive_shortlex_structure(_z2(ab))


DRIVER_EXITS = {
    _pass_limit: "23518f4528cca2502e8be7ca0b0689e4cbbe83326f16d8df45e1dbf9aa0930e3",
    _construction_cap: "e2fb5b1d1175528fc7d98aec65d06377fe86b0ecc033fbb29d1ac267ad69307f",
    _elementary_cap: "fbedc787688e91b196691c6ec60637da36c1507c25abc3776fbf17d3de7db6d1",
    _axiom_cap: "24a3e46384b24009430da18daf4233350fb45a502a5b5123d6b1d939d45a9ad5",
    _no_equations_left: "91dbd75e54585c842b008971c7ec4bf9999b575c878c85487726c6d7c53a9c1b",
    _failed_relator: "c350e9e4b7eabab09213cbe8baea0d50ee6a37a15350a974fea642cd106e30e6",
}


@pytest.mark.parametrize("case", DRIVER_EXITS, ids=lambda case: case.__name__.strip("_"))
def test_driver_exits_are_pinned(case, ab_alphabet, monkeypatch):
    out = case(ab_alphabet, monkeypatch)
    assert out.status == "abandoned"
    assert _outcome_digest(out) == DRIVER_EXITS[case]


# -- composite multipliers -----------------------------------------------------
#
# Each digest covers, in the order they are built, the composites of one
# check: compose(M_y, M_{y^-1}) for every generator y (the inverse test),
# every composite the axiom check builds, or compose(swap(M_y), M_y) for
# every generator y, which pins compose and swap together.  Each
# composite must also keep the padding discipline.


def _composite_texts(composites):
    for c in composites:
        validate_padding(c)
        yield formats.dumps(formats.pairdfa_to_json(c))


INVERSE = {
    "b3_structure": "8db159a6686c923c86088ef77a418ef4da07e1ed6d8b6c1fc57ee77cda8498cb",
    "starved_b3_structure": "0f22f063a080bfe20106528ba79c38b373ec47f43ac66337127a5170ccc457f3",
}


@pytest.mark.parametrize("fixture", sorted(INVERSE))
def test_inverse_composites_are_pinned(fixture, request):
    s = request.getfixturevalue(fixture)
    m = s.multipliers
    composites = [pairfsa.compose(m[y], m[s.alphabet.inverse[y]]) for y in range(s.alphabet.size)]
    assert _digest(_composite_texts(composites)) == INVERSE[fixture]


FUNCTIONALITY = {
    "b3_structure": "8db159a6686c923c86088ef77a418ef4da07e1ed6d8b6c1fc57ee77cda8498cb",
    "starved_b3_structure": "e4bf831599f7ca041e32a5309f3d6d977ee4367f0bc3d6a6b702f74e1d42d260",
}


@pytest.mark.parametrize("fixture", sorted(FUNCTIONALITY))
def test_functionality_composites_are_pinned(fixture, request):
    s = request.getfixturevalue(fixture)
    composites = [
        pairfsa.compose(pairfsa.swap(s.multipliers[y]), s.multipliers[y])
        for y in range(s.alphabet.size)
    ]
    assert _digest(_composite_texts(composites)) == FUNCTIONALITY[fixture]


# M(ab), M(aba) and M(bab), in that order, made by plain left-to-right
# compositions.  The axiom check builds M(ab) and then M(bab) from M_b and
# M(ab); M(aba) is only walked, as M(ab) and M_a within M(bab).
AXIOM_COMPOSITES = "0d260b9bba0e79127f3cb0d9d58ec37fc1c88b5cee7278474837992d93328bf4"


def test_axiom_check_composites_are_pinned(b3_structure, monkeypatch):
    m = b3_structure.multipliers
    a, b = (b3_structure.alphabet.index(x) for x in "ab")
    ab = pairfsa.compose(m[a], m[b])
    plain = [ab, pairfsa.compose(ab, m[a]), pairfsa.compose(pairfsa.compose(m[b], m[a]), m[b])]
    assert _digest(_composite_texts(plain)) == AXIOM_COMPOSITES
    built = []
    real = pairfsa.compose

    def compose(p, q, state_cap):
        built.append(real(p, q, state_cap))
        return built[-1]

    monkeypatch.setattr(pairfsa, "compose", compose)
    assert autostruct.axiom_check(b3_structure).ok
    assert list(_composite_texts(built)) == list(_composite_texts([plain[0], plain[2]]))


# -- normal forms --------------------------------------------------------------
#
# Each digest covers the normal forms of 13 seeded random words of length
# 50 and 13 of length 200, then the cone-type count at radius 8, of one
# structure.  They pin the multiplier lookup's answers, whatever route it
# takes to them.


NORMAL_FORMS = {
    "b3_structure": "efa8305637cbba041d74b89c917ae1fe674e965fd698539d031b766397883b33",
    "dinf_structure": "e8de047e4d9bb5edd7f2145e309297e4cda40757afc455985c39f18f09f3a2af",
    "s3_structure": "482f310936b09594f8b18276132bc947fdb300bc2eff3dc84a80206879cfdd59",
    "z2_structure": "56b2b4da76d31404cfd877c88c7e71d8c12a7e9ab38d65e7f48fdae4a56ef656",
}


def _normal_form_texts(s, seed):
    rng = random.Random(seed)
    A = s.alphabet
    for n in (50,) * 13 + (200,) * 13:
        w = bytes(rng.randrange(A.size) for _ in range(n))
        yield A.format_word(groupcalc.normal_form(s, w))
    yield str(groupcalc.cone_types(s, 8).count)


@pytest.mark.parametrize("fixture", sorted(NORMAL_FORMS))
def test_normal_forms_are_pinned(fixture, request):
    s = request.getfixturevalue(fixture)
    assert _digest(_normal_form_texts(s, fixture)) == NORMAL_FORMS[fixture]


# -- cone types ----------------------------------------------------------------
#
# Each digest is the SHA-256 of the cone-type automaton of one structure
# at one radius, in the JSON encoding that agt conetypes -o writes.


CONE_TYPES = {
    ("b3_structure", 4): "6734621a89d0d5c0c7d5b5a6a98c170f336aab64a8cd1f478e9db2298e6046b0",
    ("b3_structure", 5): "a5bc0fa0a2c03babb9304b544bb88e032abd1dbe991809f210ef99a0ecd5530d",
    ("b3_structure", 8): "68a1ec4caf03422e9cd9e301041a05f004d5035c48917312f7062757d1e71fe2",
    ("b3_structure", 9): "a0132767617be217b0f86cd731c3d565612ce00f3192c75c428d732243c24d98",
    ("dinf_structure", 4): "461d5d327b4a856d3b4a89179269fb7afffd8b3e49d322d59787ecef96ba07c8",
    ("dinf_structure", 5): "461d5d327b4a856d3b4a89179269fb7afffd8b3e49d322d59787ecef96ba07c8",
    ("dinf_structure", 8): "461d5d327b4a856d3b4a89179269fb7afffd8b3e49d322d59787ecef96ba07c8",
    ("dinf_structure", 9): "461d5d327b4a856d3b4a89179269fb7afffd8b3e49d322d59787ecef96ba07c8",
    ("s3_structure", 4): "2bbcb5bc98c6cd1e9e93823f1d0da4fe826aaddd19028cb95b84f97daafd3164",
    ("s3_structure", 5): "b231dbf93038f20b3707b266f9b1df70b8b6de5230bee3b1c1899913c9f806f8",
    ("s3_structure", 8): "b231dbf93038f20b3707b266f9b1df70b8b6de5230bee3b1c1899913c9f806f8",
    ("s3_structure", 9): "b231dbf93038f20b3707b266f9b1df70b8b6de5230bee3b1c1899913c9f806f8",
    ("z2_structure", 4): "1491e4f1c1f3eb12cc5c97beaa89d17b8ef9383c27807b0b51abdaf04ccfbadb",
    ("z2_structure", 5): "757ca8dd540ba0cee199ce40599cdd3ae9077f293199eefe100bad9bbb2926c4",
    ("z2_structure", 8): "757ca8dd540ba0cee199ce40599cdd3ae9077f293199eefe100bad9bbb2926c4",
    ("z2_structure", 9): "757ca8dd540ba0cee199ce40599cdd3ae9077f293199eefe100bad9bbb2926c4",
}


@pytest.mark.parametrize("fixture,radius", sorted(CONE_TYPES))
def test_cone_type_automata_are_pinned(fixture, radius, request):
    s = request.getfixturevalue(fixture)
    m = groupcalc.cone_types(s, radius).automaton
    text = formats.dumps(formats.dfa_to_json(m))
    assert hashlib.sha256(text.encode()).hexdigest() == CONE_TYPES[fixture, radius]


# -- boolean combinations -------------------------------------------------------
#
# Each digest covers one boolean operation on one pair of acceptors, taken
# both ways: op(m1, m2) then op(m2, m1), or not m1 then not m2.  The pairs
# are word acceptors of derived structures over a A b B and over the
# involutions a b, and the shortlex and geodesic acceptors of two Coxeter
# groups.


BOOLEAN_PAIRS = {
    "F2-Z2": (("fixture", "free_structure"), ("fixture", "z2_structure")),
    "Z2-B3": (("fixture", "z2_structure"), ("fixture", "b3_structure")),
    "F2-B3": (("fixture", "free_structure"), ("fixture", "b3_structure")),
    "S3-Dinf": (("fixture", "s3_structure"), ("fixture", "dinf_structure")),
    "H3": ((build_shortlex_word_acceptor, "H3"), (build_geodesic_acceptor, "H3")),
    "A2aff": ((build_shortlex_word_acceptor, "A2aff"), (build_geodesic_acceptor, "A2aff")),
}
BOOLEAN = {
    ("F2-Z2", "and"): "96529887e12340acc48fd9742486ad0bb0779d9fae5ef9345f07c5ed42dffa8d",
    ("F2-Z2", "or"): "3336e15823ea42a4811e1a61d4dce32f12e3391273da10e745325d80543e95e7",
    ("F2-Z2", "minus"): "5601994c14085fecc322de6f44a87d9db734bd1e6d3a4e4c448ae1bd9a5f6c46",
    ("F2-Z2", "not"): "e4b33006771d69d6bb04cbe7a4a53f79109d692004050b650decc2853e15a2ac",
    ("Z2-B3", "and"): "96529887e12340acc48fd9742486ad0bb0779d9fae5ef9345f07c5ed42dffa8d",
    ("Z2-B3", "or"): "6804678f60bade76515f73212aa0fa8b8fe951af3578144baed94102d2588361",
    ("Z2-B3", "minus"): "130c2a680013eaf8d85f11ad8c7feba78e1dd5178eb713e7ee230ef7980ba56b",
    ("Z2-B3", "not"): "96b1c573c7eb737ced39595fad7b64108747413e309611b1e761c30a30f49035",
    ("F2-B3", "and"): "6804678f60bade76515f73212aa0fa8b8fe951af3578144baed94102d2588361",
    ("F2-B3", "or"): "3336e15823ea42a4811e1a61d4dce32f12e3391273da10e745325d80543e95e7",
    ("F2-B3", "minus"): "14412eb5731b740037b89ce970c9a56ed829e83208a9b67f3945d41add9a2fd3",
    ("F2-B3", "not"): "eb30324f0e0ebe8ba2f0f4779049ae7a034ebcbd9033021599e9447ba9cdb619",
    ("S3-Dinf", "and"): "6cc59313bdde3ce00b008ef20c7567b9590bacad63836994e4d0652d8390d6ee",
    ("S3-Dinf", "or"): "f70220121d67e976ceaf869768cf022a33ce182a1d5adfb5a58f7c6004928ebf",
    ("S3-Dinf", "minus"): "460d895a50c4fffdde73926e192f8b182e0d29eef652a7cc7ff39bec599aeb79",
    ("S3-Dinf", "not"): "6288518b1566650377563d9126b5950bb859688aa3e3aab19136deafeeea9dd0",
    ("H3", "and"): "fea10083fa3812eb2a38ef4bfde1a1cdc865950cac0892d584312eb67e9b8382",
    ("H3", "or"): "6e1aeab35d524946d76933b2c248a0e6b437e4d191f6a29da1bc0a1845893ad7",
    ("H3", "minus"): "94a6c18cab798c8d20a09f60f352f536110f2aae4afb66c0bdf817a13de3ac9a",
    ("H3", "not"): "bca01bdf2dcf46263fe2b76122695d24b5f1a3c3294724a4939a4e67db4deeda",
    ("A2aff", "and"): "94fd5791dc09bc311e8a10bbd3c93aa2e1f34493d193087749cb76716158b9c8",
    ("A2aff", "or"): "a6fc6240407c35157eb40c4a9def3e23668a8a9fdea8c60cc4579461ceb181a7",
    ("A2aff", "minus"): "3df55f403c51af27c57651f326802b2cd7332852a1b0291167ab53d202163f12",
    ("A2aff", "not"): "6b9aadd40681fe04f726ba09b8bc66a49e68fd4f8d09fee8ea9917fb7f0d0317",
}


def _acceptor(source, request):
    how, name = source
    if how == "fixture":
        return request.getfixturevalue(name).word_acceptor
    return how(ROOT_MATRICES[name])


@pytest.mark.parametrize("pair,kind", sorted(BOOLEAN))
def test_boolean_operations_are_pinned(pair, kind, request):
    m1, m2 = (_acceptor(source, request) for source in BOOLEAN_PAIRS[pair])
    if kind == "not":
        results = [fsa.boolean_op("not", m1), fsa.boolean_op("not", m2)]
    else:
        results = [fsa.boolean_op(kind, m1, m2), fsa.boolean_op(kind, m2, m1)]
    texts = [formats.dumps(formats.dfa_to_json(m)) for m in results]
    assert _digest(texts) == BOOLEAN[pair, kind]


# -- the retry path --------------------------------------------------------------
#
# Genus 2, derived with an early pause, fails the inverse test, builds
# witness products for its failures, then fails first-side projection
# tests, whose walks give their witnesses, and then verifies.  The digest
# covers its transcript.


GENUS2_TRANSCRIPT = "00f81d00cd550e948ab370a0c12cf439c4850e15f292f8165d99af2dbf58bafd"


def test_genus2_retry_transcript_is_pinned():
    A = inverse_closed_alphabet(["a", "b", "c", "d"], {"a": "A", "b": "B", "c": "C", "d": "D"})
    pres = Presentation(A, [A.parse_word("abABcdCD")])
    out = derive_shortlex_structure(pres, Limits(stability_window=5, max_passes=20))
    assert out.verified
    assert "inverse(" in out.transcript
    assert "projection(" in out.transcript
    assert _digest([out.transcript]) == GENUS2_TRANSCRIPT


# -- growth series ---------------------------------------------------------------
#
# Each digest covers (numerator, denominator, coefficients) of
# ``growth_series(m, 16)`` for one acceptor: the shortlex acceptor of each
# ROOT_MATRICES group, the geodesic acceptor of each COXETER group, or the
# word acceptor of each STRUCTURES fixture.


def _series_digest(m):
    g = fsa.growth_series(m, 16)
    return _digest([json.dumps([g.numerator, g.denominator, g.coefficients])])


SHORTLEX_GROWTH = {
    "A2": "fe62c3fa8f2aa1176ad26bd98227a5ff8b7e7af751abcf8ce39367542b4482b4",
    "A2aff": "2c6fa2cbc4dd5bf8a8a9b2639467aef45a8d6eec9cfb56c3e611391731cec800",
    "A3aff": "2e45841b71e7f4413074e50bf58d07af71a74ba01d05651955a51f89b74a6cd5",
    "A4": "233947006f5cb2f921422da6590c465516e06af8df346e8a9b552ac5a23c5376",
    "B5": "9af95e996c9bcab2539ecd03e1ceafbbaf7ac36d121103078284043258f57445",
    "C3aff": "61283c28d48547a44333cc52177ff913ed9b915045d97f62b5632566e2e44ddd",
    "D4": "de5a33fc69946f54ca8898795f3ec28fe0ced419f19cbb14417b040f7f59ef4e",
    "Dinf": "2accc0972f8f269f14cb2b4a59944927a8158dbe8e2cf2aeee0ec6733e505b6d",
    "E6": "eab48596cd031c0853386ac9f7f0a0caf972b7be7eaf37655bb8767f6743524d",
    "F4": "9e9301a5f3ab4212529c1505ce4efa3d648b8ecf9abac4a536ce8bf5ad4b316c",
    "H3": "472efed7f814abafb40b071c9b53f16d54753ec5ad242b6e89f5c8cb559a7117",
    "H4": "712fec73a65c96f8044871ef0aeba1f12d9799e0d3c379aeebcc6cb03486b687",
    "I2_31": "9213860488afa3fd4a5aae7b8ec6fdda951c7a962d95498ab674e9208c4c4050",
    "I2_5": "11db89ded9fc5dc58e0bbc100249685558c8c8a01b2ec72746ea0835fa5a6866",
    "I2_97": "a9df81d596e636798377de5109f7397ac20716202b0d22d03ff05a3f66fa45a4",
    "RA4": "808340a8adb9254d34b4015d9d8d605570bd3a0b922dbcde10aec84742c55264",
    "T2311": "8508f5397b4745a58a3368586798f1155f7c30bc9c6051c80f3c78f66fcbaa4d",
    "T237": "2dc79227f64d207d5ada045b0d01fbbee83b1785256ce928c57bb25d54969521",
    "T245": "40247bd6e22e5273106421fe01b98cac3217b018fab85ae7945efea85fd3adbb",
    "T246": "5c232c977aac7bab488b2d5b6ae82b311fa0193009d7e9039e613e8604dbc7e0",
    "X": "c8f3d58f106c359604dbd9299e38c8c552e7695a4fe38848c27ec6a2b2f35b11",
}


@pytest.mark.parametrize("group", sorted(SHORTLEX_GROWTH))
def test_shortlex_growth_is_pinned(group):
    wa = build_shortlex_word_acceptor(ROOT_MATRICES[group])
    assert _series_digest(wa) == SHORTLEX_GROWTH[group]


GEODESIC_GROWTH = {
    "A3": "030b790c2fff05ae384e1a1568e529d63cdc5f40d5505179f48e35a60dd7e2f4",
    "B3": "ae28e5cddf00b48af53d091c499b26f6b8839e921c4c2ada91d193a0b6889203",
    "C3aff": "912e99eabdb91d4a59f71262d3b3f1afdef1cec3082786b598134f2fae643522",
    "F4": "8162c0abe427f230b60306a0376d2271030e3d29f91ac2658105e2505b530d61",
    "H3": "68ffb9fe264f469f31f1249a6b482df4030faa498280625764c4b8caa1d8473d",
    "T237": "64b794ab7afce6ca61c5a831411554920a42557e6eebfb9b2e901c80de08c2bf",
}


@pytest.mark.parametrize("group", sorted(GEODESIC_GROWTH))
def test_geodesic_growth_is_pinned(group):
    assert _series_digest(build_geodesic_acceptor(COXETER[group])) == GEODESIC_GROWTH[group]


STRUCTURE_GROWTH = {
    "b3_structure": "8d2341b1b49a68bf9664d09c98b7f2be0efaa2691826a664a8e6d25b5d41ca07",
    "dinf_structure": "2accc0972f8f269f14cb2b4a59944927a8158dbe8e2cf2aeee0ec6733e505b6d",
    "free_structure": "e2428d2a20b249a290ec50d3a2b35c702b81ca113d521ceb1d11c197e8b2e4e3",
    "s3_structure": "fe62c3fa8f2aa1176ad26bd98227a5ff8b7e7af751abcf8ce39367542b4482b4",
    "starved_b3_structure": "e2428d2a20b249a290ec50d3a2b35c702b81ca113d521ceb1d11c197e8b2e4e3",
    "z2_structure": "a28a0e7656eb5fd05e3293545b0e288cafefcf6931287d4e16e6ca371264add9",
}


@pytest.mark.parametrize("fixture", sorted(STRUCTURE_GROWTH))
def test_structure_growth_is_pinned(fixture, request):
    wa = request.getfixturevalue(fixture).word_acceptor
    assert _series_digest(wa) == STRUCTURE_GROWTH[fixture]
