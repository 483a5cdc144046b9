import json

import pytest

from agt import formats, fsa
from agt.autostruct import derive_shortlex_structure
from agt.coxeter import CoxeterMatrix
from agt.errors import UsageError
from agt.pairfsa import PairAlphabet, PairDfa
from agt.rewrite import Completion, Presentation, system_from_presentation

from oracles import matrix_to_json


def test_presentation_roundtrip(ab_alphabet):
    p = Presentation(ab_alphabet, [ab_alphabet.parse_word("abAB")])
    data = json.loads(formats.dumps(formats.presentation_to_json(p)))
    p2 = formats.presentation_from_json(data)
    assert p2 == p


def test_presentation_examples():
    z2 = formats.presentation_from_json(
        {
            "generators": ["a", "b"],
            "inverses": {"a": "A", "b": "B"},
            "relators": ["abAB"],
        }
    )
    assert z2.alphabet.names == ("a", "A", "b", "B")
    assert [z2.alphabet.format_word(r) for r in z2.relators] == ["abAB"]

    s3 = formats.presentation_from_json(
        {
            "generators": ["a", "b"],
            "involutions": ["a", "b"],
            "relators": ["ababab"],
        }
    )
    assert s3.alphabet.names == ("a", "b")
    assert s3.alphabet.inverse == (0, 1)


def test_presentation_error_diagnostics():
    with pytest.raises(UsageError, match="'c'"):
        formats.presentation_from_json(
            {
                "generators": ["a", "b"],
                "involutions": ["a", "b"],
                "relators": ["abc"],
            }
        )
    with pytest.raises(UsageError, match="generator 'b'"):
        formats.presentation_from_json(
            {"generators": ["a", "b"], "inverses": {"a": "A"}, "relators": []}
        )
    with pytest.raises(UsageError, match="distinct"):
        # an inverse name clashing with its generator is not an involution marker
        formats.presentation_from_json(
            {"generators": ["a"], "inverses": {"a": "a"}, "relators": []}
        )


def test_presentation_explicit_order():
    p = formats.presentation_from_json(
        {
            "generators": ["a", "b"],
            "inverses": {"a": "A", "b": "B"},
            "order": ["a", "b", "A", "B"],
            "relators": ["abAB"],
        }
    )
    assert p.alphabet.names == ("a", "b", "A", "B")
    assert p.alphabet.inverse == (2, 3, 0, 1)


@pytest.mark.parametrize(
    "order",
    [["a", "A"], ["a", "A", "b", "B", "c"], ["a", "A", "b", "b"], ["a", "A", "b", "B", "B"],
     "aAbB"],
)
def test_presentation_order_lists_every_symbol_once(order):
    data = {"generators": ["a", "b"], "inverses": {"a": "A", "b": "B"}, "relators": []}
    with pytest.raises(UsageError, match="'order' must list each of a, A, b, B exactly once"):
        formats.presentation_from_json({**data, "order": order})


def test_dfa_roundtrip(free_structure):
    wa = free_structure.word_acceptor
    data = json.loads(formats.dumps(formats.dfa_to_json(wa)))
    wa2 = formats.dfa_from_json(data)
    assert wa2 == wa


@pytest.mark.parametrize(
    "transitions, message",
    [
        ([[2], [0]], "transition target out of range"),
        ([[-2], [0]], "transition target out of range"),
        ([[], [0]], "transition row width must match alphabet size"),
    ],
    ids=["target_past_the_end", "target_below_fail", "short_row"],
)
def test_dfa_from_json_checks_the_table(transitions, message):
    """A table read from a file goes through the checking constructor."""
    data = {
        "alphabet": ["a"], "inverses": {"a": "a"}, "states": 2, "initial": 0,
        "accepting": [1], "transitions": transitions,
    }
    with pytest.raises(UsageError, match=message):
        formats.dfa_from_json(data)


@pytest.mark.parametrize(
    "field, value",
    [("states", True), ("initial", False), ("accepting", [False]), ("transitions", [[False]])],
)
def test_dfa_from_json_refuses_booleans(field, value):
    """True == 1 and False == 0, so each of these would pass as a number."""
    data = {
        "alphabet": ["a"], "inverses": {"a": "a"}, "states": 1, "initial": 0,
        "accepting": [0], "transitions": [[0]], field: value,
    }
    with pytest.raises(UsageError, match="not true or false"):
        formats.dfa_from_json(data)


def test_dfa_from_json_refuses_a_string_alphabet():
    """A string would be read as its letters, the symbols a and b."""
    data = {
        "alphabet": "ab", "inverses": {"a": "b", "b": "a"}, "states": 1, "initial": 0,
        "accepting": [0], "transitions": [[0, 0]],
    }
    with pytest.raises(UsageError, match="'alphabet' must be a list of names"):
        formats.dfa_from_json(data)


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
def test_dfa_from_json_refuses_a_pair_flag_that_is_not_a_boolean(flag):
    """Read by truthiness, "false" would select the pair alphabet."""
    data = {
        "alphabet": ["a"], "inverses": {"a": "a"}, "pairAlphabet": flag, "states": 1,
        "initial": 0, "accepting": [0], "transitions": [[0]],
    }
    with pytest.raises(UsageError, match="'pairAlphabet' must be true or false"):
        formats.dfa_from_json(data)


def test_diff_from_json_refuses_a_string_alphabet(z2_structure):
    data = json.loads(formats.dumps(formats.diff_to_json(z2_structure.diff_machine)))
    data["alphabet"] = "".join(data["alphabet"])
    with pytest.raises(UsageError, match="'alphabet' must be a list of names"):
        formats.diff_from_json(data)


def test_pairdfa_roundtrip(z2_structure):
    m = z2_structure.multipliers[0]
    data = json.loads(formats.dumps(formats.pairdfa_to_json(m)))
    m2 = formats.dfa_from_json(data)
    assert isinstance(m2, PairDfa)
    assert m2 == m


def test_matrix_roundtrip():
    m = CoxeterMatrix([[1, 3, 0], [3, 1, 4], [0, 4, 1]])
    data = json.loads(formats.dumps(matrix_to_json(m)))
    m2 = formats.matrix_from_json(data)
    assert m2.m == m.m


def test_growth_json(z2_structure):
    g = fsa.growth_series(z2_structure.word_acceptor, 5)
    data = formats.growth_to_json(g)
    assert data["numerator"] == [1, 2, 1]
    assert data["denominator"] == [1, -2, 1]
    assert data["coefficients"] == [1, 4, 8, 12, 16]


def test_bundle_keeps_an_explicit_order(tmp_path):
    data = {"generators": ["a", "b"], "inverses": {"a": "A", "b": "B"},
            "order": ["a", "b", "A", "B"], "relators": ["abAB"]}
    pres = formats.presentation_from_json(data)
    assert formats.presentation_to_json(pres)["order"] == data["order"]
    s = derive_shortlex_structure(pres).structure
    formats.save_structure(s, tmp_path)
    assert formats.load_structure(tmp_path).alphabet == pres.alphabet


@pytest.mark.parametrize(
    "data",
    [
        {"generators": ["a b"], "inverses": {"a b": "A"}, "relators": []},
        {"generators": ["a"], "inverses": {"a": ""}, "relators": []},
        {"generators": [""], "involutions": [""], "relators": []},
        {"generators": [1], "involutions": [1], "relators": []},
    ],
)
def test_presentation_refuses_names_that_are_not_plain_text(data):
    with pytest.raises(UsageError):
        formats.presentation_from_json(data)


@pytest.mark.parametrize("name", ["eps", "a/b", "a\0b"])
def test_bundle_refuses_names_that_cannot_name_multiplier_files(name, tmp_path):
    pres = formats.presentation_from_json(
        {"generators": [name], "inverses": {name: "E"}, "relators": []}
    )
    s = derive_shortlex_structure(pres).structure
    out = tmp_path / "bundle"
    with pytest.raises(UsageError):
        formats.save_structure(s, out)
    assert not out.exists()


def test_bundle_with_an_eps_generator_does_not_load(tmp_path):
    """A bundle whose generator eps overwrote the epsilon multiplier's
    file, as a writer without the name check left it, is refused."""
    pres = formats.presentation_from_json(
        {"generators": ["x"], "inverses": {"x": "E"}, "relators": []}
    )
    formats.save_structure(derive_shortlex_structure(pres).structure, tmp_path)
    for f in tmp_path.glob("*.json"):
        f.write_text(f.read_text().replace('"x"', '"eps"'))
    (tmp_path / "m_x.json").replace(tmp_path / "m_eps.json")
    with pytest.raises(UsageError):
        formats.load_structure(tmp_path)


def test_diff_roundtrip(z2_structure):
    d = z2_structure.diff_machine
    data = json.loads(formats.dumps(formats.diff_to_json(d)))
    d2 = formats.diff_from_json(data)
    assert d2.words == d.words
    assert d2.table == d.table
    assert data["k"] == 2


def test_structure_bundle_roundtrip(tmp_path, z2_structure):
    out = tmp_path / "bundle"
    written = formats.save_structure(z2_structure, out)
    assert "wa.json" in written and "m_eps.json" in written
    s2 = formats.load_structure(out)
    assert s2.word_acceptor == z2_structure.word_acceptor
    assert s2.k == z2_structure.k
    assert s2.verified
    assert s2.multipliers.keys() == z2_structure.multipliers.keys()
    for key in s2.multipliers:
        assert s2.multipliers[key] == z2_structure.multipliers[key]


def test_bundle_load_builds_one_pair_alphabet(tmp_path, b3_structure, monkeypatch):
    formats.save_structure(b3_structure, tmp_path)
    built = []
    real = PairAlphabet.__init__

    def counting(self, base):
        built.append(base)
        real(self, base)

    monkeypatch.setattr(PairAlphabet, "__init__", counting)
    s = formats.load_structure(tmp_path)
    assert len(built) == 1
    # the difference machine and every multiplier share it
    assert all(m.pairs is s.diff_machine.pairs for m in s.multipliers.values())
    for key, m in s.multipliers.items():
        assert m == b3_structure.multipliers[key]


def test_bundle_deterministic_bytes(tmp_path, z2_structure):
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    formats.save_structure(z2_structure, d1)
    formats.save_structure(z2_structure, d2)
    for f in sorted(p.name for p in d1.iterdir()):
        assert (d1 / f).read_bytes() == (d2 / f).read_bytes()


def test_rules_dump(ab_alphabet):
    rs = system_from_presentation(Presentation(ab_alphabet, [ab_alphabet.parse_word("abAB")]))
    Completion(rs).run()
    text = formats.rules_dump(rs)
    assert "ba -> ab" in text
    assert text.endswith("\n")
