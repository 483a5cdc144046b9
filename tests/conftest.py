import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from agt.autostruct import (
    AutomaticStructure,
    build_candidate_word_acceptor,
    build_multipliers,
    derive_shortlex_structure,
)
from agt.limits import Limits
from agt.rewrite import Completion, Presentation, system_from_presentation
from agt.worddiff import accumulate_from_rules
from agt.words import inverse_closed_alphabet


@pytest.fixture(scope="session")
def ab_alphabet():
    """a < a^-1 < b < b^-1, written a, A, b, B."""
    return inverse_closed_alphabet(["a", "b"], {"a": "A", "b": "B"})


@pytest.fixture(scope="session")
def coxeter_ab_alphabet():
    return inverse_closed_alphabet(["a", "b"], involutions=["a", "b"])


def _derive(alphabet, relator_texts):
    pres = Presentation(alphabet, [alphabet.parse_word(r) for r in relator_texts])
    outcome = derive_shortlex_structure(pres)
    assert outcome.verified, outcome.transcript
    return outcome.structure


@pytest.fixture(scope="session")
def free_structure(ab_alphabet):
    return _derive(ab_alphabet, [])


@pytest.fixture(scope="session")
def z2_structure(ab_alphabet):
    return _derive(ab_alphabet, ["abAB"])


@pytest.fixture(scope="session")
def s3_structure(coxeter_ab_alphabet):
    return _derive(coxeter_ab_alphabet, ["ababab"])


@pytest.fixture(scope="session")
def b3_structure(ab_alphabet):
    return _derive(ab_alphabet, ["abaBAB"])


@pytest.fixture(scope="session")
def dinf_structure(coxeter_ab_alphabet):
    return _derive(coxeter_ab_alphabet, [])


@pytest.fixture(scope="session")
def starved_b3_structure(ab_alphabet):
    """B3 built from a completion paused after one pair: the difference
    set is inadequate, so the multipliers are not functional."""
    A = ab_alphabet
    pres = Presentation(A, [A.parse_word("abaBAB")])
    rs = system_from_presentation(pres)
    Completion(rs, Limits(stability_window=1)).run(pause_when=lambda c: c.processed >= 1)
    d = accumulate_from_rules(rs)
    wa = build_candidate_word_acceptor(d, A)
    return AutomaticStructure(pres, wa, build_multipliers(wa, d), d, d.max_difference_length())


@pytest.fixture(scope="session")
def genus2_retry_structures():
    """The structure of every pass of genus 2 derived with an early
    pause (``stability_window=5, max_passes=20``), the first nine
    failing the elementary checks and the tenth verified, recorded as
    each pass hands it to the elementary checks."""
    from agt import autostruct

    A = inverse_closed_alphabet(list("abcd"), {"a": "A", "b": "B", "c": "C", "d": "D"})
    pres = Presentation(A, [A.parse_word("abABcdCD")])
    real = autostruct.elementary_checks
    structures = []

    def recorded(s, state_cap):
        structures.append(s)
        return real(s, state_cap)

    autostruct.elementary_checks = recorded
    try:
        outcome = derive_shortlex_structure(pres, Limits(stability_window=5, max_passes=20))
    finally:
        autostruct.elementary_checks = real
    assert outcome.verified, outcome.transcript
    return structures
