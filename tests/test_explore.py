"""fsa.explore and the state cap of every construction built on it."""

import pytest

from agt import fsa, pairfsa
from agt.autostruct import build_candidate_word_acceptor, build_multipliers, elementary_checks
from agt.coxeter import CoxeterMatrix, build_geodesic_acceptor, build_shortlex_word_acceptor
from agt.errors import ResourceLimitError

A2 = CoxeterMatrix([[1, 3], [3, 1]])
H3 = CoxeterMatrix([[1, 5, 2], [5, 1, 3], [2, 3, 1]])


def test_explore_numbers_states_in_discovery_order():
    # x -> (2x, 3x) mod 7 from 1 reaches the six units
    def expand(x, index):
        return [index[2 * x % 7], index[3 * x % 7]]

    order, rows = fsa.explore(1, expand, 6, "units")
    assert order == [1, 2, 3, 4, 6, 5]
    assert rows == [[1, 2], [3, 4], [4, 1], [0, 5], [5, 3], [2, 0]]
    with pytest.raises(ResourceLimitError) as exc:
        fsa.explore(1, expand, 5, "units")
    assert (exc.value.which, exc.value.cap) == ("units", 5)


def test_a_zero_cap_numbers_no_state_and_expands_none():
    def expand(x, index):
        raise AssertionError("expand called")

    with pytest.raises(ResourceLimitError) as exc:
        fsa.explore(1, expand, 0, "units")
    assert (exc.value.which, exc.value.cap) == ("units", 0)


def reference_bfs(start, successors):
    """A plain queue numbering states as they are first seen."""
    number = {start: 0}
    order, rows = [start], []
    for state in order:  # order grows while it is walked
        row = []
        for t in successors(state):
            if t not in number:
                number[t] = len(order)
                order.append(t)
            row.append(number[t])
        rows.append(row)
    return order, rows


def test_a_long_chain_explores_like_a_plain_queue():
    # one new state per round, each also looking back at a seen state
    def successors(x):
        return [x + 1, x // 2] if x < 1999 else [x // 2]

    def expand(x, index):
        return [index[t] for t in successors(x)]

    expected = reference_bfs(0, successors)
    assert len(expected[0]) == 2000
    assert fsa.explore(0, expand, 2000, "chain states") == expected
    with pytest.raises(ResourceLimitError) as exc:
        fsa.explore(0, expand, 1999, "chain states")
    assert (exc.value.which, exc.value.cap) == ("chain states", 1999)


# construction -> (its cap message, fixtures, build(*fixtures, state_cap))
CONSTRUCTIONS = {
    "determinize": (
        "subset construction states",
        ["z2_structure"],
        lambda z2, cap: pairfsa.project_first(z2.multipliers[0], cap),
    ),
    "product": (
        "product states",
        ["free_structure", "z2_structure"],
        lambda f2, z2, cap: fsa.boolean_op(
            "minus", f2.word_acceptor, z2.word_acceptor, state_cap=cap
        ),
    ),
    "word_acceptor": (
        "word acceptor states",
        ["z2_structure"],
        lambda z2, cap: build_candidate_word_acceptor(z2.diff_machine, z2.alphabet, cap),
    ),
    "multiplier": (
        "multiplier states",
        ["free_structure"],
        lambda f2, cap: build_multipliers(f2.word_acceptor, f2.diff_machine, cap),
    ),
    "compose": (
        "composition product states",
        ["z2_structure"],
        lambda z2, cap: pairfsa.compose(z2.multipliers[0], z2.multipliers[2], cap),
    ),
    "composite_within": (
        "composition product states",
        ["z2_structure"],
        lambda z2, cap: pairfsa.composite_within(
            z2.multipliers[0], z2.multipliers[1], pairfsa.diagonal(z2.word_acceptor), cap
        ),
    ),
    "slice": (
        "slice states",
        ["z2_structure"],
        lambda z2, cap: pairfsa.slice_first(z2.multipliers[0], b"\x00\x02", cap),
    ),
    "coxeter_acceptor": (
        "acceptor subset states",
        [],
        lambda cap: build_shortlex_word_acceptor(A2, state_cap=cap),
    ),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_state_cap_is_the_number_of_explored_states(name, request, monkeypatch):
    what, fixtures, build = CONSTRUCTIONS[name]
    args = [request.getfixturevalue(f) for f in fixtures]
    explored = []
    real = fsa.explore

    def recording(start, expand, state_cap, label):
        order, rows = real(start, expand, state_cap, label)
        explored.append((label, len(order)))
        return order, rows

    monkeypatch.setattr(fsa, "explore", recording)
    expected = build(*args, fsa.DEFAULT_STATE_CAP)
    monkeypatch.undo()
    n = max(count for w, count in explored if w == what)
    # this construction's exploration is the largest one the build makes
    assert all(count <= n for _, count in explored), explored

    assert build(*args, n) == expected
    with pytest.raises(ResourceLimitError) as exc:
        build(*args, n - 1)
    assert (exc.value.which, exc.value.cap) == (what, n - 1)


def test_elementary_checks_cap_the_witness_products(starved_b3_structure):
    # starved B3's multipliers fail uniqueness, and the witness product
    # for that failure numbers more than 13 states: the cap stops it
    # there, before the first inverse composition is built (at 12 the
    # walk of the 13-state projection it starts from stops first)
    with pytest.raises(ResourceLimitError) as exc:
        elementary_checks(starved_b3_structure, 13)
    assert (exc.value.which, exc.value.cap) == ("product states", 13)


def test_state_cap_bounds_the_walk_of_an_empty_product():
    # H3's shortlex words are geodesics, so wa minus geo is empty and
    # numbers no subset; the walk over its 221 product pairs is capped
    wa, geo = build_shortlex_word_acceptor(H3), build_geodesic_acceptor(H3)
    with pytest.raises(ResourceLimitError) as exc:
        fsa.boolean_op("minus", wa, geo, state_cap=220)
    assert (exc.value.which, exc.value.cap) == ("product states", 220)
    empty = fsa.boolean_op("minus", wa, geo, state_cap=221)
    assert (empty.num_states, empty.accepting) == (1, frozenset())


def test_state_cap_bounds_the_walk_of_a_composition(starved_b3_structure):
    # at cap 29 the witness products fit, but a composition walks more
    # product states than that although it builds fewer subsets
    with pytest.raises(ResourceLimitError) as exc:
        elementary_checks(starved_b3_structure, 29)
    assert (exc.value.which, exc.value.cap) == ("composition product states", 29)
