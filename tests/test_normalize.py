"""§4's normal-form rewrite in front of dispatch (``repro.logic.rewrite.normalize``).

The laws are checked on their printed shapes and, against the raw
GPVW → Safra automaton, on every committed corpus formula they reroute.
The rerouting changes exactly two census columns: ``automaton_states``
(only down) and ``uniform_liveness``, which goes from undecided (``''``:
the Rabin automaton of the general route has no Streett presentation) to
``true``; each such ``true`` is re-proved here on the old automaton with a
witness suffix.
"""

from collections import deque
from pathlib import Path

import pytest

from repro.census.corpus import load_corpus
from repro.census.run import read_census_csv
from repro.core.classifier import (
    ROUTE_SAFRA,
    _normal_form_route,
    default_alphabet,
    formula_report,
    formula_route,
)
from repro.logic import parse_formula
from repro.logic.rewrite import (
    LAW_NEGATION,
    LAW_PRECEDENCE,
    LAW_RESPONSE,
    LAW_RESPONSE_OR_GLOBAL,
    normalize,
)
from repro.omega.safra import formula_to_dra
from repro.words import LassoWord

FORMULAS_DIR = Path(__file__).resolve().parent.parent / "formulas"


@pytest.mark.parametrize(
    "text,expected,law",
    [
        ("!G F a | G F b", "F G !a | G F b", LAW_NEGATION),
        ("!(G F a & F G b)", "F G !a | G F !b", LAW_NEGATION),
        ("!G a | F b", "F !a | F b", LAW_NEGATION),
        ("G (p -> F q)", "G F !((!q S (p & !q)))", LAW_RESPONSE),
        ("G (a | F b | F c)", "G F !((!(b | c) S (!a & !(b | c))))", LAW_RESPONSE),
        (
            "G (a | (F b | G c))",
            "G F !((!b S (!b & !c & ((!b S (!a & !b))))))",
            LAW_RESPONSE_OR_GLOBAL,
        ),
        ("G (p -> (x W y))", "G !(!x & !y & ((!y S (p & !y))))", LAW_PRECEDENCE),
    ],
)
def test_each_law_prints_its_normal_form(text, expected, law):
    applied = []
    assert repr(normalize(parse_formula(text), applied)) == expected
    assert applied == [law]


def test_negated_response_is_persistence():
    applied = []
    normal = normalize(parse_formula("!G (p -> F q)"), applied)
    assert repr(normal) == "F G ((!q S (p & !q)))"
    assert applied == [LAW_RESPONSE, LAW_NEGATION]


@pytest.mark.parametrize(
    "text",
    ["F F p | G p", "G p", "G F p", "p U (q U r)", "G (p -> X q)", "G (a | G b)", "!(p & q)"],
)
def test_no_law_leaves_the_formula_alone(text):
    formula = parse_formula(text)
    applied = []
    assert normalize(formula, applied) is formula
    assert applied == []


def test_rewrite_is_used_only_when_it_reaches_a_normal_form_route():
    # The negation is pushed, but "F G !(q U r)" has no past body.
    formula = parse_formula("!G F (q U r) | G F p")
    assert _normal_form_route(normalize(formula)) is None
    route = formula_route(formula)
    assert route.id == ROUTE_SAFRA
    assert route.detail.startswith("general pipeline")


def rerouted_corpus_formulas():
    return [
        entry.formula
        for entry in load_corpus(FORMULAS_DIR)
        if _normal_form_route(entry.formula) is None
        and formula_route(entry.formula).id != ROUTE_SAFRA
    ]


def test_every_rerouted_corpus_formula_keeps_its_language():
    rerouted = rerouted_corpus_formulas()
    assert len(rerouted) == 30
    for formula in rerouted:
        alphabet = default_alphabet(formula)
        raw = formula_to_dra(formula, alphabet)
        rewritten = formula_route(formula).build(alphabet)
        assert rewritten.equivalent_to(raw), formula
        assert rewritten.num_states < raw.num_states, formula


def _cell(value) -> str:
    return "" if value is None else str(value).lower()


def _nonempty_access_words(automaton) -> dict[int, tuple]:
    """A shortest non-empty word reaching each state a non-empty word reaches."""
    words: dict[int, tuple] = {}
    queue = deque()
    for symbol in automaton.alphabet:
        state = automaton.step(automaton.initial, symbol)
        if state not in words:
            words[state] = (symbol,)
            queue.append(state)
    while queue:
        state = queue.popleft()
        for symbol in automaton.alphabet:
            target = automaton.step(state, symbol)
            if target not in words:
                words[target] = words[state] + (symbol,)
                queue.append(target)
    return words


def _uniform_witness(automaton) -> tuple | None:
    """A loop ``v`` (one or two letters) with ``u·v^ω`` accepted for a
    prefix ``u`` reaching every state that a non-empty prefix reaches:
    the automaton is deterministic, so that is every prefix."""
    prefixes = list(_nonempty_access_words(automaton).values())
    letters = list(automaton.alphabet)
    for loop in [(a,) for a in letters] + [(a, b) for a in letters for b in letters]:
        if all(automaton.accepts(LassoWord(prefix, loop)) for prefix in prefixes):
            return loop
    return None


def test_uniform_liveness_changes_only_from_undecided_to_true():
    baseline = {
        row["formula"]: row["uniform_liveness"]
        for row in read_census_csv(FORMULAS_DIR / "census_baseline.csv")
    }
    changed = []
    for formula in rerouted_corpus_formulas():
        alphabet = default_alphabet(formula)
        raw = formula_to_dra(formula, alphabet)
        before = _cell(formula_report(formula, alphabet, raw).is_uniform_liveness)
        after = baseline[repr(formula)]
        if before != after:
            assert (before, after) == ("", "true"), formula
            changed.append((formula, raw))
    assert len(changed) == 24
    for formula, raw in changed:
        assert _uniform_witness(raw) is not None, formula
