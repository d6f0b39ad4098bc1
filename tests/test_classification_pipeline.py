"""The classification pipeline decides each thing once.

``repro.core.classifier.formula_route`` is the only place that picks a
formula's construction; explain mode reads its route and the census
reuses the general route's automaton instead of compiling it twice.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.census.corpus import load_corpus
from repro.census.run import _measure, read_census_csv
from repro.core.classifier import (
    ROUTE_COBUCHI_PRODUCT,
    ROUTE_LINGUISTIC,
    ROUTE_SAFRA,
    ROUTE_STREETT_PRODUCT,
    default_alphabet,
    formula_route,
    formula_to_automaton,
)
from repro.engine.cache import CACHES, automaton_key
from repro.logic import parse_formula

FORMULAS_DIR = Path(__file__).resolve().parent.parent / "formulas"


@pytest.fixture
def cleared_caches():
    CACHES.clear()
    yield
    CACHES.clear()


def test_formula_route_dispatch():
    assert formula_route(parse_formula("G p")).id == ROUTE_LINGUISTIC
    assert formula_route(parse_formula("(G F p) | (F G q)")).id == ROUTE_STREETT_PRODUCT
    assert formula_route(parse_formula("(G p) | (F q)")).id == ROUTE_COBUCHI_PRODUCT
    assert formula_route(parse_formula("p U (q U r)")).id == ROUTE_SAFRA


def test_route_counts_over_committed_corpus():
    routes = Counter(formula_route(entry.formula).id for entry in load_corpus(FORMULAS_DIR))
    assert routes == {
        ROUTE_LINGUISTIC: 602,
        ROUTE_COBUCHI_PRODUCT: 132,
        ROUTE_STREETT_PRODUCT: 134,
        ROUTE_SAFRA: 285,
    }


def test_general_route_rows_compile_to_their_quotient():
    """The census builds a general-route report on its own quotient; the
    baseline shows that quotient is the automaton the engine compiles."""
    general = [
        row
        for row in read_census_csv(FORMULAS_DIR / "census_baseline.csv")
        if formula_route(parse_formula(row["formula"])).id == ROUTE_SAFRA
    ]
    assert len(general) == 285
    for row in general:
        assert row["quotient_states"] == row["automaton_states"], row["formula"]


def test_general_route_builder_resolves_formula_to_dra_at_call_time(monkeypatch):
    import repro.omega.safra as safra

    calls = []
    original = safra.formula_to_dra

    def counted(formula, alphabet):
        calls.append(formula)
        return original(formula, alphabet)

    monkeypatch.setattr(safra, "formula_to_dra", counted)
    formula = parse_formula("p U (q U r)")
    automaton = formula_to_automaton(formula)
    assert calls == [formula]
    assert automaton_key(automaton) == automaton_key(
        original(formula, default_alphabet(formula))
    )


def test_census_measure_runs_gpvw_and_safra_once(monkeypatch, cleared_caches):
    import repro.logic.translate as translate
    import repro.omega.safra as safra

    counts = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(translate, "formula_to_nba")
    counting(safra, "determinize")
    fields = _measure("p U (q U r)")
    assert counts == {"formula_to_nba": 1, "determinize": 1}
    assert fields["quotient_states"] == fields["automaton_states"]


@pytest.mark.parametrize("text", ["G F p -> G F q", "G p", "p U q", "F p & G q"])
def test_classify_runs_one_wagner_pass_and_no_emptiness_check(text):
    """Every class, liveness, the Streett index and the obligation degree
    come from one Wagner pass over one condensation of the automaton's own
    graph: no live-set pass and no product-automaton emptiness check."""
    from repro.core.classifier import classify_formula
    from repro.engine.metrics import METRICS, snapshot_delta

    before = METRICS.snapshot()
    classify_formula(parse_formula(text))
    timers = snapshot_delta(before, METRICS.snapshot())["timers"]
    counts = {name: timers.get(name, {}).get("count", 0) for name in (
        "omega.classify.wagner", "emptiness.nonempty_states", "emptiness.product_check"
    )}
    assert counts == {
        "omega.classify.wagner": 1,
        "emptiness.nonempty_states": 0,
        "emptiness.product_check": 0,
    }
