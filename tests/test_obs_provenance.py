"""Tests for explain mode (repro.obs.provenance)."""

from __future__ import annotations

import pytest

from repro.core.classes import TemporalClass
from repro.core.classifier import (
    ROUTE_COBUCHI_PRODUCT,
    ROUTE_LINGUISTIC,
    ROUTE_SAFRA,
    ROUTE_STREETT_PRODUCT,
)
from repro.engine.cache import CacheBank, cached_classify_formula, cached_omega_language
from repro.logic import parse_formula
from repro.obs.provenance import (
    ROUTE_OMEGA_REGEX,
    class_reasons,
    explain_expression,
    explain_formula,
)
from repro.omega.classify import (
    is_guarantee,
    is_obligation,
    is_persistence,
    is_recurrence,
    is_safety,
    streett_index,
)
from repro.words import Alphabet

#: One formula per class, with the route its compilation must take.
SIX_CLASSES = [
    ("G p", TemporalClass.SAFETY, ROUTE_LINGUISTIC),
    ("F p", TemporalClass.GUARANTEE, ROUTE_LINGUISTIC),
    ("(G p) | (F q)", TemporalClass.OBLIGATION, ROUTE_COBUCHI_PRODUCT),
    ("G F p", TemporalClass.RECURRENCE, ROUTE_LINGUISTIC),
    ("F G p", TemporalClass.PERSISTENCE, ROUTE_LINGUISTIC),
    ("(G F p -> G F q)", TemporalClass.REACTIVITY, ROUTE_STREETT_PRODUCT),
]


def assert_reasons_match_procedures(explanation, automaton):
    """Explain reads its reasons off the verdict; they must agree with the
    §5.1 procedures run afresh on the automaton the verdict came from."""
    procedures = {
        TemporalClass.SAFETY: is_safety,
        TemporalClass.GUARANTEE: is_guarantee,
        TemporalClass.OBLIGATION: is_obligation,
        TemporalClass.RECURRENCE: is_recurrence,
        TemporalClass.PERSISTENCE: is_persistence,
        TemporalClass.REACTIVITY: lambda _automaton: True,
    }
    assert [r.temporal_class for r in explanation.reasons] == list(TemporalClass)
    for reason in explanation.reasons:
        assert reason.member is procedures[reason.temporal_class](automaton), reason
    index = streett_index(automaton)
    assert explanation.streett_index == index
    assert f"Streett index {index} " in explanation.reasons[-1].reason


@pytest.mark.parametrize("text,expected,route", SIX_CLASSES)
def test_explain_all_six_classes(text, expected, route):
    bank = CacheBank()
    explanation = explain_formula(text, bank=bank)
    assert explanation.canonical is expected
    assert explanation.route == route
    assert "view" in explanation.deciding_view
    member = {r.temporal_class: r.member for r in explanation.reasons}
    assert member[expected] is True
    report = cached_classify_formula(parse_formula(text), bank=bank)
    assert_reasons_match_procedures(explanation, report.automaton)


def test_reactivity_outside_every_normal_form_keeps_the_general_route():
    # No rewriting law reaches the X under G F, so no tester route applies.
    bank = CacheBank()
    explanation = explain_formula("G F X p -> G F q", bank=bank)
    assert explanation.canonical is TemporalClass.REACTIVITY
    assert explanation.route == ROUTE_SAFRA
    assert explanation.route_detail.startswith("general pipeline")
    report = cached_classify_formula(parse_formula("G F X p -> G F q"), bank=bank)
    assert_reasons_match_procedures(explanation, report.automaton)


def test_explain_names_the_rewriting_law_and_the_rewritten_formula():
    from repro.logic.rewrite import LAW_RESPONSE, normalize

    explanation = explain_formula("G (!r | F p)", bank=CacheBank())
    rewritten = normalize(parse_formula("G (!r | F p)"))
    assert repr(rewritten) == "G F !((!p S (r & !p)))"
    assert explanation.route == ROUTE_LINGUISTIC
    assert LAW_RESPONSE in explanation.route_detail
    assert repr(rewritten) in explanation.route_detail
    assert "recurrence normal form" in explanation.route_detail
    # The verdict and the syntactic view stay those of the input formula.
    assert explanation.subject == "G (!r | F p)"
    assert explanation.canonical is TemporalClass.RECURRENCE
    assert explanation.normal_form is None
    assert LAW_RESPONSE in explanation.render()


def test_normal_form_input_decided_by_formula_view():
    explanation = explain_formula("G p", bank=CacheBank())
    assert explanation.deciding_view.startswith("formula view")
    assert explanation.normal_form is TemporalClass.SAFETY


def test_non_normal_form_input_decided_by_automaton_view():
    explanation = explain_formula("(G F p -> G F q)", bank=CacheBank())
    assert explanation.deciding_view.startswith("automaton view")


def test_class_reasons_cover_all_six_classes():
    from repro.core.classifier import classify_formula

    report = classify_formula(parse_formula("G F p"))
    reasons = class_reasons(report.semantic.membership, report.streett_index)
    assert [r.temporal_class for r in reasons] == list(TemporalClass)
    by_class = {r.temporal_class: r for r in reasons}
    assert by_class[TemporalClass.RECURRENCE].member
    assert "Wagner" in by_class[TemporalClass.RECURRENCE].reason
    assert not by_class[TemporalClass.SAFETY].member
    assert by_class[TemporalClass.REACTIVITY].member


def test_evidence_carries_pairs_and_sizes():
    explanation = explain_formula("G F p", bank=CacheBank())
    evidence = explanation.evidence
    assert evidence["states"] >= 1
    assert evidence["reachable"] <= evidence["states"]
    assert evidence["acceptance"] in {"streett", "rabin"}
    for pair in evidence["pairs"]:
        assert sorted(pair["recurrent"]) == pair["recurrent"]
        assert sorted(pair["persistent"]) == pair["persistent"]


def test_render_names_deciding_view_and_membership():
    text = explain_formula("F p", bank=CacheBank()).render()
    assert "deciding view:" in text
    assert "compile route:" in text
    assert "∈ guarantee" in text
    assert "∉ safety" in text


def test_explain_expression_uses_omega_route():
    bank = CacheBank()
    explanation = explain_expression("(b*a)w", "ab", bank=bank)
    assert explanation.route == ROUTE_OMEGA_REGEX
    assert explanation.canonical is TemporalClass.RECURRENCE
    assert explanation.deciding_view.startswith("automaton view")
    assert "omega ab: (b*a)w" == explanation.subject
    automaton = cached_omega_language("(b*a)w", Alphabet.from_letters("ab"), bank=bank)
    assert_reasons_match_procedures(explanation, automaton)


def test_explain_accepts_parsed_formula_objects():
    parsed = parse_formula("F p")
    assert explain_formula(parsed, bank=CacheBank()).canonical is TemporalClass.GUARANTEE


def test_explain_warms_the_shared_cache():
    bank = CacheBank()
    explain_formula("G p", bank=bank)
    stats = bank.cache("classification").stats()
    assert stats.misses == 1
    explain_formula("G p", bank=bank)
    assert bank.cache("classification").stats().hits == 1
