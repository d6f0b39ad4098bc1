"""The differential oracles and the fuzz runner.

The headline test deliberately breaks a classifier (monkeypatching the
syntactic grammar to claim everything is a safety property) and demands the
fuzzer both *catches* the lie and *shrinks* the counterexample to a
human-readable formula of at most five nodes — the end-to-end contract of
the whole qa subsystem.
"""

import pytest

from repro.core.classes import TemporalClass
from repro.engine.metrics import METRICS
from repro.logic.ast import Not
from repro.logic.parser import parse_formula
from repro.qa.fuzz import run_fuzz
from repro.qa.generate import GeneratorConfig
from repro.qa.oracles import ORACLES, oracle_named
from repro.qa.shrink import formula_size


class TestOracleRegistry:
    def test_seven_oracles_registered(self):
        assert set(ORACLES) == {
            "formula-lasso",
            "formula-class",
            "normalize",
            "linguistic",
            "automaton",
            "fastpath",
            "fleet",
        }

    def test_every_oracle_has_at_least_two_routes(self):
        for oracle in ORACLES.values():
            assert len(oracle.routes) >= 2, oracle.name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            oracle_named("nope")

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_artifact_round_trip(self, name, qa_rng):
        oracle = oracle_named(name)
        subject = oracle.generate(qa_rng, GeneratorConfig())
        artifact = oracle.to_artifact(subject)
        restored = oracle.from_artifact(artifact)
        assert oracle.check(restored) == oracle.check(subject)
        assert oracle.describe(restored)


class TestFuzzRun:
    def test_small_budget_all_views_agree(self, qa_seed):
        report = run_fuzz(seed=qa_seed, budget=60)
        assert report.ok, report.summary()
        assert report.cases == 60
        assert set(report.per_oracle) == set(ORACLES)

    def test_same_seed_reproduces_the_run(self):
        first = run_fuzz(seed=424242, budget=20)
        second = run_fuzz(seed=424242, budget=20)
        assert first.ok == second.ok
        assert first.per_oracle == second.per_oracle

    def test_metrics_are_emitted(self):
        before = METRICS.counter("qa.fuzz.cases").value
        run_fuzz(seed=3, budget=8)
        assert METRICS.counter("qa.fuzz.cases").value == before + 8

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            run_fuzz(seed=1, budget=0)

    def test_oracle_subset_selection(self):
        report = run_fuzz(seed=5, budget=6, oracles=["linguistic"])
        assert report.per_oracle == {"linguistic": 6}


class TestNormalizeOracle:
    def test_every_generated_shape_is_rewritten_and_agrees(self, qa_seed):
        report = run_fuzz(seed=qa_seed, budget=24, oracles=["normalize"])
        assert report.ok, report.summary()

    def test_a_broken_law_is_caught(self, monkeypatch, qa_seed):
        # The lie: the response laws lose their outer negation, □◇¬V → □◇V.
        from repro.logic.ast import Always, Eventually
        from repro.logic.rewrite import normalize

        def broken(formula, applied=None):
            normal = normalize(formula, applied)
            if isinstance(normal, Always) and isinstance(normal.operand, Eventually):
                return Always(Eventually(Not(normal.operand.operand)))
            return normal

        monkeypatch.setattr("repro.core.classifier.normalize", broken)
        report = run_fuzz(seed=qa_seed, budget=40, oracles=["normalize"])
        assert not report.ok
        assert any("not equivalent" in f.shrunk_detail for f in report.failures)

    def test_formula_class_negates_on_the_raw_general_route(self, monkeypatch):
        import repro.qa.oracles as oracles

        compiled = []
        original = oracles.formula_to_dra

        def counted(formula, alphabet):
            compiled.append(formula)
            return original(formula, alphabet)

        monkeypatch.setattr(oracles, "formula_to_dra", counted)
        formula = parse_formula("G p")
        assert oracle_named("formula-class").check(formula) is None
        assert compiled == [Not(formula)]


class TestInjectedBugIsCaughtAndShrunk:
    """Acceptance criterion: a deliberately broken classifier is caught
    and the counterexample shrinks to a ≤5-node formula."""

    def _break_syntactic_grammar(self, monkeypatch):
        # The lie: every formula is syntactically a safety property.
        monkeypatch.setattr(
            "repro.qa.oracles.syntactic_classes",
            lambda formula: frozenset({TemporalClass.SAFETY}),
        )

    def test_fuzzer_catches_the_injected_bug(self, monkeypatch, qa_seed):
        self._break_syntactic_grammar(monkeypatch)
        report = run_fuzz(seed=qa_seed, budget=40, oracles=["formula-class"])
        assert not report.ok, "injected classifier bug went undetected"
        failure = report.failures[0]
        assert failure.oracle == "formula-class"
        assert "syntactic grammar claims safety" in failure.shrunk_detail

    def test_counterexample_shrinks_to_at_most_five_nodes(self, monkeypatch, qa_seed):
        self._break_syntactic_grammar(monkeypatch)
        report = run_fuzz(seed=qa_seed, budget=40, oracles=["formula-class"])
        assert report.failures
        for failure in report.failures:
            shrunk = parse_formula(failure.shrunk_artifact["formula"])
            assert formula_size(shrunk) <= 5, (
                f"shrunk counterexample still has {formula_size(shrunk)}"
                f" nodes: {shrunk!r}"
            )
            # The shrunk artifact must still reproduce the disagreement.
            oracle = oracle_named("formula-class")
            assert oracle.check(oracle.from_artifact(failure.shrunk_artifact))

    def test_shrunk_artifacts_land_in_the_corpus_dir(self, monkeypatch, qa_seed, tmp_path):
        self._break_syntactic_grammar(monkeypatch)
        report = run_fuzz(
            seed=qa_seed, budget=20, oracles=["formula-class"], write_corpus=tmp_path
        )
        assert report.failures
        assert report.artifacts_written
        for path in report.artifacts_written:
            assert path.parent == tmp_path
            assert path.suffix == ".json"
