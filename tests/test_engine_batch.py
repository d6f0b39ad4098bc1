"""The EvaluationEngine: dedup, executors, the persistent pool, all four job kinds."""

import os

import pytest

from repro.engine.batch import (
    ClassifyFormula,
    ClassifyOmega,
    EvaluationEngine,
    ModelCheck,
    MonitorLasso,
)
from repro.engine.cache import CacheBank
from repro.core.monitor import Verdict3
from repro.logic import parse_formula
from repro.systems.mutex import trivial_mutex

CORPUS = ["G p", "F q", "G (p -> F q)", "F G p", "G p", "F q", "G p"]


def fresh_engine(**kwargs) -> EvaluationEngine:
    return EvaluationEngine(bank=CacheBank(), **kwargs)


class TestDeduplication:
    def test_structurally_equal_jobs_collapse(self):
        report = fresh_engine().classify_formulas(CORPUS)
        assert report.total_jobs == 7
        assert report.unique_jobs == 4
        assert report.deduplicated == 3
        # Dedup flags mark the later copies, never the first occurrence.
        flags = [result.deduped for result in report.results]
        assert flags == [False, False, False, False, True, True, True]

    def test_parsed_and_text_jobs_share_a_key(self):
        report = fresh_engine().run(
            [ClassifyFormula("G p"), ClassifyFormula(parse_formula("G p"))]
        )
        assert report.unique_jobs == 1

    def test_dedupe_can_be_disabled_and_cache_absorbs_repeats(self):
        bank = CacheBank()
        engine = EvaluationEngine(dedupe=False, bank=bank)
        report = engine.classify_formulas(["G p", "G p", "G p"])
        assert report.unique_jobs == 3
        assert bank.stats()["classification"].hits == 2

    def test_results_keep_input_order(self):
        report = fresh_engine().classify_formulas(CORPUS)
        classes = [result.unwrap().canonical_class.value for result in report.results]
        assert classes == [
            "safety", "guarantee", "recurrence", "persistence",
            "safety", "guarantee", "safety",
        ]


class TestExecutors:
    @pytest.mark.parametrize("executor", ["process"])
    def test_parallel_matches_serial(self, executor):
        serial = fresh_engine(executor="serial").classify_formulas(CORPUS)
        with fresh_engine(executor=executor, max_workers=2) as engine:
            parallel = engine.classify_formulas(CORPUS)
        assert parallel.executor == executor
        for left, right in zip(serial.results, parallel.results):
            assert left.ok and right.ok
            assert left.value.canonical_class is right.value.canonical_class
            assert left.value.streett_index == right.value.streett_index

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            EvaluationEngine(executor="gpu")
        with pytest.raises(ValueError):
            EvaluationEngine(executor="thread")

    def test_single_job_batches_run_serially(self):
        with fresh_engine(executor="process") as engine:
            report = engine.classify_formulas(["G p"])
        assert report.executor == "serial"
        assert engine._pool is None  # no pool for a batch it would not use

    def test_large_automaton_report_comes_home_from_a_worker(self):
        # The first formula compiles to a 112-state automaton whose
        # classification leaves derived caches on it; its report must still
        # pickle back from the worker instead of failing the batch.
        formulas = ["G F X a -> G F b", "G p", "F q"]
        serial = fresh_engine().classify_formulas(formulas)
        with fresh_engine(executor="process", max_workers=2) as engine:
            report = engine.classify_formulas(formulas)
        assert report.executor == "process"
        assert [r.status for r in report.results] == ["ok"] * 3
        for left, right in zip(serial.results, report.results):
            assert left.value.summary() == right.value.summary()

    def test_unpicklable_model_check_gets_a_typed_error_alone(self):
        # A FairTransitionSystem holds closures, so a ModelCheck job cannot
        # pickle to a worker: that job fails with status "error" and is not
        # re-run here, while its picklable batch-mates succeed.
        engine = fresh_engine(executor="process", max_workers=2)
        with engine:
            report = engine.run(
                [
                    ModelCheck(trivial_mutex(), "G !(crit1 & crit2)"),
                    ClassifyFormula("G p"),
                    ClassifyFormula("F q"),
                ]
            )
            after = engine.classify_formulas(["G p", "F G q"])
        assert report.executor == "process"
        checked, *mates = report.results
        assert checked.status == "error" and not checked.ok
        assert "pickle" in checked.error
        assert [r.value.canonical_class.value for r in mates] == ["safety", "guarantee"]
        assert all(r.ok for r in after.results)


class TestJobErrorCount:
    FORMULAS = ["G (p", "G p", "F q"]

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_a_worker_error_is_counted_once(self, traced):
        from repro.engine.cache import CACHES
        from repro.engine.metrics import MetricsRegistry
        from repro.obs.spans import TRACER

        serial = MetricsRegistry()
        fresh_engine(metrics=serial).classify_formulas(self.FORMULAS)
        # Forked workers inherit the global cache; a warm one would skip the
        # work whose metrics the traced run ships home.
        CACHES.clear()
        metrics = MetricsRegistry()
        if traced:
            TRACER.enable()
        try:
            with fresh_engine(executor="process", max_workers=2, metrics=metrics) as engine:
                report = engine.classify_formulas(self.FORMULAS)
        finally:
            TRACER.disable()
            TRACER.clear()
        assert report.executor == "process"
        assert [r.status for r in report.results] == ["error", "ok", "ok"]
        counters = metrics.snapshot()["counters"]
        assert serial.snapshot()["counters"]["engine.job_errors"] == 1
        assert counters["engine.job_errors"] == 1
        # Traced, the workers' metrics delta came home, without the error.
        assert ("emptiness.streett_calls" in counters) is traced


class TestPersistentPool:
    def test_ten_batches_start_max_workers_workers_and_close_joins_them(self):
        from repro.engine.metrics import METRICS

        started = METRICS.counter("census.pool.workers_started")
        before = started.value
        engine = fresh_engine(executor="process", max_workers=2)
        for round_ in range(10):
            report = engine.classify_formulas(["G p", f"F q{round_}", "G F r"])
            assert report.executor == "process"
            assert all(r.ok for r in report.results)
        assert started.value - before == 2
        workers = [slot.process for slot in engine._pool._slots]
        assert len(workers) == 2 and all(w.is_alive() for w in workers)
        engine.close()
        assert all(w.exitcode is not None for w in workers)
        assert engine._pool is None

    def test_a_worker_death_fails_only_its_job(self, monkeypatch):
        # Patched before the pool forks, so every worker inherits it.
        original = ClassifyFormula.evaluate

        def evaluate(self, bank):
            if self.formula == "G crash":
                os._exit(13)
            return original(self, bank)

        monkeypatch.setattr(ClassifyFormula, "evaluate", evaluate)
        with fresh_engine(executor="process", max_workers=2) as engine:
            report = engine.classify_formulas(["G p", "G crash", "F q", "G F p"])
            after = engine.classify_formulas(["G p", "F G q"])
        assert [r.status for r in report.results] == ["ok", "crashed", "ok", "ok"]
        assert "exitcode 13" in report.results[1].error
        assert [r.value.canonical_class.value for r in after.results] == [
            "safety", "persistence",
        ]


class TestJobKinds:
    def test_classify_omega(self):
        report = fresh_engine().run([ClassifyOmega("(ab)w", "ab"), ClassifyOmega(".*b(ab)w | aw", "ab")])
        first, second = report.values()
        assert first.canonical.value == "safety"
        assert second.canonical.value == "persistence"

    def test_monitor_lasso_verdicts(self):
        p, empty = frozenset("p"), frozenset()
        report = fresh_engine().run(
            [
                MonitorLasso("G p", stem=(p,), loop=(empty,)),
                MonitorLasso("F p", stem=(), loop=(p,)),
                MonitorLasso("G F p", stem=(), loop=(p, empty)),
            ]
        )
        violated, satisfied, pending = report.values()
        assert violated.verdict is Verdict3.VIOLATED
        assert satisfied.verdict is Verdict3.SATISFIED
        assert pending.verdict is Verdict3.PENDING

    def test_monitor_needs_a_loop(self):
        report = fresh_engine().run([MonitorLasso("G p", stem=(frozenset("p"),), loop=())])
        assert not report.results[0].ok
        assert "loop" in report.results[0].error

    def test_model_check(self):
        system = trivial_mutex()
        report = fresh_engine().run(
            [
                ModelCheck(system, "G !(crit1 & crit2)"),
                ModelCheck(system, "G crit1"),
            ]
        )
        holds, fails = report.values()
        assert holds.holds
        assert not fails.holds

    def test_mixed_batch_shares_the_automaton_cache(self):
        bank = CacheBank()
        engine = EvaluationEngine(bank=bank)
        p, empty = frozenset("p"), frozenset()
        engine.run(
            [
                ClassifyFormula("G p"),
                MonitorLasso("G p", stem=(p,), loop=(empty,)),
            ]
        )
        # The classification's automaton is reused by the monitor job.
        assert bank.stats()["formula_automaton"].hits == 1


class TestErrorsAndReporting:
    def test_bad_formula_fails_only_its_own_job(self):
        report = fresh_engine().classify_formulas(["G p", "G (p -> ", "F q"])
        assert [result.ok for result in report.results] == [True, False, True]
        assert report.failures[0].index == 1
        with pytest.raises(RuntimeError):
            report.results[1].unwrap()

    def test_summary_mentions_everything(self):
        report = fresh_engine().classify_formulas(CORPUS)
        summary = report.summary()
        assert "deduplicated" in summary
        assert "safety" in summary
        assert "formula_automaton" in summary

    def test_class_counts(self):
        report = fresh_engine().classify_formulas(CORPUS)
        assert report.class_counts() == {
            "safety": 3, "guarantee": 2, "recurrence": 1, "persistence": 1,
        }

    def test_warm_cache_answers_repeat_batches(self):
        bank = CacheBank()
        engine = EvaluationEngine(bank=bank)
        engine.classify_formulas(CORPUS)
        before = bank.stats()["classification"].hits
        engine.classify_formulas(CORPUS)
        assert bank.stats()["classification"].hits == before + 4
