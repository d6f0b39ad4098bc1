"""Edge cases in the evaluation engine: pool failures, cache races, CLI.

The engine promises to never let infrastructure failures change results:
a job the process pool cannot pickle fails alone with a typed ``error``
result while its batch-mates succeed, and cache invalidation racing an
in-flight batch only costs recomputation, never correctness.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.engine.batch import EvaluationEngine, Job
from repro.engine.cache import CacheBank
from repro.engine.metrics import MetricsRegistry


@dataclass(frozen=True)
class ProbeJob(Job):
    """A job computing through the bank's cache, with optional side effects."""

    key_value: str
    payload: int
    before_compute: Callable[[CacheBank], None] | None = field(
        default=None, compare=False
    )

    def key(self) -> Hashable:
        return ("probe", self.key_value)

    def evaluate(self, bank: CacheBank) -> Any:
        if self.before_compute is not None:
            self.before_compute(bank)
        cache = bank.cache("probe")
        return cache.get_or_compute(self.key_value, lambda: self.payload * 2)


@dataclass(frozen=True)
class LockJob(Job):
    """Picklable itself, but its value (a lock) cannot travel back."""

    n: int

    def key(self) -> Hashable:
        return ("lock", self.n)

    def evaluate(self, bank: CacheBank) -> Any:
        return threading.Lock()


class TestProcessPoolFallback:
    """There is no serial fallback: a job the pool cannot run fails alone."""

    def test_non_picklable_jobs_fail_alone_with_typed_errors(self):
        metrics = MetricsRegistry()
        engine = EvaluationEngine(
            executor="process", max_workers=2, bank=CacheBank(), metrics=metrics
        )

        @dataclass(frozen=True)
        class LocalJob(Job):
            """Defined inside the test function — unpicklable by construction."""

            n: int

            def key(self) -> Hashable:
                return ("local", self.n)

            def evaluate(self, bank: CacheBank) -> Any:
                return self.n + 1

        with engine:
            report = engine.run([LocalJob(1), ProbeJob("mate", 4), LocalJob(3)])
        assert report.executor == "process"
        assert [r.status for r in report.results] == ["error", "ok", "error"]
        assert report.results[1].value == 8
        assert all("pickle" in r.error for r in report.failures)
        assert metrics.counter("engine.job_errors").value == 2

    def test_unpicklable_result_fails_alone_and_the_worker_lives_on(self):
        from repro.engine.metrics import METRICS

        started = METRICS.counter("census.pool.workers_started")
        with EvaluationEngine(executor="process", max_workers=2, bank=CacheBank()) as engine:
            report = engine.run([LockJob(1), ProbeJob("mate", 5)])
            before = started.value
            after = engine.run([ProbeJob("next", 1), ProbeJob("last", 2)])
        assert [r.status for r in report.results] == ["error", "ok"]
        assert "pickle" in report.results[0].error
        assert [r.value for r in after.results] == [2, 4]
        assert started.value == before  # no worker died, none was replaced

    def test_single_job_short_circuits_to_serial_without_fallback(self):
        metrics = MetricsRegistry()
        engine = EvaluationEngine(
            executor="process", bank=CacheBank(), metrics=metrics
        )
        report = engine.run([ProbeJob("solo", 21)])
        assert report.executor == "serial"
        assert report.results[0].value == 42
        assert engine._pool is None


class TestCacheInvalidationMidBatch:
    def test_invalidation_during_batch_only_recomputes(self):
        """A job that clears the cache mid-batch never corrupts results."""
        bank = CacheBank()
        engine = EvaluationEngine(executor="serial", bank=bank, metrics=MetricsRegistry())

        def clobber(the_bank: CacheBank) -> None:
            the_bank.cache("probe").invalidate("warm")

        warmup = engine.run([ProbeJob("warm", 10)])
        assert warmup.results[0].value == 20
        assert "warm" in bank.cache("probe")

        report = engine.run(
            [
                ProbeJob("saboteur", 1, before_compute=clobber),
                ProbeJob("warm", 10),
            ]
        )
        assert [r.value for r in report.results] == [2, 20]
        assert all(r.ok for r in report.results)
        assert "warm" in bank.cache("probe")

    def test_full_bank_clear_between_batches_resets_stats(self):
        bank = CacheBank()
        engine = EvaluationEngine(executor="serial", bank=bank, metrics=MetricsRegistry())
        engine.run([ProbeJob("x", 1), ProbeJob("x", 1)])
        assert bank.total_hits() + bank.total_misses() > 0
        bank.clear()
        assert bank.total_hits() == 0 and bank.total_misses() == 0
        report = engine.run([ProbeJob("x", 5)])
        assert report.results[0].value == 10


class TestCliValidation:
    def _main(self, argv):
        from repro.__main__ import main

        return main(argv)

    def test_engine_repeat_must_be_positive(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("G a\n")
        assert self._main(["engine", str(spec), "--repeat", "0"]) == 2
        assert "--repeat" in capsys.readouterr().err

    def test_fuzz_budget_must_be_positive(self, capsys):
        assert self._main(["fuzz", "--budget", "0"]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_fuzz_rejects_unknown_oracle(self, capsys):
        assert self._main(["fuzz", "--budget", "1", "--oracle", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown oracle" in err and "formula-class" in err

    def test_fuzz_smoke_runs_green(self, capsys):
        assert self._main(["fuzz", "--seed", "7", "--budget", "8"]) == 0
        out = capsys.readouterr().out
        assert "disagreements: 0" in out

    def test_fuzz_single_oracle_selection(self, capsys):
        code = self._main(
            ["fuzz", "--seed", "7", "--budget", "4", "--oracle", "formula-class"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "formula-class=4" in out
