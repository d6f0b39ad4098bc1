"""PERF — the evaluation engine: cold vs warm caches, dedup, executors.

Not a paper artifact: demonstrates that the ``repro.engine`` layer turns
repeat traffic into cache hits.  The headline assertion: re-running a
50-formula batch (with duplicates) against a warm cache is at least 5×
faster than the cold run, and serial and process-pool execution agree exactly.
"""

import time

import pytest

from repro.engine.batch import EvaluationEngine
from repro.engine.cache import CacheBank

pytestmark = pytest.mark.perf

# 10 distinct properties spread over the hierarchy, instantiated over two
# proposition pairs and repeated until the corpus holds 50 jobs.
_TEMPLATES = [
    "G {p}",
    "F {q}",
    "{p} U {q}",
    "G ({p} -> F {q})",
    "F G {p}",
    "G F {q}",
    "G {p} | F {q}",
    "G ({p} -> X !{p})",
    "(G F {p} -> G F {q})",
    "G ({p} -> O {q})",
]


def _corpus() -> list[str]:
    formulas = [
        template.format(p=p, q=q)
        for template in _TEMPLATES[:5]
        for p, q in (("p", "q"), ("r", "s"))
    ] + [template.format(p="p", q="q") for template in _TEMPLATES[5:]]
    corpus = (formulas * 4)[:50]
    assert len(corpus) == 50 and len(set(corpus)) < len(corpus)
    return corpus


def _run(engine: EvaluationEngine, corpus: list[str]):
    start = time.perf_counter()
    report = engine.classify_formulas(corpus)
    return time.perf_counter() - start, report


def test_warm_cache_batch_speedup():
    corpus = _corpus()
    bank = CacheBank()
    engine = EvaluationEngine(bank=bank)

    cold_seconds, cold = _run(engine, corpus)
    warm_seconds, warm = _run(engine, corpus)

    # Same answers, cold or warm.
    cold_classes = [result.unwrap().canonical_class for result in cold.results]
    warm_classes = [result.unwrap().canonical_class for result in warm.results]
    assert cold_classes == warm_classes

    # The duplicates deduplicate, the rerun hits the cache...
    assert cold.total_jobs == 50
    assert cold.deduplicated > 0
    stats = bank.stats()["classification"]
    assert stats.hits > 0
    assert stats.hits >= warm.unique_jobs

    # ...and the warm rerun is at least 5× faster end to end.
    speedup = cold_seconds / warm_seconds
    print(
        f"\n   cold {cold_seconds*1e3:7.1f}ms  warm {warm_seconds*1e3:7.1f}ms"
        f"  speedup {speedup:5.1f}x  cache {stats.hits} hits / {stats.misses} misses"
    )
    assert speedup >= 5.0, f"warm cache only {speedup:.1f}x faster"


def test_serial_and_process_executors_agree():
    corpus = _corpus()
    serial = EvaluationEngine(executor="serial", bank=CacheBank()).classify_formulas(corpus)
    with EvaluationEngine(executor="process", max_workers=2, bank=CacheBank()) as engine:
        pooled = engine.classify_formulas(corpus)
    assert pooled.executor == "process"
    assert all(result.ok for result in pooled.results)
    for left, right in zip(serial.results, pooled.results):
        assert left.value.canonical_class is right.value.canonical_class
        assert left.value.semantic.membership == right.value.semantic.membership


def test_cold_batch_throughput(benchmark):
    corpus = _corpus()

    def cold_run():
        return EvaluationEngine(bank=CacheBank()).classify_formulas(corpus)

    report = benchmark(cold_run)
    assert report.total_jobs == 50


def test_warm_batch_throughput(benchmark):
    corpus = _corpus()
    engine = EvaluationEngine(bank=CacheBank())
    engine.classify_formulas(corpus)  # prime every cache

    report = benchmark(engine.classify_formulas, corpus)
    assert report.total_jobs == 50
