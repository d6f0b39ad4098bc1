"""Span parenting and metrics merging across the engine's executors.

Process-pool workers ship span payloads and metrics deltas back for
re-stitching under the batch span, and the JSONL export of a parallel run
is deterministic despite unaligned per-process clocks.
"""

from __future__ import annotations

import pytest

from repro.engine.batch import ClassifyFormula, EvaluationEngine
from repro.obs.export import jsonl_lines, tree_order, validate_jsonl_lines
from repro.obs.spans import TRACER

JOBS = [ClassifyFormula("G p"), ClassifyFormula("F q"), ClassifyFormula("G F p")]


@pytest.fixture
def tracing():
    from repro.engine.cache import CACHES

    # A warm global cache would short-circuit job evaluation (forked workers
    # inherit it), hiding the leaf spans these tests assert on.
    CACHES.clear()
    TRACER.enable()
    yield TRACER
    TRACER.disable()
    TRACER.clear()


def _run(executor: str, tracing):
    with EvaluationEngine(executor=executor, max_workers=2) as engine:
        report = engine.run(list(JOBS))
    assert not report.failures
    assert report.executor == executor
    return engine, tracing.finished()


def _check_tree(spans):
    """Every job span hangs off the one batch span, in a single trace."""
    batches = [s for s in spans if s.name == "engine.batch"]
    assert len(batches) == 1
    jobs = [s for s in spans if s.name == "engine.job"]
    assert len(jobs) == len(JOBS)
    assert all(job.parent_id == batches[0].span_id for job in jobs)
    assert len({s.trace_id for s in spans}) == 1
    by_id = {s.span_id for s in spans}
    assert all(s.parent_id in by_id for s in spans if s.parent_id is not None)


def test_process_executor_restitches_worker_spans(tracing):
    _, spans = _run("process", tracing)
    _check_tree(spans)
    jobs = [s for s in spans if s.name == "engine.job"]
    assert {job.attributes["executor"] for job in jobs} == {"process"}
    # Worker span ids carry the worker's pid nonce — none collide with the
    # parent process's ids, and the classifier leaves came along too.
    assert len({s.span_id for s in spans}) == len(spans)
    assert any(s.name == "omega.classify.wagner" for s in spans)


def test_process_executor_merges_worker_metrics(tracing):
    from repro.engine.metrics import METRICS

    # The Streett emptiness counter and the Wagner-pass timer only ever move
    # inside job evaluation, which ran in the workers; the parent-side delta
    # proves the worker snapshots were folded into this registry.
    counter_before = METRICS.counter("emptiness.streett_calls").value
    timer_before = METRICS.timer("omega.classify.wagner").count
    _run("process", tracing)
    assert METRICS.counter("emptiness.streett_calls").value > counter_before
    assert METRICS.timer("omega.classify.wagner").count > timer_before


def test_parallel_jsonl_export_is_deterministic(tracing):
    _, spans = _run("process", tracing)
    lines = jsonl_lines(spans)
    assert validate_jsonl_lines(lines) == []
    # Re-exporting a shuffled copy yields byte-identical output.
    assert jsonl_lines(list(reversed(spans))) == lines
    ordered = tree_order(spans)
    seen: set[str] = set()
    for span in ordered:
        assert span.parent_id is None or span.parent_id in seen
        seen.add(span.span_id)


def test_process_export_validates_despite_unaligned_clocks(tracing):
    _, spans = _run("process", tracing)
    # Worker perf_counter clocks are not aligned with the parent's, so raw
    # timestamp sorting would interleave parents and children; tree order
    # must still put every parent before its children.
    lines = jsonl_lines(spans)
    assert validate_jsonl_lines(lines) == []


def test_serial_run_has_same_tree_shape(tracing):
    _, spans = _run("serial", tracing)
    _check_tree(spans)
