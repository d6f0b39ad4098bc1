"""Unit tests for the span tracer (repro.obs.spans)."""

from __future__ import annotations

import pytest

from repro.engine.metrics import METRICS, MetricsRegistry
from repro.obs.spans import (
    NOOP_SPAN,
    Span,
    SpanContext,
    SpanTracer,
    TRACER,
    annotate,
    current_span,
    span,
    stage,
)


@pytest.fixture
def tracer():
    t = SpanTracer()
    t.enable()
    yield t
    t.disable()


def test_disabled_tracer_yields_noop_span():
    t = SpanTracer()
    with t.span("anything", key="value") as s:
        assert s is NOOP_SPAN
        s.set_attribute("ignored", 1)  # must not raise
    assert len(t) == 0


def test_span_records_name_attributes_and_duration(tracer):
    with tracer.span("work", size=3) as s:
        s.set_attribute("extra", "yes")
    [finished] = tracer.finished()
    assert finished.name == "work"
    assert finished.attributes == {"size": 3, "extra": "yes"}
    assert finished.duration >= 0.0
    assert finished.status == "ok"
    assert finished.error is None


def test_nested_spans_parent_correctly(tracer):
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.span_id
            assert inner.trace_id == outer.trace_id
    outer_done, = [s for s in tracer.finished() if s.name == "outer"]
    assert outer_done.parent_id is None


def test_sibling_spans_share_parent_not_each_other(tracer):
    with tracer.span("parent") as parent:
        with tracer.span("first"):
            pass
        with tracer.span("second") as second:
            assert second.parent_id == parent.span_id
    names = {s.name: s for s in tracer.finished()}
    assert names["first"].parent_id == parent.span_id
    assert names["second"].parent_id == parent.span_id


def test_exception_marks_span_error_and_propagates(tracer):
    with pytest.raises(ValueError, match="boom"):
        with tracer.span("failing"):
            raise ValueError("boom")
    [finished] = tracer.finished()
    assert finished.status == "error"
    assert finished.error == "ValueError: boom"


def test_attributes_coerced_to_scalars(tracer):
    with tracer.span("typed", flag=True, count=2, ratio=0.5, text="x", none=None) as s:
        s.set_attribute("coerced", frozenset({"a"}))
    [finished] = tracer.finished()
    assert finished.attributes["flag"] is True
    assert finished.attributes["count"] == 2
    assert isinstance(finished.attributes["coerced"], str)


def test_payload_round_trip(tracer):
    with tracer.span("original", depth=4):
        pass
    [original] = tracer.finished()
    restored = Span.from_payload(original.as_payload())
    assert restored.name == original.name
    assert restored.span_id == original.span_id
    assert restored.parent_id == original.parent_id
    assert restored.attributes == original.attributes
    assert restored.duration == pytest.approx(original.duration)


def test_activate_parents_spans_under_foreign_context(tracer):
    context = SpanContext(trace_id="tX", span_id="remote-1")
    with tracer.activate(context):
        with tracer.span("child"):
            pass
    [child] = tracer.finished()
    assert child.parent_id == "remote-1"
    assert child.trace_id == "tX"


def test_activate_none_is_noop(tracer):
    with tracer.activate(None):
        with tracer.span("root"):
            pass
    [root] = tracer.finished()
    assert root.parent_id is None


def test_capture_returns_active_context(tracer):
    assert tracer.capture() is None
    with tracer.span("open") as s:
        context = tracer.capture()
        assert context == SpanContext(s.trace_id, s.span_id)


def test_adopt_restitches_worker_roots(tracer):
    worker = SpanTracer()
    worker.enable()
    with worker.span("worker-root"):
        with worker.span("worker-leaf"):
            pass
    payloads = worker.export_payloads()
    parent = SpanContext(trace_id="tMain", span_id="main-1")
    adopted = tracer.adopt(payloads, parent)
    by_name = {s.name: s for s in adopted}
    assert by_name["worker-root"].parent_id == "main-1"
    assert by_name["worker-leaf"].parent_id == by_name["worker-root"].span_id
    assert all(s.trace_id == "tMain" for s in adopted)
    assert len(tracer) == 2


def test_capacity_cap_counts_drops():
    t = SpanTracer(capacity=2)
    t.enable()
    for _ in range(4):
        with t.span("s"):
            pass
    assert len(t) == 2
    assert t.dropped == 2


def test_export_payloads_since_slices(tracer):
    with tracer.span("a"):
        pass
    mark = len(tracer)
    with tracer.span("b"):
        pass
    payloads = tracer.export_payloads(since=mark)
    assert [p["name"] for p in payloads] == ["b"]


def test_traced_decorator(tracer):
    @tracer.traced("decorated", tag="yes")
    def add(a, b):
        return a + b

    assert add(1, 2) == 3
    [finished] = tracer.finished()
    assert finished.name == "decorated"
    assert finished.attributes == {"tag": "yes"}


def test_tracing_context_manager_restores_state():
    t = SpanTracer()
    assert not t.enabled
    with t.tracing():
        assert t.enabled
        with t.span("inside"):
            pass
    assert not t.enabled
    assert len(t) == 1


def test_module_helpers_use_global_tracer():
    TRACER.enable()
    try:
        with span("global-span") as s:
            assert current_span() is s
            annotate("note", "here")
        [finished] = TRACER.finished()
        assert finished.attributes["note"] == "here"
    finally:
        TRACER.disable()
        TRACER.clear()


def test_annotate_is_silent_when_disabled():
    TRACER.disable()
    annotate("nothing", "happens")  # must not raise
    assert current_span() is NOOP_SPAN


class TestStage:
    """``stage()``: one clock pair feeding the timer and, when on, the span."""

    @pytest.fixture
    def traced(self):
        TRACER.enable()
        yield TRACER
        TRACER.disable()
        TRACER.clear()

    def test_untraced_stage_observes_timer_and_records_no_span(self):
        TRACER.disable()
        TRACER.clear()
        registry = MetricsRegistry()
        with stage("unit.stage", metrics=registry, size=3) as step:
            step.set_attribute("ignored", 1)  # a no-op, must not raise
        timer = registry.timer("unit.stage")
        assert timer.count == 1
        assert timer.total == step.seconds > 0.0
        assert len(TRACER) == 0

    def test_traced_stage_span_duration_equals_timer_total(self, traced):
        registry = MetricsRegistry()
        with span("outer") as outer:
            with stage("unit.stage", metrics=registry, size=3) as step:
                assert current_span() is step.span
                step.set_attribute("extra", "yes")
        [recorded] = [s for s in traced.finished() if s.name == "unit.stage"]
        assert recorded.parent_id == outer.span_id
        assert recorded.attributes == {"size": 3, "extra": "yes"}
        timer = registry.timer("unit.stage")
        assert timer.count == 1
        assert recorded.duration == timer.total == step.seconds

    def test_failing_stage_marks_span_and_still_times(self, traced):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="boom"):
            with stage("unit.stage", metrics=registry):
                raise ValueError("boom")
        [recorded] = traced.finished()
        assert recorded.status == "error"
        assert recorded.error == "ValueError: boom"
        assert registry.timer("unit.stage").count == 1
        assert registry.timer("unit.stage").total == recorded.duration

    def test_failing_untraced_stage_still_times(self):
        TRACER.disable()
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            with stage("unit.stage", metrics=registry):
                raise KeyError("missing")
        assert registry.timer("unit.stage").count == 1

    def test_default_registry_is_global_metrics(self):
        TRACER.disable()
        before = METRICS.timer("test.stage_default").count
        with stage("test.stage_default"):
            pass
        assert METRICS.timer("test.stage_default").count == before + 1
