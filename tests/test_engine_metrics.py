"""The metrics registry: counters, timers, histograms, and the hot-path stages
that feed it."""

import threading

from repro.engine.metrics import METRICS, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("c") is counter

    def test_counter_is_thread_safe(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000

    def test_timer_accumulates(self):
        registry = MetricsRegistry()
        timer = registry.timer("t")
        timer.observe(0.25)
        timer.observe(0.75)
        assert timer.count == 2
        assert timer.total == 1.0
        assert timer.mean == 0.5
        assert (timer.min, timer.max) == (0.25, 0.75)

    def test_histogram_buckets(self):
        histogram = Histogram("h", bounds=[10, 100])
        for value in (1, 5, 50, 5000):
            histogram.observe(value)
        data = histogram.as_dict()
        assert data["le_10"] == 2
        assert data["le_100"] == 1
        assert data["overflow"] == 1
        assert histogram.observations == 4


class TestTraces:
    def test_merge_snapshot_folds_worker_registry(self):
        worker = MetricsRegistry()
        worker.counter("jobs").inc(3)
        worker.timer("t").observe(0.25)
        worker.timer("t").observe(0.75)
        worker.histogram("sizes", bounds=[10, 100]).observe(5)
        worker.histogram("sizes", bounds=[10, 100]).observe(5000)

        parent = MetricsRegistry()
        parent.counter("jobs").inc(1)
        parent.timer("t").observe(0.5)
        parent.merge_snapshot(worker.snapshot())

        snap = parent.snapshot()
        assert snap["counters"]["jobs"] == 4
        assert snap["timers"]["t"]["count"] == 3
        assert snap["timers"]["t"]["total"] == 1.5
        assert snap["timers"]["t"]["min"] == 0.25
        assert snap["timers"]["t"]["max"] == 0.75
        assert snap["histograms"]["sizes"] == {
            "le_10": 1,
            "le_100": 0,
            "overflow": 1,
            "sum": 5005.0,
        }

    def test_snapshot_delta_isolates_one_job(self):
        from repro.engine.metrics import snapshot_delta

        registry = MetricsRegistry()
        registry.counter("work").inc(10)
        before = registry.snapshot()
        registry.counter("work").inc(2)
        registry.timer("t").observe(0.1)
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["counters"] == {"work": 2}
        assert delta["timers"]["t"]["count"] == 1

    def test_merge_snapshot_skips_mismatched_histogram_whole(self):
        """Bucket labels that do not line up merge nothing, not a prefix."""
        worker = MetricsRegistry()
        for value in (1, 2, 7):
            worker.histogram("sizes", bounds=[1, 2, 10]).observe(value)

        parent = MetricsRegistry()
        local = parent.histogram("sizes", bounds=[1, 2, 5])
        parent.merge_snapshot(worker.snapshot())

        assert parent.counter("merge.histogram_mismatch").value == 1
        assert local.observations == 0
        assert local.as_dict() == {"le_1": 0, "le_2": 0, "le_5": 0, "overflow": 0, "sum": 0.0}

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.timer("t").observe(0.1)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["timers"]["t"]["count"] == 1
        registry.reset()
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 0}
        assert snap["timers"]["t"]["count"] == 0
        assert snap["timers"]["t"]["total"] == 0.0

    def test_reset_keeps_instrument_references_live(self):
        """A hot path holding a Counter/Timer keeps reporting after reset()."""
        registry = MetricsRegistry()
        counter = registry.counter("held.counter")
        timer = registry.timer("held.timer")
        counter.inc(5)
        timer.observe(0.2)
        registry.reset()
        # The held references must still feed the same registry instruments.
        counter.inc(2)
        timer.observe(0.5)
        assert registry.counter("held.counter") is counter
        assert registry.timer("held.timer") is timer
        snap = registry.snapshot()
        assert snap["counters"]["held.counter"] == 2
        assert snap["timers"]["held.timer"] == {
            "count": 1,
            "total": 0.5,
            "mean": 0.5,
            "min": 0.5,
            "max": 0.5,
        }

    def test_snapshot_serializes_empty_timer_min_as_zero(self):
        registry = MetricsRegistry()
        registry.timer("t")  # created, never observed
        data = registry.snapshot()["timers"]["t"]
        assert data["min"] == 0.0 and data["max"] == 0.0 and data["count"] == 0

    def test_histogram_bisect_bucketing_matches_inclusive_bounds(self):
        histogram = Histogram("h", bounds=[1, 2, 5])
        for value in (0, 1, 1.5, 2, 2.1, 5, 6):
            histogram.observe(value)
        data = histogram.as_dict()
        assert data == {"le_1": 2, "le_2": 2, "le_5": 2, "overflow": 1, "sum": 17.6}

    def test_histogram_reset_in_place(self):
        histogram = Histogram("h", bounds=[10])
        histogram.observe(3)
        histogram.observe(30)
        histogram.reset()
        assert histogram.as_dict() == {"le_10": 0, "overflow": 0, "sum": 0.0}
        assert histogram.observations == 0

    def test_report_mentions_instruments(self):
        registry = MetricsRegistry()
        registry.timer("pipeline.stage").observe(0.01)
        registry.counter("widgets").inc()
        report = registry.report()
        assert "pipeline.stage" in report and "widgets" in report


class TestHotPathInstrumentation:
    """The Safra / GPVW / emptiness / classifier paths record real stages."""

    def test_pipeline_emits_traces(self):
        from repro.core import classify_formula
        from repro.logic import parse_formula
        from repro.obs.spans import TRACER
        from repro.words import Alphabet

        # "(G F X p -> G F q)" takes the general GPVW → Safra route: no
        # normal-form rewrite reaches the X under G F.
        with TRACER.tracing():
            classify_formula(
                parse_formula("(G F X p -> G F q)"),
                Alphabet.powerset_of_propositions(["p", "q"]),
            )
            spans = TRACER.finished()
        TRACER.clear()
        attributes = {}
        for recorded in spans:
            attributes.setdefault(recorded.name, set()).update(recorded.attributes)
        assert {"tableau_nodes", "nba_states", "past_atoms"} <= attributes["gpvw.translate"]
        assert {"nba_states", "dra_states", "pairs"} <= attributes["safra.determinize"]
        assert {"states", "canonical"} <= attributes["classifier.classify_formula"]

    def test_monitor_setup_times_emptiness(self):
        from repro.core.monitor import PrefixMonitor
        from repro.omega import r_of
        from repro.finitary import FinitaryLanguage
        from repro.words import Alphabet

        ab = Alphabet.from_letters("ab")
        before = METRICS.timer("emptiness.nonempty_states").count
        PrefixMonitor(r_of(FinitaryLanguage.from_regex(".*b", ab)))
        assert METRICS.timer("emptiness.nonempty_states").count >= before + 2
