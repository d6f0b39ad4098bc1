"""``classify``: the library's headline call over the committed corpus.

Each pass parses every corpus formula once, in a seeded shuffled order,
and hands it to ``repro.engine.cache.cached_classify_formula`` on one
thread.  The cache bank is cleared before every pass, so every formula is
a miss and all of the work sits in ``logic``/``core``/``omega``/
``fastpath``: no pool, socket or store.  The shuffle spreads the slow
Dwyer patterns across the run instead of leaving them in one stretch.

Every full pass is followed by a tail pass over the slowest few percent of
the first pass, again shuffled and with the cache cleared.  The slow tail
sets ``p99_ms``; timing it twice as often makes its fastest times steadier
for about a quarter more work per pass.
"""

from __future__ import annotations

import gc
import sys
import time

from common import (
    WARMUP_FORMULA,
    BestOf,
    check_answer,
    load_baseline,
    load_entries,
    peak_rss_mb,
    report_cells,
    rng_for,
)

#: Share of the corpus, slowest first in the first pass, that tail passes
#: time again: about 35 formulas, three times as many as lie beyond p99.
TAIL_SHARE = 0.03


class Classify:
    def __init__(self, seed: int, recorder=None) -> None:
        import repro.engine.cache as cache
        import repro.logic.parser as parser

        self.seed = seed
        self.cache = cache
        self.parser = parser
        self.entries = load_entries()
        self.baseline = load_baseline()
        self.classify(WARMUP_FORMULA)
        cache.CACHES.clear()
        gc.collect()
        gc.freeze()

    def close(self) -> None:
        pass

    def classify(self, text: str):
        # Looked up on the modules at call time, so the traced run's
        # wrappers see every call.
        return self.cache.cached_classify_formula(self.parser.parse_formula(text))

    def order(self, pass_index: int, texts: list[str] | None = None) -> list[str]:
        texts = [entry.text for entry in self.entries] if texts is None else list(texts)
        rng_for(self.seed, "classify", pass_index, len(texts)).shuffle(texts)
        return texts

    def one_pass(self, order: list[str], budget_s: float):
        """Classify ``order`` from a cleared cache, stopping once
        ``budget_s`` of timed wall is spent; returns (wall seconds,
        [(formula, seconds)], failure messages)."""
        self.cache.CACHES.clear()
        gc.collect()
        clock = time.perf_counter
        timings = []
        answers = []
        start = clock()
        for text in order:
            began = clock()
            report = self.classify(text)
            ended = clock()
            timings.append((text, ended - began))
            answers.append((text, report))
            if ended - start >= budget_s:
                break
        wall = clock() - start
        failures = [
            message
            for text, report in answers
            if (message := check_answer(text, report_cells(report), self.baseline))
        ]
        return wall, timings, failures

    def run(self, seconds: float) -> dict:
        best = BestOf()
        failures: list[str] = []
        wall = 0.0
        operations = 0
        passes = 0
        tail: list[str] = []
        slowest = 0.0
        modules = set(sys.modules)
        while wall < seconds:
            full = not tail or passes % 2 == 0
            order = self.order(passes, None if full else tail)
            pass_wall, timings, pass_failures = self.one_pass(order, seconds - wall)
            for text, latency in timings:
                best.add(text, latency)
                slowest = max(slowest, latency)
            if full and len(timings) == len(order):
                best.add_pass(pass_wall, len(timings))
            if not tail:
                ranked = sorted(timings, key=lambda timing: -timing[1])
                tail = [text for text, _ in ranked[: round(TAIL_SHARE * len(order))]]
            wall += pass_wall
            operations += len(timings)
            failures.extend(pass_failures)
            passes += 1
        return {
            "attempted": operations,
            "failed": len(failures),
            "failures": failures,
            "metrics": {**best.metrics(), "peak_rss_mb": peak_rss_mb()},
            "notes": {
                "passes": passes,
                "complete_full_passes": len(best.rates),
                "slowest_sample_ms": slowest * 1e3,
                # Lazy imports belong to set-up; this list should be empty.
                "imported_while_timed": sorted(set(sys.modules) - modules),
            },
        }

    def run_traced(self, seconds: float, recorder) -> dict:
        """Alternate untraced and traced full passes (same order in each
        pair) until ``seconds`` have passed; per-layer figures are per pass."""
        from tracing import (
            SpanSummary,
            dense_ratio_since,
            fastpath_counts,
            install_pipeline_layers,
            pipeline_layers,
        )

        install_pipeline_layers(recorder)
        plain_walls, traced_walls = [], []
        failures: list[str] = []
        attempted = 0
        routes = fastpath_counts()
        started = time.perf_counter()
        cycle_s = 0.0
        pass_index = 0
        # Start another cycle only if it should end inside ``seconds``.
        while not traced_walls or time.perf_counter() - started + cycle_s <= seconds:
            cycle_start = time.perf_counter()
            for walls in (plain_walls, traced_walls):
                recorder.enabled = walls is traced_walls
                wall, timings, bad = self.one_pass(self.order(pass_index), float("inf"))
                recorder.enabled = False
                walls.append(wall)
                attempted += len(timings)
                failures.extend(bad)
            pass_index += 1
            cycle_s = time.perf_counter() - cycle_start
        summary = SpanSummary(recorder.spans)
        passes = len(traced_walls)
        values = pipeline_layers(summary, passes)
        traced_total = sum(traced_walls)
        values.update(
            {
                # Untraced and traced passes make the same route decisions.
                "fastpath.dense_ratio": dense_ratio_since(routes),
                "obs.trace_overhead_ratio": traced_total / sum(plain_walls) - 1.0,
                "unattributed_ratio": summary.unattributed_ratio(traced_total),
            }
        )
        return {
            "per_layer": values,
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures,
            "notes": {"passes": passes},
        }

