"""``census``: ``repro.census.run.run_census`` over the whole corpus through
the crash-isolated pool, with the shipped defaults (``jobs = min(cpu, 8)``,
the platform's default start method).

Each pass is one census of the corpus in a seeded shuffled order; latency
is each row's ``wall_ms``.  This workload reaches ``census.pool`` and
``_measure``'s re-derivation (its own GPVW/Safra/quotient calls), which
``classify`` bypasses.
"""

from __future__ import annotations

import gc
import resource
import time

from common import (
    WARMUP_FORMULA,
    BestOf,
    check_answer,
    load_baseline,
    load_entries,
    peak_rss_mb,
    rng_for,
)


class Census:
    def __init__(self, seed: int, recorder=None) -> None:
        import repro.census.run as census_run
        from repro.census.check import CHECKED_COLUMNS
        from repro.census.corpus import CorpusEntry
        from repro.logic.parser import parse_formula

        self.seed = seed
        self.census_run = census_run
        self.columns = CHECKED_COLUMNS
        self.entries = load_entries()
        self.baseline = load_baseline()
        # Warm up here, not in the pool: workers fork from this process and
        # inherit its imports, so no row pays for first use.  The one-row
        # census starts and stops a pool the same way every pass does.
        census_run._measure(WARMUP_FORMULA)
        warmup = CorpusEntry(WARMUP_FORMULA, parse_formula(WARMUP_FORMULA), "warm-up", 1)
        census_run.run_census([warmup])
        from repro.engine.cache import CACHES

        CACHES.clear()
        gc.collect()
        gc.freeze()

    def close(self) -> None:
        pass

    def order(self, pass_index: int) -> list:
        entries = list(self.entries)
        rng_for(self.seed, "census", pass_index).shuffle(entries)
        return entries

    def one_pass(self, pass_index: int, **options):
        """One census; returns (start time, wall seconds, report, failure
        messages)."""
        entries = self.order(pass_index)
        gc.collect()
        start = time.perf_counter()
        report = self.census_run.run_census(entries, **options)
        wall = time.perf_counter() - start
        columns = self.census_run.CENSUS_COLUMNS
        failures = []
        for row in report.rows:
            cells = dict(zip(columns, row.as_cells()))
            message = check_answer(row.formula, cells, self.baseline, self.columns)
            if message:
                failures.append(message + (f" ({row.error})" if row.error else ""))
        return start, wall, report, failures

    def run(self, seconds: float) -> dict:
        best = BestOf()
        failures: list[str] = []
        wall = 0.0
        rows = 0
        passes = 0
        while wall < seconds:
            _, pass_wall, report, pass_failures = self.one_pass(passes)
            best.add_pass(pass_wall, len(report.rows))
            for row in report.rows:
                best.add(row.formula, row.wall_ms / 1e3)
            wall += pass_wall
            rows += len(report.rows)
            failures.extend(pass_failures)
            passes += 1
        return {
            "attempted": rows,
            "failed": len(failures),
            "failures": failures,
            "metrics": {
                **best.metrics("median"),
                # The largest pool worker (every child of this process is one).
                "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
            },
            "notes": {"passes": passes},
        }

    def run_traced(self, seconds: float, recorder) -> dict:
        """Cycles of (serial census untraced, serial census traced, pool
        census) until ``seconds`` have passed.

        Layer self times come from the serial census, where every call runs
        in this process; the pool figures from the pool census: busy time
        from the rows' worker-measured ``wall_ms``, respawns from the pool's
        ``census.pool.respawns`` counter, and the first row from the first
        advance of the census heartbeat."""
        from repro.engine.metrics import METRICS
        from repro.obs.telemetry.heartbeat import Heartbeat
        from tracing import (
            SpanSummary,
            dense_ratio_since,
            fastpath_counts,
            install_pipeline_layers,
            pipeline_layers,
        )

        census_run = self.census_run
        install_pipeline_layers(recorder)
        recorder.patch_function(census_run, "run_census", "census.run")
        recorder.patch_function(census_run, "classify_task", "census.run")
        recorder.patch_function(census_run, "_measure", "census.measure")
        advances: list[float] = []
        advance = Heartbeat.advance

        def timed_advance(beat, *args, **kwargs):
            advances.append(time.perf_counter())
            return advance(beat, *args, **kwargs)

        plain_walls, traced_walls = [], []
        pool_stats = {"busy": 0.0, "capacity": 0.0, "first_row": 0.0, "respawns": 0}
        failures: list[str] = []
        attempted = 0
        routes = fastpath_counts()
        started = time.perf_counter()
        cycle_s = 0.0
        passes = 0
        # Start another cycle only if it should end inside ``seconds``.
        while not traced_walls or time.perf_counter() - started + cycle_s <= seconds:
            cycle_start = time.perf_counter()
            for walls in (plain_walls, traced_walls):
                recorder.enabled = walls is traced_walls
                _, wall, report, bad = self.one_pass(passes, serial=True)
                recorder.enabled = False
                walls.append(wall)
                attempted += len(report.rows)
                failures.extend(bad)
            respawns = METRICS.counter("census.pool.respawns").value
            advances.clear()
            Heartbeat.advance = timed_advance
            try:
                pass_start, wall, report, bad = self.one_pass(passes)
            finally:
                Heartbeat.advance = advance
            attempted += len(report.rows)
            failures.extend(bad)
            pool_stats["busy"] += sum(row.wall_ms for row in report.rows) / 1e3
            pool_stats["capacity"] += report.jobs * wall
            pool_stats["first_row"] += advances[0] - pass_start
            pool_stats["respawns"] += METRICS.counter("census.pool.respawns").value - respawns
            passes += 1
            cycle_s = time.perf_counter() - cycle_start

        summary = SpanSummary(recorder.spans)
        values = pipeline_layers(summary, passes)
        traced_total = sum(traced_walls)
        rederive = summary.inclusive_under(
            {"logic.translate", "omega.safra", "omega.reduce"}, "census.measure"
        )
        values.update(
            {
                "census.run.self_ms": (
                    summary.self_s["census.run"] + summary.self_s["census.measure"]
                )
                * 1e3
                / passes,
                "census.run.rederive_self_ms": rederive * 1e3 / passes,
                "census.pool.busy_ratio": pool_stats["busy"] / pool_stats["capacity"],
                "census.pool.first_row_s": pool_stats["first_row"] / passes,
                "census.pool.respawns": pool_stats["respawns"] / passes,
                # Pool workers count their own routes; the serial passes
                # here make the same decisions.
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
