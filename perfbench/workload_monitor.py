"""``monitor``: corpus properties compiled into monitor fleets, fed
pre-generated JSONL event batches through ``repro.fleet.stream``.

Set-up samples properties from the corpus, compiles one
``repro.fleet.MonitorFleet`` per property and generates every batch line.
The timed loop parses each line with ``parse_batch`` and applies it with
``apply_batch``.  Two batch shapes use the step layer differently: aligned
rows (one symbol per stream, a dense gather) and sparse columnar batches
(events on random streams, repeats split into occurrence rounds).  One
operation is one event; latency is per batch.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

from common import (
    WARMUP_FORMULA,
    BestOf,
    latency_metrics,
    load_entries,
    peak_rss_mb,
    rng_for,
)

#: Properties drawn per alphabet size (the corpus has 2, 4, 8 and 16
#: letters), so every seed monitors the same mix of alphabet sizes.
PROPERTIES_PER_ALPHABET = 5
#: The traffic shape of the package's fleet benchmark (``repro bench
#: --fleet``) and of docs/MONITORING.md: 10 000 streams per fleet, aligned
#: rows and sparse batches of ``streams // 2`` events, one to one.  Five of
#: each per property give 200 lines, a round of about 1.2 s: a run applies
#: each line about 20 times, and p99 has about forty applications beyond it.
STREAMS = 10_000
ALIGNED_LINES = 5
SPARSE_LINES = 5
SPARSE_EVENTS = STREAMS // 2
#: Streams per fleet whose verdicts are replayed through scalar monitors.
CHECKED_STREAMS = 16


def symbol_json(symbol) -> str:
    from repro.fleet.stream import symbol_to_json

    return json.dumps(symbol_to_json(symbol))


class Monitor:
    def __init__(self, seed: int, recorder=None) -> None:
        import repro.fleet.fleet as fleet_module
        import repro.fleet.stream as stream
        from repro.core.classifier import default_alphabet
        from repro.logic.parser import parse_formula

        self.seed = seed
        self.stream = stream
        self.fleet_module = fleet_module
        warmup = fleet_module.MonitorFleet.for_formula(parse_formula(WARMUP_FORMULA), STREAMS)
        first = symbol_json(next(iter(warmup.compiled.alphabet)))
        for text in (
            '{"row": [' + ",".join([first] * STREAMS) + "]}",
            '{"ids": [0, 0, 1], "symbols": [[], ["a"], ["b"]]}',
        ):
            stream.apply_batch(warmup, stream.parse_batch(text))
        if recorder is not None:
            self._install_layers(recorder)
            recorder.enabled = True
        rng = rng_for(seed, "monitor")
        by_alphabet: dict[int, list] = {}
        for entry in load_entries():
            by_alphabet.setdefault(len(default_alphabet(entry.formula)), []).append(entry)
        entries = [
            entry
            for size in sorted(by_alphabet)
            for entry in rng.sample(by_alphabet[size], PROPERTIES_PER_ALPHABET)
        ]
        self.formulas = [entry.text for entry in entries]
        self.fleets = [
            fleet_module.MonitorFleet.for_formula(entry.formula, STREAMS) for entry in entries
        ]
        if recorder is not None:
            recorder.enabled = False
            self.compile_spans = len(recorder.spans)
        self.rng = rng
        self.lines: list[tuple[int, str, list]] = []
        self.checked: list[list[int]] = []
        gc.collect()
        gc.freeze()

    def close(self) -> None:
        pass

    def generate(self) -> None:
        """Write every batch line (after READY: input generation is the
        benchmark's work, not the program's set-up), and keep the events
        each line carries for the checked streams."""
        rng = self.rng
        streams = range(STREAMS)
        for index, fleet in enumerate(self.fleets):
            letters = list(fleet.compiled.alphabet)
            texts = [symbol_json(letter) for letter in letters]
            picks = range(len(letters))
            checked = sorted(rng.sample(streams, CHECKED_STREAMS))
            self.checked.append(checked)
            slots = {stream: slot for slot, stream in enumerate(checked)}
            for _ in range(ALIGNED_LINES):
                row = rng.choices(picks, k=STREAMS)
                text = '{"row": [' + ",".join([texts[i] for i in row]) + "]}"
                events = [(slot, letters[row[stream]]) for stream, slot in slots.items()]
                self.lines.append((index, text, events))
            for _ in range(SPARSE_LINES):
                ids = rng.choices(streams, k=SPARSE_EVENTS)
                column = rng.choices(picks, k=SPARSE_EVENTS)
                text = (
                    '{"ids": [' + ",".join(map(str, ids)) + '], "symbols": ['
                    + ",".join([texts[i] for i in column]) + "]}"
                )
                events = [
                    (slots[stream], letters[i])
                    for stream, i in zip(ids, column)
                    if stream in slots
                ]
                self.lines.append((index, text, events))

    def order(self, round_index: int) -> list[int]:
        order = list(range(len(self.lines)))
        rng_for(self.seed, "monitor", round_index).shuffle(order)
        return order

    def drive(self, seconds: float, rounds: BestOf, latencies: list[float], applied: list[int]):
        """Apply every batch line once per round, in a seeded order per
        round, until ``seconds`` pass.  Each application's time goes to
        ``latencies`` and each complete round's rate to ``rounds``; returns
        (wall, events)."""
        parse_batch = self.stream.parse_batch
        apply_batch = self.stream.apply_batch
        clock = time.perf_counter
        events = 0
        round_index = 0
        start = clock()
        while clock() - start < seconds:
            round_start = clock()
            round_events = 0
            order = self.order(round_index)
            for line_index in order:
                fleet_index, text, _ = self.lines[line_index]
                began = clock()
                done = apply_batch(self.fleets[fleet_index], parse_batch(text))
                ended = clock()
                round_events += done
                latencies.append(ended - began)
                applied.append(line_index)
                if ended - start >= seconds:
                    break
            else:
                rounds.add_pass(clock() - round_start, round_events)
            events += round_events
            round_index += 1
        return clock() - start, events

    def check(self, applied: list[int]) -> list[str]:
        """Replay every applied batch line's events for the checked streams
        of its fleet through scalar monitors, and compare verdicts and
        positions with the fleet's."""
        monitors = [
            self.fleet_module.scalar_monitors(fleet.compiled, CHECKED_STREAMS)
            for fleet in self.fleets
        ]
        for line_index in applied:
            fleet_index, _, events = self.lines[line_index]
            scalars = monitors[fleet_index]
            for slot, symbol in events:
                scalars[slot].step(symbol)
        failures = []
        for fleet_index, fleet in enumerate(self.fleets):
            verdicts = fleet.verdicts()
            positions = fleet.positions()
            for slot, stream in enumerate(self.checked[fleet_index]):
                scalar = monitors[fleet_index][slot]
                if (verdicts[stream], positions[stream]) != (scalar.verdict, scalar.position):
                    failures.append(
                        f"{self.formulas[fleet_index]}: stream {stream} fleet says"
                        f" {verdicts[stream].name}@{positions[stream]}, scalar monitor"
                        f" {scalar.verdict.name}@{scalar.position}"
                    )
        return failures

    def run(self, seconds: float) -> dict:
        self.generate()
        rounds = BestOf()
        latencies: list[float] = []
        applied: list[int] = []
        _, events = self.drive(seconds, rounds, latencies, applied)
        rss = peak_rss_mb()
        failures = self.check(applied)
        return {
            "attempted": events,
            "failed": len(failures),
            "failures": failures,
            "metrics": {
                **latency_metrics(latencies, rounds.rate()),
                "peak_rss_mb": rss,
            },
            "notes": {
                "batches": len(applied),
                "lines": len(self.lines),
                "complete_rounds": len(rounds.rates),
            },
        }

    def _install_layers(self, recorder) -> None:
        from repro.fleet.compile import CompiledMonitor
        from tracing import install_pipeline_layers

        install_pipeline_layers(recorder)
        recorder.patch_method(CompiledMonitor, "for_formula", "fleet.compile")
        recorder.patch_function(
            self.stream, "parse_batch", "fleet.stream.parse", lambda batch: batch.kind
        )
        recorder.patch_function(self.stream, "apply_batch", "fleet.stream.apply")
        fleet_class = self.fleet_module.MonitorFleet
        recorder.patch_method(fleet_class, "step_aligned", "fleet.fleet.step_aligned")
        recorder.patch_method(fleet_class, "step_events_columns", "fleet.fleet.step_columns")

    def run_traced(self, seconds: float, recorder) -> dict:
        """Fleet compilation was traced during set-up; then an untraced and
        a traced half of the timed loop.  Parse and step figures are means
        per batch of each shape."""
        from tracing import SpanSummary

        compile_summary = SpanSummary(recorder.spans[: self.compile_spans])
        recorder.clear()
        self.generate()
        applied: list[int] = []
        plain_wall, plain_events = self.drive(seconds / 2, BestOf(), [], applied)
        recorder.enabled = True
        wall, events = self.drive(seconds / 2, BestOf(), [], applied)
        recorder.enabled = False
        failures = self.check(applied)
        summary = SpanSummary(recorder.spans)
        parse_s = {"row": [], "columns": []}
        for name, start, end, _, kind in summary.spans:
            if name == "fleet.stream.parse":
                parse_s[kind].append(end - start)

        def mean_ms(name: str) -> float:
            return summary.self_s[name] * 1e3 / summary.calls[name]

        values = {
            "fleet.compile.self_ms": compile_summary.self_s["fleet.compile"] * 1e3,
            "fleet.stream.parse_aligned_self_ms": statistics.fmean(parse_s["row"]) * 1e3,
            "fleet.stream.parse_columns_self_ms": statistics.fmean(parse_s["columns"]) * 1e3,
            "fleet.fleet.step_aligned_self_ms": mean_ms("fleet.fleet.step_aligned"),
            "fleet.fleet.step_columns_self_ms": mean_ms("fleet.fleet.step_columns"),
            "fleet.stream.apply_self_ms": mean_ms("fleet.stream.apply"),
            "obs.trace_overhead_ratio": (plain_events / plain_wall) / (events / wall) - 1.0,
            "unattributed_ratio": summary.unattributed_ratio(wall),
        }
        return {
            "per_layer": values,
            "attempted": plain_events + events,
            "failed": len(failures),
            "failures": failures,
            "notes": {"batches": summary.calls["fleet.stream.apply"]},
        }
