"""The JSONL event-batch stream format behind ``python -m repro monitor``.

One line = one batch, applied atomically to the fleet.  Three shapes:

``{"all": SYM}``
    broadcast — every stream receives ``SYM``;
``{"row": "abab…"}`` or ``{"row": [SYM, …]}``
    aligned — stream ``i`` receives the ``i``-th symbol; a plain string
    works for single-character alphabets and is the vectorized fast path
    (one million streams = one million characters on one line);
``{"events": [[STREAM, SYM], …]}``
    sparse — only the named streams advance; one stream may appear several
    times (events apply in list order); ``[]`` is a valid empty batch;
``{"ids": [STREAM, …], "symbols": "ab…" | [SYM, …]}``
    sparse, columnar — the same events as two parallel columns.  The
    high-throughput form: with ``symbols`` as a string the whole batch
    encodes with one vectorized gather and no per-event JSON objects.

Symbols are encoded as JSON strings for letter alphabets and as sorted
lists of proposition names for powerset alphabets (``["p","q"]`` ↦ the
frozenset ``{p, q}``).  Blank lines and lines starting with ``#`` are
skipped.

Malformed lines raise :class:`repro.errors.MonitorError` carrying the line
number; unknown symbols and out-of-range stream ids surface as
``AlphabetError``/``ValueError`` *before* the batch mutates anything, so a
stream that dies mid-file leaves the fleet in the state of the last good
batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import MonitorError
from repro.fleet.fleet import FleetCounts, MonitorFleet
from repro.obs.spans import stage
from repro.words.alphabet import Symbol


def symbol_to_json(symbol: Symbol) -> Any:
    """The JSON encoding of one symbol (inverse of :func:`symbol_from_json`)."""
    if isinstance(symbol, frozenset):
        return sorted(symbol)
    return symbol


def symbol_from_json(data: Any) -> Symbol:
    """Decode one symbol: strings stay strings, lists become frozensets."""
    if isinstance(data, str):
        return data
    if isinstance(data, list):
        return frozenset(data)
    raise MonitorError(
        f"a symbol must be a string or a list of proposition names, got {data!r}"
    )


@dataclass(frozen=True, slots=True)
class Batch:
    """One parsed stream line: its kind and decoded payload."""

    kind: str  # "all" | "row" | "events" | "columns"
    payload: Any
    line_number: int = 0

    def event_count(self, num_streams: int) -> int:
        if self.kind == "events":
            return len(self.payload)
        if self.kind == "columns":
            return len(self.payload[0])
        return num_streams


def parse_batch(text: str, line_number: int = 0) -> Batch | None:
    """Parse one stream line; ``None`` for blank/comment lines."""
    stripped = text.strip()
    if not stripped or stripped.startswith("#"):
        return None
    try:
        obj = json.loads(stripped)
    except json.JSONDecodeError as error:
        raise MonitorError(f"line {line_number}: not valid JSON: {error}") from None
    if isinstance(obj, dict) and set(obj) == {"ids", "symbols"}:
        ids, symbols = obj["ids"], obj["symbols"]
        if not isinstance(ids, list) or not all(isinstance(i, int) for i in ids):
            raise MonitorError(f'line {line_number}: "ids" must be a list of ints')
        if isinstance(symbols, list):
            symbols = [symbol_from_json(s) for s in symbols]
        elif not isinstance(symbols, str):
            raise MonitorError(
                f'line {line_number}: "symbols" must be a string or a list'
            )
        if len(ids) != len(symbols):
            raise MonitorError(
                f"line {line_number}: {len(ids)} ids for {len(symbols)} symbols"
            )
        return Batch("columns", (ids, symbols), line_number)
    if not isinstance(obj, dict) or len(obj) != 1:
        raise MonitorError(
            f"line {line_number}: a batch is one object with exactly one of"
            f' "all", "row" or "events" (or the columnar "ids" + "symbols" pair)'
        )
    key, value = next(iter(obj.items()))
    if key == "all":
        return Batch("all", symbol_from_json(value), line_number)
    if key == "row":
        if isinstance(value, str):
            return Batch("row", value, line_number)
        if isinstance(value, list):
            return Batch("row", [symbol_from_json(s) for s in value], line_number)
        raise MonitorError(
            f'line {line_number}: "row" must be a string or a list of symbols'
        )
    if key == "events":
        if not isinstance(value, list):
            raise MonitorError(f'line {line_number}: "events" must be a list')
        events = []
        for entry in value:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not isinstance(entry[0], int)
            ):
                raise MonitorError(
                    f"line {line_number}: each event must be [stream, symbol],"
                    f" got {entry!r}"
                )
            events.append((entry[0], symbol_from_json(entry[1])))
        return Batch("events", events, line_number)
    raise MonitorError(
        f'line {line_number}: unknown batch key {key!r} (want "all", "row" or "events")'
    )


def apply_batch(fleet: MonitorFleet, batch: Batch) -> int:
    """Apply one parsed batch; returns the number of events consumed."""
    if batch.kind == "all":
        fleet.step_broadcast(batch.payload)
    elif batch.kind == "row":
        fleet.step_aligned(batch.payload)
    elif batch.kind == "columns":
        fleet.step_events_columns(*batch.payload)
    else:
        fleet.step_events(batch.payload)
    return batch.event_count(fleet.num_streams)


@dataclass
class StreamReport:
    """What one stream run did, for the CLI summary and the tests."""

    streams: int
    backend: str
    batches: int = 0
    events: int = 0
    wall_seconds: float = 0.0
    counts: FleetCounts = field(
        default_factory=lambda: FleetCounts(violated=0, satisfied=0, pending=0)
    )

    @property
    def events_per_second(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds else 0.0

    def render(self) -> str:
        lines = [
            f"streams:  {self.streams} ({self.backend} backend)",
            f"batches:  {self.batches}",
            f"events:   {self.events} ({self.events_per_second:,.0f} events/s)",
            f"verdicts: {self.counts.line()}",
        ]
        return "\n".join(lines)


def run_stream(
    fleet: MonitorFleet,
    lines: Iterable[str],
    *,
    on_batch=None,
) -> StreamReport:
    """Drive a fleet over an iterable of JSONL lines (a file handle works).

    ``on_batch`` — optional callback ``(batch_index, fleet)`` invoked after
    every applied batch (the CLI's ``--per-batch`` output).
    """
    from repro.obs.telemetry.heartbeat import heartbeat

    report = StreamReport(streams=fleet.num_streams, backend=fleet.backend)
    with stage(
        "fleet.stream", streams=fleet.num_streams, backend=fleet.backend
    ) as stream, heartbeat("fleet.stream") as beat:
        # Events, not batches: events/s is the fleet's real throughput, and
        # a telemetry sidecar polling /progress sees it live.
        beat.note("streams", fleet.num_streams)
        beat.note("backend", fleet.backend)
        for line_number, text in enumerate(lines, start=1):
            batch = parse_batch(text, line_number)
            if batch is None:
                continue
            consumed = apply_batch(fleet, batch)
            report.events += consumed
            report.batches += 1
            beat.advance(consumed)
            if on_batch is not None:
                on_batch(report.batches, fleet)
        stream.set_attribute("batches", report.batches)
        stream.set_attribute("events", report.events)
    report.wall_seconds = stream.seconds
    report.counts = fleet.counts()
    return report
