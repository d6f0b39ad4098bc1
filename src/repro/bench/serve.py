"""End-to-end service benchmark: requests/sec and latency percentiles.

Unlike :mod:`repro.bench.fastpath` (kernel vs reference — a ratio, immune
to machine speed) this measures the whole serving path: socket framing,
admission, the batching window, engine dispatch and the persistent store.
Per workload the harness starts a fresh server on an ephemeral port with a
temporary store file, runs one untimed warm pass (fills the store and the
bank — the steady state a long-lived server actually operates in), then
times ``repeat`` measured passes and keeps the best.

Two workloads:

* ``classify_warm`` — pipelined ``classify`` over a mixed formula corpus,
  answered from the persistent store (the restart-heavy steady state);
* ``mixed_warm``  — alternating ``classify``/``explain`` over the same
  corpus, the CI smoke's traffic shape.

The committed baseline is ``BENCH_serve.json``; the CI ``serve-smoke`` job
re-runs a quick variant and gates with :func:`regressions_against`.  The
gate factor is 4× (looser than fastpath's 2×) because these are absolute
wall-clock figures on shared runners, not machine-free ratios.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.serve.client import ServeClient
from repro.serve.server import ServerConfig, start_in_thread

SCHEMA = "repro-bench-serve/1"

#: Regression gate: a workload fails if its requests/sec fall below
#: baseline/FACTOR (absolute timings need a wide berth on shared runners).
GATE_FACTOR = 4.0

#: The telemetry plane (tracing + sidecar + recorder) may slow the serving
#: path by at most this fraction versus the identical telemetry-off server.
TELEMETRY_OVERHEAD_LIMIT = 0.10

#: The benchmark corpus: one representative per hierarchy class plus
#: pattern-style properties with shared subterms (cache-friendly traffic).
FORMULAS = (
    "G p",
    "F p",
    "(G p) | (F q)",
    "G F p",
    "F G p",
    "(G F p) | (F G q)",
    "G (p -> F q)",
    "G (p -> X q)",
    "p U q",
    "G (p -> (q S r))",
)


@dataclass(frozen=True)
class ServeResult:
    """One workload's measured serving performance."""

    workload: str
    description: str
    requests: int
    seconds: float
    p50_ms: float
    p99_ms: float
    store_hit_rate: float

    @property
    def rps(self) -> float:
        return self.requests / self.seconds if self.seconds else 0.0

    def as_json(self) -> dict:
        return {
            "description": self.description,
            "requests": self.requests,
            "seconds": round(self.seconds, 4),
            "rps": round(self.rps, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "store_hit_rate": round(self.store_hit_rate, 4),
        }


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def _requests_for(workload: str, passes: int) -> list[tuple[str, dict]]:
    requests: list[tuple[str, dict]] = []
    for index, formula in enumerate(FORMULAS * passes):
        if workload == "mixed_warm" and index % 2 == 1:
            requests.append(("explain", {"formula": formula}))
        else:
            requests.append(("classify", {"formula": formula}))
    return requests


def _run_workload(
    workload: str, description: str, *, passes: int, repeat: int
) -> ServeResult:
    fd, store_path = tempfile.mkstemp(prefix="repro-bench-serve-", suffix=".db")
    os.close(fd)
    os.unlink(store_path)
    handle = start_in_thread(
        ServerConfig(port=0, store_path=store_path, window_ms=2.0)
    )
    try:
        requests = _requests_for(workload, passes)
        best_seconds = float("inf")
        best_latencies: list[float] = []
        with ServeClient.connect(port=handle.port) as client:
            # Warm pass: fill the store and the bank, untimed.
            for verb, params in requests:
                client.request(verb, **params)
            for _ in range(repeat):
                # Latency pass: one request at a time, per-request timing
                # (each pays the batching window alone — the worst case).
                latencies: list[float] = []
                for verb, params in requests:
                    t0 = time.perf_counter()
                    client.request(verb, **params)
                    latencies.append((time.perf_counter() - t0) * 1e3)
                # Throughput pass: the whole workload pipelined on one
                # connection, so batching windows amortize across requests.
                start = time.perf_counter()
                ids = [client.send(verb, **params) for verb, params in requests]
                for request_id in ids:
                    client.unwrap(client.recv_for(request_id))
                elapsed = time.perf_counter() - start
                if elapsed < best_seconds:
                    best_seconds = elapsed
                    best_latencies = latencies
            stats = client.stats()
        store = stats.get("store") or {}
        hits, misses = store.get("hits", 0), store.get("misses", 0)
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
        best_latencies.sort()
        return ServeResult(
            workload=workload,
            description=description,
            requests=len(requests),
            seconds=best_seconds,
            p50_ms=_percentile(best_latencies, 0.50),
            p99_ms=_percentile(best_latencies, 0.99),
            store_hit_rate=hit_rate,
        )
    finally:
        handle.stop()
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(store_path + suffix)
            except OSError:
                pass


def run_serve_benchmarks(*, quick: bool = False, repeat: int = 3) -> list[ServeResult]:
    """Benchmark every serve workload against a fresh in-process server."""
    passes = 2 if quick else 5
    return [
        _run_workload(
            "classify_warm",
            f"pipelined classify × {len(FORMULAS) * passes} over a warm store",
            passes=passes,
            repeat=repeat,
        ),
        _run_workload(
            "mixed_warm",
            f"alternating classify/explain × {len(FORMULAS) * passes} over a warm store",
            passes=passes,
            repeat=repeat,
        ),
    ]


@dataclass(frozen=True)
class TelemetryOverheadResult:
    """The telemetry A/B: the same warm workload, telemetry off vs on.

    ``off``/``on`` compare the *standing* cost of running the service with
    the full telemetry plane (per-request span trees, flight recorder,
    sidecar) against the identical telemetry-off server, as seen by a
    standard untraced client — this is what the 10% gate holds.
    ``traced_seconds`` additionally measures a client that opts into wire
    trace propagation per request (client span, ``trace`` field, server
    echo, adoption) — a per-request diagnostic whose cost is reported for
    transparency but not gated.  ``noise`` is an A/A control: the spread
    between two interleaved telemetry-off series, i.e. what the machine
    does to identical code.
    """

    workload: str
    description: str
    requests: int
    off_seconds: float
    on_seconds: float
    traced_seconds: float
    noise: float

    @property
    def off_rps(self) -> float:
        return self.requests / self.off_seconds if self.off_seconds else 0.0

    @property
    def on_rps(self) -> float:
        return self.requests / self.on_seconds if self.on_seconds else 0.0

    @property
    def traced_rps(self) -> float:
        return self.requests / self.traced_seconds if self.traced_seconds else 0.0

    @property
    def overhead(self) -> float:
        """Fractional slowdown from the telemetry plane (0.03 = 3% slower)."""
        if not self.off_seconds:
            return 0.0
        return self.on_seconds / self.off_seconds - 1.0

    @property
    def traced_overhead(self) -> float:
        """Slowdown of the full traced round trip (informational)."""
        if not self.off_seconds:
            return 0.0
        return self.traced_seconds / self.off_seconds - 1.0

    def as_json(self) -> dict:
        return {
            "description": self.description,
            "requests": self.requests,
            "off_rps": round(self.off_rps, 1),
            "on_rps": round(self.on_rps, 1),
            "overhead": round(self.overhead, 4),
            "noise": round(self.noise, 4),
            "traced_rps": round(self.traced_rps, 1),
            "traced_overhead": round(self.traced_overhead, 4),
        }


def run_telemetry_overhead(
    *, quick: bool = False, repeat: int = 3
) -> TelemetryOverheadResult:
    """Time the warm pipelined workload against two otherwise-identical
    servers: telemetry off, and telemetry fully on (tracing + sidecar +
    recorder).

    Four interleaved series per repeat, best-of-``repeat`` each:

    * ``off_a`` / ``off_b`` — untraced client, telemetry-off server (the
      pair's spread is the A/A noise figure);
    * ``on`` — untraced client, telemetry-on server (the gated number:
      the standing cost every request pays);
    * ``traced`` — traced client against the telemetry-on server (wire
      propagation, span echo, adoption — informational).

    The process tracer is a process-wide switch shared by the in-process
    client, so it is toggled per pass; the untraced passes construct the
    client with ``trace=False`` so client-side span costs cannot leak into
    the off side.

    Garbage collection is handled as in :mod:`repro.bench.obs`:
    ``gc.collect()`` before every timed pass, plus ``gc.freeze()`` around
    the whole measurement so whatever heap the process accrued *before*
    this benchmark (``bench --obs --serve`` runs it after six kernel
    benchmarks) is exempt from collection — otherwise the traced side's
    span allocations trigger full collections that scan megabytes of
    unrelated kernel garbage, and that scan time gets billed as telemetry
    overhead.
    """
    import gc

    from repro.obs.spans import TRACER

    passes = 2 if quick else 5
    requests = _requests_for("classify_warm", passes)
    previously_enabled = TRACER.enabled
    stores: list[str] = []
    handles = []
    best = {"off_a": float("inf"), "off_b": float("inf"),
            "on": float("inf"), "traced": float("inf")}

    def measure_pass(client: ServeClient) -> float:
        gc.collect()
        start = time.perf_counter()
        ids = [client.send(verb, **params) for verb, params in requests]
        for request_id in ids:
            client.unwrap(client.recv_for(request_id))
        return time.perf_counter() - start

    try:
        for telemetry in (False, True):
            fd, store_path = tempfile.mkstemp(
                prefix="repro-bench-telemetry-", suffix=".db"
            )
            os.close(fd)
            os.unlink(store_path)
            stores.append(store_path)
            config = ServerConfig(
                port=0,
                store_path=store_path,
                window_ms=2.0,
                telemetry_port=0 if telemetry else None,
                trace=telemetry,
            )
            handles.append(start_in_thread(config))
        with ServeClient.connect(port=handles[0].port, trace=False) as off_client, \
                ServeClient.connect(port=handles[1].port, trace=False) as on_client, \
                ServeClient.connect(port=handles[1].port) as traced_client:
            TRACER.disable()
            for client in (off_client, on_client):  # warm: fill store + bank
                for verb, params in requests:
                    client.request(verb, **params)
            gc.collect()
            gc.freeze()
            for _ in range(repeat):
                TRACER.disable()
                best["off_a"] = min(best["off_a"], measure_pass(off_client))
                TRACER.enable()
                TRACER.clear()
                best["on"] = min(best["on"], measure_pass(on_client))
                TRACER.disable()
                best["off_b"] = min(best["off_b"], measure_pass(off_client))
                TRACER.enable()
                TRACER.clear()
                best["traced"] = min(best["traced"], measure_pass(traced_client))
                TRACER.clear()
    finally:
        gc.unfreeze()
        if previously_enabled:
            TRACER.enable()
        else:
            TRACER.disable()
        TRACER.clear()
        for handle in handles:
            handle.stop()
        for store_path in stores:
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.unlink(store_path + suffix)
                except OSError:
                    pass
    off = min(best["off_a"], best["off_b"])
    noise = abs(best["off_a"] - best["off_b"]) / off if off else 0.0
    return TelemetryOverheadResult(
        workload="classify_warm_telemetry",
        description=(
            f"pipelined classify × {len(requests)} over a warm store:"
            " telemetry off vs tracing + sidecar + recorder on"
            " (traced = client wire propagation too)"
        ),
        requests=len(requests),
        off_seconds=off,
        on_seconds=best["on"],
        traced_seconds=best["traced"],
        noise=noise,
    )


def telemetry_failures(
    result: TelemetryOverheadResult, *, limit: float = TELEMETRY_OVERHEAD_LIMIT
) -> list[str]:
    """The telemetry acceptance gate: overhead must stay under ``limit``.

    Mirrors :func:`repro.bench.obs.overhead_failures`: the budget is
    compared against the slowdown beyond the run's own A/A noise, since
    clock wander on a shared runner moves the two off series just as far
    apart as it moves off against on.
    """
    if result.overhead > limit + result.noise:
        return [
            f"{result.workload}: telemetry overhead {result.overhead:.1%}"
            f" exceeds the {limit:.0%} budget plus the run's"
            f" {result.noise:.1%} A/A noise"
            f" ({result.off_rps:.0f} req/s → {result.on_rps:.0f} req/s)"
        ]
    return []


def regressions_against(
    results: Sequence[ServeResult], baseline: Mapping, *, factor: float = GATE_FACTOR
) -> list[str]:
    """Workloads whose throughput fell below ``baseline/factor`` — the CI gate."""
    failures = []
    workloads = baseline.get("workloads", {})
    for result in results:
        entry = workloads.get(result.workload)
        if entry is None:
            continue
        floor = entry.get("rps", 0.0) / factor
        if result.rps < floor:
            failures.append(
                f"{result.workload}: {result.rps:.0f} req/s fell below"
                f" {floor:.0f} req/s (baseline {entry['rps']:.0f} / {factor:g})"
            )
    return failures


def report_json(results: Sequence[ServeResult], *, quick: bool, repeat: int) -> str:
    payload = {
        "schema": SCHEMA,
        "command": f"python -m repro bench --serve{' --quick' if quick else ''}"
        f" --repeat {repeat}",
        "quick": quick,
        "repeat": repeat,
        "gate_factor": GATE_FACTOR,
        "workloads": {result.workload: result.as_json() for result in results},
    }
    return json.dumps(payload, indent=2) + "\n"


def render_table(results: Sequence[ServeResult]) -> str:
    lines = [
        f"{'workload':16s} {'requests':>8s} {'req/s':>9s} {'p50':>9s}"
        f" {'p99':>9s} {'store hits':>10s}"
    ]
    for result in results:
        lines.append(
            f"{result.workload:16s} {result.requests:>8d} {result.rps:>9.0f}"
            f" {result.p50_ms:>7.2f}ms {result.p99_ms:>7.2f}ms"
            f" {result.store_hit_rate:>9.1%}"
        )
    return "\n".join(lines)
