"""Tracing overhead benchmark: the same kernels, spans off vs spans on.

The observability layer promises that instrumentation is effectively free:
spans wrap *operations* (one determinization, one emptiness check), never
per-state work, and the disabled path costs a single flag check.  This
module proves the promise with numbers, reusing the fastpath benchmark
workloads (:data:`repro.bench.fastpath.WORKLOADS`) so the measured code is
exactly the code users run.

Methodology mirrors :mod:`repro.bench.fastpath`, with one addition — a
built-in null test:

* every iteration times three interleaved regions — untraced, traced,
  untraced again — with ``gc.collect()`` before each, so one
  configuration's garbage is never billed to the other;
* per-configuration time is the minimum over ``--repeat`` iterations;
  the spread between the two *untraced* minima is an A/A measurement of
  the machine's own noise (identical code on both sides), reported as
  ``noise`` next to each overhead figure;
* both configurations pin the dense route (``forced("on")``) — route
  selection noise must not masquerade as tracing overhead;
* the tracer is cleared between traced runs so span accumulation cannot
  grow the buffer across repeats.

The gate (:func:`overhead_failures`) fails a kernel only when its traced
slowdown exceeds the budget *plus* the run's own null-test spread: a real
span cost shows up on the traced side only, while frequency wander on a
shared runner moves both untraced regions just as far apart.

The JSON report (``BENCH_obs.json`` at the repo root) is the committed
baseline; the CI ``obs-smoke`` job re-runs a quick variant and gates on
:func:`overhead_failures`.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.bench.fastpath import WORKLOADS
from repro.fastpath.config import forced
from repro.obs.spans import TRACER

SCHEMA = "repro-bench-obs/1"

#: The acceptance gate: tracing may cost at most this fraction on top of
#: the untraced time for every benchmark kernel.
MAX_OVERHEAD = 0.05


@dataclass(frozen=True)
class ObsResult:
    """One kernel's interleaved timing: tracing disabled vs enabled."""

    kernel: str
    workload: str
    untraced_ms: float
    traced_ms: float
    spans: int
    noise: float = 0.0

    @property
    def overhead(self) -> float:
        """Fractional slowdown from tracing (0.02 = 2% slower)."""
        if not self.untraced_ms:
            return 0.0
        return self.traced_ms / self.untraced_ms - 1.0

    def as_json(self) -> dict:
        return {
            "workload": self.workload,
            "untraced_ms": round(self.untraced_ms, 3),
            "traced_ms": round(self.traced_ms, 3),
            "overhead": round(self.overhead, 4),
            "noise": round(self.noise, 4),
            "spans": self.spans,
        }


#: Target duration of one timed region.  The span cost being measured is
#: microseconds; timing single ~10ms runs would let millisecond-scale
#: scheduler noise swamp it, so short workloads are batched up to this.
_REGION_SECONDS = 0.1


def _time_region(workload, inner: int) -> float:
    gc.collect()
    start = time.perf_counter()
    for _ in range(inner):
        workload.run()
    return (time.perf_counter() - start) / inner


def _time_interleaved(
    workload, repeat: int
) -> tuple[float, float, int, float]:
    """Best-of-``repeat`` per configuration, alternating region to region.

    Each timed region executes the workload ``inner`` times back-to-back
    (sized from an untimed calibration run to reach ``_REGION_SECONDS``)
    and bills the region's mean to one run — minima over ``repeat``
    regions then bound the noise from above on both sides identically.

    Every iteration times untraced/traced/untraced, and the relative gap
    between the minima of the two untraced series — identical code,
    interleaved identically with the traced regions — comes back as the
    run's A/A noise estimate.
    """
    best_a = best_b = best_on = float("inf")
    spans = 0
    with forced("on"):
        start = time.perf_counter()
        workload.run()  # warmup doubles as the inner-batch calibration
        single = time.perf_counter() - start
        inner = max(1, round(_REGION_SECONDS / max(single, 1e-9)))
        for _ in range(repeat):
            TRACER.disable()
            best_a = min(best_a, _time_region(workload, inner))

            TRACER.enable()
            TRACER.clear()
            best_on = min(best_on, _time_region(workload, inner))
            spans = len(TRACER.finished()) // inner

            TRACER.disable()
            best_b = min(best_b, _time_region(workload, inner))
    TRACER.disable()
    TRACER.clear()
    noise = abs(best_a - best_b) / min(best_a, best_b)
    return min(best_a, best_b) * 1e3, best_on * 1e3, spans, noise


def run_overhead_benchmarks(
    *, quick: bool = False, repeat: int = 5, kernels: Sequence[str] | None = None
) -> list[ObsResult]:
    """Time every selected kernel with tracing off and on."""
    selected = list(kernels) if kernels else list(WORKLOADS)
    results = []
    for name in selected:
        workload = WORKLOADS[name](quick)
        untraced_ms, traced_ms, spans, noise = _time_interleaved(workload, repeat)
        results.append(
            ObsResult(
                name, workload.description, untraced_ms, traced_ms, spans, noise
            )
        )
    return results


def overhead_failures(
    results: Sequence[ObsResult], *, limit: float = MAX_OVERHEAD
) -> list[str]:
    """Kernels whose tracing overhead exceeds ``limit`` — the CI gate.

    The budget is compared against the traced slowdown *beyond* the run's
    own A/A noise: span cost slows only the traced regions, while runner
    frequency wander spreads the two untraced series just as far apart.
    """
    failures = []
    for result in results:
        if result.overhead > limit + result.noise:
            failures.append(
                f"{result.kernel}: tracing overhead {result.overhead:.1%} "
                f"exceeds the {limit:.0%} budget plus the run's "
                f"{result.noise:.1%} A/A noise "
                f"({result.untraced_ms:.2f}ms → {result.traced_ms:.2f}ms)"
            )
    return failures


def report_json(
    results: Sequence[ObsResult],
    *,
    quick: bool,
    repeat: int,
    limit: float = MAX_OVERHEAD,
    serve_telemetry=None,
) -> str:
    """The ``BENCH_obs.json`` payload.

    ``serve_telemetry`` — the optional end-to-end A/B from
    :func:`repro.bench.serve.run_telemetry_overhead` (``bench --obs
    --serve``): the whole telemetry plane measured against the telemetry-off
    server, committed beside the per-kernel tracing figures.
    """
    command = f"python -m repro bench --obs{' --quick' if quick else ''}"
    if serve_telemetry is not None:
        command += " --serve"
    payload = {
        "schema": SCHEMA,
        "command": f"{command} --repeat {repeat}",
        "quick": quick,
        "repeat": repeat,
        "overhead_limit": limit,
        "kernels": {result.kernel: result.as_json() for result in results},
    }
    if serve_telemetry is not None:
        from repro.bench.serve import TELEMETRY_OVERHEAD_LIMIT

        payload["serve_telemetry_limit"] = TELEMETRY_OVERHEAD_LIMIT
        payload["serve_telemetry"] = serve_telemetry.as_json()
    return json.dumps(payload, indent=2) + "\n"


def render_table(results: Sequence[ObsResult]) -> str:
    lines = [
        f"{'kernel':18s} {'untraced':>12s} {'traced':>12s} "
        f"{'overhead':>9s} {'noise':>7s} {'spans':>6s}"
    ]
    for result in results:
        lines.append(
            f"{result.kernel:18s} {result.untraced_ms:>10.2f}ms "
            f"{result.traced_ms:>10.2f}ms {result.overhead:>8.1%} "
            f"{result.noise:>6.1%} {result.spans:>6d}"
        )
    return "\n".join(lines)


def baseline_failures(baseline: Mapping, *, limit: float = MAX_OVERHEAD) -> list[str]:
    """Validate a committed ``BENCH_obs.json`` payload against the budget."""
    failures = []
    for kernel, entry in baseline.get("kernels", {}).items():
        if entry.get("overhead", 0.0) > limit + entry.get("noise", 0.0):
            failures.append(
                f"{kernel}: committed overhead {entry['overhead']:.1%} exceeds {limit:.0%}"
            )
    serve_entry = baseline.get("serve_telemetry")
    if serve_entry is not None:
        serve_limit = baseline.get("serve_telemetry_limit", 0.10)
        allowance = serve_limit + serve_entry.get("noise", 0.0)
        if serve_entry.get("overhead", 0.0) > allowance:
            failures.append(
                f"serve_telemetry: committed overhead"
                f" {serve_entry['overhead']:.1%} exceeds {serve_limit:.0%}"
            )
    return failures
