"""Benchmark harness for the dense fastpath kernels and the tracing layer.

``python -m repro bench`` runs :func:`repro.bench.fastpath.run_benchmarks`
and writes ``BENCH_fastpath.json``; the CI ``bench-smoke`` job re-runs a
quick variant and gates on :func:`repro.bench.fastpath.regressions_against`.
``python -m repro bench --obs`` runs
:func:`repro.bench.obs.run_overhead_benchmarks` over those workloads plus
two single-route kernels (:data:`repro.bench.fastpath.WORKLOADS`) and
writes ``BENCH_obs.json``, gating tracing overhead below
:data:`repro.bench.obs.MAX_OVERHEAD`.
``python -m repro bench --fleet`` runs
:func:`repro.bench.fleet.run_fleet_benchmarks` (vectorized fleet vs scalar
monitor loop, streams·events/sec) and writes ``BENCH_fleet.json``; the CI
``fleet-smoke`` job gates with
:func:`repro.bench.fleet.regressions_against`.
"""

from repro.bench.fastpath import (
    BENCHMARKS,
    WORKLOADS,
    KernelResult,
    regressions_against,
    render_table,
    report_json,
    run_benchmarks,
)
from repro.bench.fleet import FleetResult, run_fleet_benchmarks
from repro.bench.obs import (
    MAX_OVERHEAD,
    ObsResult,
    overhead_failures,
    run_overhead_benchmarks,
)

__all__ = [
    "BENCHMARKS",
    "FleetResult",
    "KernelResult",
    "MAX_OVERHEAD",
    "ObsResult",
    "WORKLOADS",
    "overhead_failures",
    "run_fleet_benchmarks",
    "regressions_against",
    "render_table",
    "report_json",
    "run_benchmarks",
    "run_overhead_benchmarks",
]
