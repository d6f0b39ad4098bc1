"""The dense fastpath constructions: differential parity, route selection,
and the benchmark harness plumbing.

The headline test drives the qa ``fastpath`` oracle over enough generated
subjects that well over 200 objects are cross-checked reference vs dense
per run — the parity contract (structural identity of the Safra, GPVW and
quotient outputs) is enforced object by object.
"""

import random

import pytest

from repro.bench.fastpath import (
    BENCHMARKS,
    WORKLOADS,
    KernelResult,
    regressions_against,
    render_table,
    report_json,
    run_benchmarks,
)
from repro.fastpath.config import DENSE_MIN_WORK, dense_route, forced
from repro.qa.generate import GeneratorConfig
from repro.qa.oracles import oracle_named


class TestFastpathOracleSweep:
    def test_two_hundred_objects_agree(self):
        """≥200 generated objects cross-checked per run, zero
        disagreements."""
        oracle = oracle_named("fastpath")
        rng = random.Random(1990)
        config = GeneratorConfig()
        generated = 0
        for _ in range(67):
            subject = oracle.generate(rng, config)
            generated += 3  # an ω-automaton, an NBA and a formula per subject
            detail = oracle.check(subject)
            assert detail is None, detail
        assert generated >= 200

    def test_artifact_round_trip_preserves_verdict(self):
        oracle = oracle_named("fastpath")
        rng = random.Random(7)
        subject = oracle.generate(rng, GeneratorConfig())
        restored = oracle.from_artifact(oracle.to_artifact(subject))
        assert oracle.check(restored) is None
        assert "ω-automaton" in oracle.describe(restored)


class TestKernelRouting:
    def test_forced_pins_the_route(self):
        with forced("on"):
            assert dense_route(0)
        with forced("off"):
            assert not dense_route(10**9)
            with forced("on"):  # nests, restoring the outer mode on exit
                assert dense_route(1)
            assert not dense_route(10**9)
        with pytest.raises(ValueError):
            with forced("dense"):
                pass

    def test_cutoff_is_dense_min_work(self):
        assert DENSE_MIN_WORK == 256
        assert not dense_route(DENSE_MIN_WORK - 1)
        assert dense_route(DENSE_MIN_WORK)


class TestBenchHarness:
    def test_registry_names_cover_acceptance_kernels(self):
        assert set(BENCHMARKS) == {"classify"}
        assert set(WORKLOADS) == {"product_emptiness", "nonempty", "classify"}

    def test_run_benchmark_single_kernel(self):
        results = run_benchmarks(quick=True, repeat=1, kernels=["classify"])
        assert len(results) == 1
        result = results[0]
        assert result.kernel == "classify"
        assert result.reference_ms > 0 and result.fastpath_ms > 0
        assert result.kernel in render_table(results)

    def test_report_json_schema(self):
        result = KernelResult("classify", "workload", 10.0, 2.5)
        import json

        payload = json.loads(report_json([result], quick=True, repeat=3))
        assert payload["schema"].startswith("repro-bench-fastpath/")
        assert payload["kernels"]["classify"]["speedup"] == 4.0

    def test_regression_gate(self):
        baseline = {"kernels": {"classify": {"speedup": 4.0}}}
        healthy = [KernelResult("classify", "w", 10.0, 3.0)]  # 3.3x > 4.0/2
        assert regressions_against(healthy, baseline) == []
        regressed = [KernelResult("classify", "w", 10.0, 6.0)]  # 1.67x < 2.0
        failures = regressions_against(regressed, baseline)
        assert len(failures) == 1 and "classify" in failures[0]
        unknown = [KernelResult("brand-new", "w", 10.0, 9.0)]
        assert regressions_against(unknown, baseline) == []
