"""The dense fastpath kernels: differential parity, route selection, and
the benchmark harness plumbing.

The headline test drives the qa ``fastpath`` oracle over enough generated
subjects that well over 200 automata are cross-checked reference vs dense
per run — the parity contract (structural identity for constructions,
set/verdict identity for emptiness) is enforced object by object.
"""

import random

import pytest

from repro.bench.fastpath import (
    BENCHMARKS,
    KernelResult,
    regressions_against,
    render_table,
    report_json,
    run_benchmarks,
)
from repro.fastpath import scc
from repro.fastpath.bitset import pack_mask, unpack_positions
from repro.fastpath.config import DENSE_MIN_WORK, dense_route, forced
from repro.qa.generate import GeneratorConfig
from repro.qa.oracles import oracle_named


class TestFastpathOracleSweep:
    def test_two_hundred_objects_agree(self):
        """≥200 generated automata cross-checked per run, zero
        disagreements."""
        oracle = oracle_named("fastpath")
        rng = random.Random(1990)
        config = GeneratorConfig()
        generated = 0
        for _ in range(55):
            subject = oracle.generate(rng, config)
            generated += 4  # two ω-automata, an NBA and a formula per subject
            detail = oracle.check(subject)
            assert detail is None, detail
        assert generated >= 200

    def test_artifact_round_trip_preserves_verdict(self):
        oracle = oracle_named("fastpath")
        rng = random.Random(7)
        subject = oracle.generate(rng, GeneratorConfig())
        restored = oracle.from_artifact(oracle.to_artifact(subject))
        assert oracle.check(restored) is None
        assert "ω-automata" in oracle.describe(restored)


def _random_graph(rng, n, k):
    return tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))


def _random_mask(rng, n, density):
    return pack_mask([s for s in range(n) if rng.random() < density], n)


class TestSccKernels:
    def test_restricted_sccs_masked_matches_pure_decomposition(self):
        rng = random.Random(11)
        n = 40
        adjacency = _random_graph(rng, n, 2)
        mask = _random_mask(rng, n, 0.8)
        components = scc.restricted_sccs_masked(n, mask, adjacency)
        union = 0
        for component_mask, members in components:
            assert component_mask == pack_mask(members, n)
            assert union & component_mask == 0  # disjoint
            union |= component_mask
        assert union == mask  # partition covers exactly the candidate

    def test_pack_unpack_round_trip(self):
        rng = random.Random(5)
        for n in (1, 7, 64, 200, 1000):
            states = sorted(rng.sample(range(n), rng.randrange(n)) if n > 1 else [0])
            mask = pack_mask(states, n)
            assert unpack_positions(mask) == states


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
        assert set(BENCHMARKS) == {"product_emptiness", "nonempty", "classify"}

    def test_run_benchmark_single_kernel(self):
        results = run_benchmarks(quick=True, repeat=1, kernels=["product_emptiness"])
        assert len(results) == 1
        result = results[0]
        assert result.kernel == "product_emptiness"
        assert result.reference_ms > 0 and result.fastpath_ms > 0
        assert result.kernel in render_table(results)

    def test_report_json_schema(self):
        result = KernelResult("nonempty", "workload", 10.0, 2.5)
        import json

        payload = json.loads(report_json([result], quick=True, repeat=3))
        assert payload["schema"].startswith("repro-bench-fastpath/")
        assert payload["kernels"]["nonempty"]["speedup"] == 4.0

    def test_regression_gate(self):
        baseline = {"kernels": {"nonempty": {"speedup": 4.0}, "classify": {"speedup": 8.0}}}
        healthy = [KernelResult("nonempty", "w", 10.0, 3.0)]  # 3.3x > 4.0/2
        assert regressions_against(healthy, baseline) == []
        regressed = [KernelResult("nonempty", "w", 10.0, 6.0)]  # 1.67x < 2.0
        failures = regressions_against(regressed, baseline)
        assert len(failures) == 1 and "nonempty" in failures[0]
        unknown = [KernelResult("brand-new", "w", 10.0, 9.0)]
        assert regressions_against(unknown, baseline) == []
