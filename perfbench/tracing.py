"""The traced run's span recorder: library entry points wrapped from outside.

The benchmark does not change the package.  It replaces chosen functions
and methods of loaded ``repro`` modules with wrappers that record one span
per call: name, start, end, parent (the enclosing wrapped call) and an
optional output size.  Spans live in a list in memory while the run
measures and are written out as JSONL at the end.

A layer's self time is its spans' durations minus the part covered by
their direct child spans.  The recorder is single-threaded on purpose: the
workloads it wraps (classify, serial census, monitor) run on one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Wrappers around whole calls rather than layers of their own.  Their
#: self time is whatever the named layers under them do not cover, so
#: ``unattributed_ratio`` counts it as unattributed.
ROOT_LAYERS = frozenset({"engine.cache", "census.run", "census.measure"})


class SpanRecorder:
    """Spans as ``[name, start, end, parent_index, size]`` lists; ``size``
    is whatever the wrapper's ``size`` function makes of the result (an
    automaton's state count, a batch's shape)."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size=None):
        recorder = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack
            index = len(recorder.spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            recorder.spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if size is not None:
                record[4] = size(result)
            return result

        return traced

    def patch_function(self, module, attr: str, name: str, size=None) -> None:
        """Wrap ``module.attr`` everywhere a loaded ``repro`` module holds it
        (``from x import f`` copies the reference into the importer)."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, size)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, size=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, size)))
        else:
            setattr(cls, attr, self.wrap(name, raw, size))

    def clear(self) -> None:
        self.spans.clear()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, size in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "size": size}
                    )
                    + "\n"
                )


class SpanSummary:
    """Self time, call counts, output sizes and parent links of a span list."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        covered = [0.0] * len(spans)
        self.children: dict[int, list[int]] = defaultdict(list)
        for index, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                covered[parent] += end - start
                self.children[parent].append(index)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.sizes: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _, size) in enumerate(spans):
            self.self_s[name] += (end - start) - covered[index]
            self.calls[name] += 1
            if isinstance(size, int):
                self.sizes[name] += size

    def unattributed_ratio(self, wall_s: float, roots=ROOT_LAYERS) -> float:
        """Share of ``wall_s`` that no named layer's self time covers; the
        self time of ``roots`` counts as uncovered."""
        named = sum(seconds for name, seconds in self.self_s.items() if name not in roots)
        return 1.0 - named / wall_s

    def self_time_where(self, name: str, keep) -> tuple[float, int]:
        """Self time and count of ``name`` spans for which ``keep(index)``."""
        total, count = 0.0, 0
        for index, record in enumerate(self.spans):
            if record[0] == name and keep(index):
                covered = sum(
                    self.spans[c][2] - self.spans[c][1] for c in self.children[index]
                )
                total += record[2] - record[1] - covered
                count += 1
        return total, count

    def has_child(self, index: int, name: str) -> bool:
        return any(self.spans[c][0] == name for c in self.children[index])

    def inclusive_under(self, names: set[str], parent_name: str) -> float:
        """Total duration of ``names`` spans whose parent is a ``parent_name`` span."""
        return sum(
            end - start
            for name, start, end, parent, _ in self.spans
            if name in names and parent >= 0 and self.spans[parent][0] == parent_name
        )


def install_pipeline_layers(recorder: SpanRecorder) -> None:
    """Wrap the classification pipeline's stages (parse → dispatch/tester or
    GPVW → Safra → quotient → Wagner analysis, liveness, syntax) and the
    engine cache entry points around them."""
    import repro.core.classifier as classifier
    import repro.engine.cache as cache
    import repro.logic.classes as logic_classes
    import repro.logic.parser as parser
    import repro.logic.translate as translate
    import repro.omega.classify as omega_classify
    import repro.omega.closure as closure
    import repro.omega.reduce as reduce
    import repro.omega.safra as safra

    def states(automaton) -> int:
        return automaton.num_states

    patch = recorder.patch_function
    patch(parser, "parse_formula", "logic.parser")
    patch(cache, "cached_classify_formula", "engine.cache")
    patch(cache, "cached_formula_to_automaton", "engine.cache")
    patch(classifier, "formula_to_automaton", "core.classifier")
    patch(safra, "formula_to_dra", "core.classifier.general")
    patch(translate, "formula_to_nba", "logic.translate", states)
    patch(safra, "determinize", "omega.safra", states)
    patch(reduce, "quotient_reduce", "omega.reduce", states)
    patch(omega_classify, "classify", "omega.classify.wagner")
    patch(omega_classify, "streett_index", "omega.classify.index")
    patch(omega_classify, "obligation_degree", "omega.classify.index")
    patch(closure, "is_liveness", "omega.closure")
    patch(closure, "is_safety_closed", "omega.closure")
    patch(closure, "is_uniform_liveness", "omega.closure")
    patch(logic_classes, "analyze_syntax", "logic.classes")


#: Every per-layer metric the traced run reports, with its unit.  A workload
#: that does not reach a layer reports 0 for it.
PER_LAYER_UNITS = {
    "logic.parser.self_ms": "ms",
    "logic.parser.calls": "count",
    "core.classifier.tester_self_ms": "ms",
    "core.classifier.tester_calls": "count",
    "core.classifier.general_route_ratio": "1",
    "core.classifier.dispatch_self_ms": "ms",
    "engine.cache.self_ms": "ms",
    "omega.classify.wagner_self_ms": "ms",
    "omega.classify.index_self_ms": "ms",
    "logic.translate.self_ms": "ms",
    "logic.translate.nba_states": "states",
    "omega.safra.self_ms": "ms",
    "omega.safra.dra_states": "states",
    "omega.reduce.self_ms": "ms",
    "omega.reduce.quotient_states": "states",
    "omega.closure.self_ms": "ms",
    "logic.classes.self_ms": "ms",
    "census.run.self_ms": "ms",
    "census.run.rederive_self_ms": "ms",
    "census.pool.busy_ratio": "1",
    "census.pool.first_row_s": "s",
    "census.pool.respawns": "count",
    "fastpath.dense_ratio": "1",
    "repro.import_s": "s",
    "engine.cache.hit_ratio": "1",
    "serve.store.hit_ratio": "1",
    "serve.server.store_ms": "ms",
    "serve.server.decode_ms": "ms",
    "serve.server.admission_ms": "ms",
    "serve.server.engine_ms": "ms",
    "serve.server.encode_ms": "ms",
    "serve.server.unstaged_ms": "ms",
    "serve.server.batch_size_mean": "count",
    "fleet.compile.self_ms": "ms",
    "fleet.stream.parse_aligned_self_ms": "ms",
    "fleet.stream.parse_columns_self_ms": "ms",
    "fleet.fleet.step_aligned_self_ms": "ms",
    "fleet.fleet.step_columns_self_ms": "ms",
    "fleet.stream.apply_self_ms": "ms",
    "obs.trace_overhead_ratio": "1",
    "unattributed_ratio": "1",
}


def pipeline_layers(summary: SpanSummary, passes: int) -> dict[str, float]:
    """Per-pass pipeline layer metrics from a traced span summary."""
    ms = 1e3 / passes
    general = [
        summary.has_child(i, "core.classifier.general")
        for i in range(len(summary.spans))
    ]
    tester_s, tester_calls = summary.self_time_where(
        "core.classifier", lambda i: not general[i]
    )
    dispatch_s, general_calls = summary.self_time_where(
        "core.classifier", lambda i: general[i]
    )
    dispatch_s += summary.self_s["core.classifier.general"]
    routed = tester_calls + general_calls
    return {
        "logic.parser.self_ms": summary.self_s["logic.parser"] * ms,
        "logic.parser.calls": summary.calls["logic.parser"] / passes,
        "core.classifier.tester_self_ms": tester_s * ms,
        "core.classifier.tester_calls": tester_calls / passes,
        "core.classifier.general_route_ratio": general_calls / routed if routed else 0.0,
        "core.classifier.dispatch_self_ms": dispatch_s * ms,
        "engine.cache.self_ms": summary.self_s["engine.cache"] * ms,
        "omega.classify.wagner_self_ms": summary.self_s["omega.classify.wagner"] * ms,
        "omega.classify.index_self_ms": summary.self_s["omega.classify.index"] * ms,
        "logic.translate.self_ms": summary.self_s["logic.translate"] * ms,
        "logic.translate.nba_states": summary.sizes["logic.translate"] / passes,
        "omega.safra.self_ms": summary.self_s["omega.safra"] * ms,
        "omega.safra.dra_states": summary.sizes["omega.safra"] / passes,
        "omega.reduce.self_ms": summary.self_s["omega.reduce"] * ms,
        "omega.reduce.quotient_states": summary.sizes["omega.reduce"] / passes,
        "omega.closure.self_ms": summary.self_s["omega.closure"] * ms,
        "logic.classes.self_ms": summary.self_s["logic.classes"] * ms,
    }


def fastpath_counts() -> tuple[int, int]:
    """(dense, reference) route decisions counted so far in this process."""
    from repro.engine.metrics import METRICS

    dense = reference = 0
    for name, value in METRICS.snapshot()["counters"].items():
        if name.startswith("fastpath."):
            if name.endswith(".hit"):
                dense += value
            elif name.endswith(".fallback"):
                reference += value
    return dense, reference


def dense_ratio_since(start: tuple[int, int]) -> float:
    """Share of route decisions since ``start`` that took the dense kernel."""
    dense, reference = fastpath_counts()
    dense -= start[0]
    reference -= start[1]
    return dense / (dense + reference) if dense + reference else 0.0


def per_layer_metrics(values: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric, unreached layers as 0, in the output shape."""
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"unknown per-layer metrics: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
