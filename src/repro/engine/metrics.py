"""Counters, timers and histograms for the hot paths.

The engine layer (``repro.engine``) turns the library into an evaluation
service; this module is its aggregate observability substrate.  It is
deliberately dependency-free (stdlib only, no imports from the rest of
``repro``) so the algorithmic hot paths — GPVW translation, Safra
determinization, Streett emptiness, the classifier — can record what they
do without creating import cycles.

Three primitives, all registered by name in a :class:`MetricsRegistry`:

* :class:`Counter` — a monotone event count;
* :class:`Timer` — accumulated wall-clock with count/total/min/max;
* :class:`Histogram` — bucketed value counts (e.g. automaton sizes).

A pipeline stage's timer is fed by :func:`repro.obs.spans.stage`, which
reads the clock once per stage and hands the same interval to the timer
and, while tracing is on, to the stage's span.

Everything is thread-safe; the synchronized sections are tiny so the
overhead on the hot paths is a few microseconds per observation.
"""

from __future__ import annotations

import bisect
import threading
from collections.abc import Sequence


class Counter:
    """A monotone named count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        """Zero the count in place; holders of the instrument keep it."""
        with self._lock:
            self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Timer:
    """Accumulated wall-clock observations for one named operation."""

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        with self._lock:
            self.count += 1
            self.total += seconds
            self.min = min(self.min, seconds)
            self.max = max(self.max, seconds)

    def reset(self) -> None:
        """Zero the accumulators in place; holders keep the instrument."""
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = float("inf")
            self.max = 0.0

    def merge(self, *, count: int, total: float, minimum: float, maximum: float) -> None:
        """Fold another timer's accumulated observations into this one."""
        if count <= 0:
            return
        with self._lock:
            self.count += count
            self.total += total
            self.min = min(self.min, minimum)
            self.max = max(self.max, maximum)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return f"Timer({self.name}: n={self.count}, total={self.total:.6f}s)"


class Histogram:
    """Bucketed counts of a numeric observable (bucket = inclusive upper bound)."""

    __slots__ = ("name", "bounds", "counts", "overflow", "observations", "total", "_lock")

    DEFAULT_BOUNDS: tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

    def __init__(self, name: str, bounds: Sequence[float] | None = None) -> None:
        self.name = name
        self.bounds = tuple(sorted(bounds if bounds is not None else self.DEFAULT_BOUNDS))
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.observations = 0
        self.total = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # Buckets are inclusive upper bounds, so the target is the first
        # bound ≥ value — bisect_left, not a linear scan.
        with self._lock:
            self.observations += 1
            self.total += value
            index = bisect.bisect_left(self.bounds, value)
            if index < len(self.bounds):
                self.counts[index] += 1
            else:
                self.overflow += 1

    def reset(self) -> None:
        """Zero every bucket in place; holders keep the instrument."""
        with self._lock:
            self.counts = [0] * len(self.bounds)
            self.overflow = 0
            self.observations = 0
            self.total = 0.0

    def as_dict(self) -> dict[str, float]:
        """Bucket counts plus the ``sum`` of raw observations (Prometheus
        histograms expose ``_sum`` alongside the cumulative buckets)."""
        with self._lock:
            result: dict[str, float] = {
                f"le_{bound:g}": count for bound, count in zip(self.bounds, self.counts)
            }
            result["overflow"] = self.overflow
            result["sum"] = self.total
            return result

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.observations})"


class MetricsRegistry:
    """A process-local registry of named counters, timers and histograms.

    Instruments are created on first use and live for the life of the
    registry; :meth:`reset` zeroes their values in place.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, Timer] = {}
        self._histograms: dict[str, Histogram] = {}

    # ---------------------------------------------------------- instruments

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def timer(self, name: str) -> Timer:
        with self._lock:
            if name not in self._timers:
                self._timers[name] = Timer(name)
            return self._timers[name]

    def histogram(self, name: str, bounds: Sequence[float] | None = None) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, bounds)
            return self._histograms[name]

    # ------------------------------------------------------------ reporting

    def snapshot(self) -> dict[str, object]:
        """A plain-data view of every instrument (stable for tests/JSON).

        ``min`` serializes as ``0.0`` for an empty timer — ``inf`` is the
        in-memory sentinel, but JSON has no infinity and an empty timer's
        minimum is morally "nothing observed", not "infinitely slow".
        """
        with self._lock:
            counters = {name: c.value for name, c in self._counters.items()}
            timers = {
                name: {
                    "count": t.count,
                    "total": t.total,
                    "mean": t.mean,
                    "min": t.min if t.count else 0.0,
                    "max": t.max,
                }
                for name, t in self._timers.items()
            }
            histograms = {name: h.as_dict() for name, h in self._histograms.items()}
        return {"counters": counters, "timers": timers, "histograms": histograms}

    def reset(self) -> None:
        """Zero every instrument *in place*.

        The instrument objects survive: a hot path that looked up a
        ``Counter``/``Timer`` once and kept the reference must keep
        reporting into this registry after a reset, so the dicts are never
        cleared — doing so would silently disconnect every cached
        reference.
        """
        with self._lock:
            instruments: list = (
                list(self._counters.values())
                + list(self._timers.values())
                + list(self._histograms.values())
            )
        for instrument in instruments:
            instrument.reset()

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        This is how worker-process observability comes home: the engine's
        process executor snapshots the worker-local registry per job and
        merges the deltas here.  Counters and histogram buckets add;
        timers combine count/total and extremes.  A histogram whose bucket
        labels do not line up with the local instrument's bounds is counted
        in ``merge.histogram_mismatch`` and left out whole, not guessed at.
        """
        for name, value in snapshot.get("counters", {}).items():
            if value:
                self.counter(name).inc(value)
        for name, data in snapshot.get("timers", {}).items():
            self.timer(name).merge(
                count=data.get("count", 0),
                total=data.get("total", 0.0),
                minimum=data.get("min", 0.0),
                maximum=data.get("max", 0.0),
            )
        for name, data in snapshot.get("histograms", {}).items():
            bounds = []
            for label in data:
                if label.startswith("le_"):
                    try:
                        bounds.append(float(label[3:]))
                    except ValueError:
                        pass
            histogram = self.histogram(name, bounds or None)
            index_of = {f"le_{bound:g}": index for index, bound in enumerate(histogram.bounds)}
            buckets = {
                label: count
                for label, count in data.items()
                if count and label not in ("sum", "overflow")
            }
            # All or nothing: folding in only the labels that line up would
            # leave ``observations`` and ``sum`` disagreeing with the buckets.
            if not buckets.keys() <= index_of.keys():
                self.counter("merge.histogram_mismatch").inc()
                continue
            overflow = data.get("overflow", 0)
            with histogram._lock:
                for label, count in buckets.items():
                    histogram.counts[index_of[label]] += count
                histogram.overflow += overflow
                histogram.observations += sum(buckets.values()) + overflow
                histogram.total += data.get("sum", 0.0)

    def report(self) -> str:
        """A human-readable multi-line summary (the CLI prints this)."""
        snap = self.snapshot()
        lines: list[str] = []
        if snap["timers"]:
            lines.append("timers:")
            for name in sorted(snap["timers"]):
                data = snap["timers"][name]
                lines.append(
                    f"  {name:32s} n={data['count']:<6d} total={data['total']*1e3:9.2f}ms"
                    f" mean={data['mean']*1e3:8.3f}ms"
                )
        counters = snap["counters"]
        if counters:
            lines.append("counters:")
            for name in sorted(counters):
                lines.append(f"  {name:32s} {counters[name]}")
        return "\n".join(lines) if lines else "(no metrics recorded)"


#: The process-wide default registry used by the instrumented hot paths.
METRICS = MetricsRegistry()


def snapshot_delta(before: dict, after: dict) -> dict:
    """``after − before`` for two :meth:`MetricsRegistry.snapshot` values.

    Used on the worker side of a process pool: snapshot around one job and
    ship only that job's contribution, so merging per-job deltas never
    double-counts work from earlier jobs in a reused worker.  Timer ``min``/
    ``max`` cannot be differenced, so the delta keeps ``after``'s extremes —
    an over-approximation that is exact for the common one-job-per-delta
    case and merely widens the envelope otherwise.
    """
    counters = {}
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0)
        if delta:
            counters[name] = delta
    timers = {}
    for name, data in after.get("timers", {}).items():
        prior = before.get("timers", {}).get(name, {})
        count = data["count"] - prior.get("count", 0)
        if count:
            timers[name] = {
                "count": count,
                "total": data["total"] - prior.get("total", 0.0),
                "mean": (data["total"] - prior.get("total", 0.0)) / count,
                "min": data.get("min", 0.0),
                "max": data.get("max", 0.0),
            }
    histograms = {}
    for name, data in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(name, {})
        delta_buckets = {
            label: count - prior.get(label, 0) for label, count in data.items()
        }
        if any(delta_buckets.values()):
            histograms[name] = delta_buckets
    return {"counters": counters, "timers": timers, "histograms": histograms}
