"""``repro.engine`` — a cached, batched, parallel property-evaluation engine.

The seed library recomputes every automaton from scratch on each call.
This package adds the serving layer on top of the algorithms:

* :mod:`repro.engine.metrics` — the counters/timers/histograms the GPVW,
  Safra, emptiness and classifier hot paths report into (their stage
  timers are fed by :func:`repro.obs.spans.stage`);
* :mod:`repro.engine.cache` — size-bounded LRU caches (with statistics
  and explicit invalidation) over the expensive constructions;
* :mod:`repro.engine.batch` — the :class:`EvaluationEngine`: batches of
  jobs, structural deduplication, serial or crash-isolated process pool;
* :mod:`repro.engine.session` — spec-file parsing and report rendering
  for ``python -m repro engine`` and ``classify --batch``.

The metrics and cache modules are imported eagerly (the core algorithm
modules depend on them); the batch/session layer — which depends back on
the core — is loaded lazily via module ``__getattr__`` to keep the import
graph acyclic.
"""

from __future__ import annotations

from repro.engine.cache import CACHES, CacheBank, CacheStats, Interner, LRUCache
from repro.engine.metrics import METRICS, MetricsRegistry

_LAZY = {
    "EvaluationEngine": ("repro.engine.batch", "EvaluationEngine"),
    "BatchReport": ("repro.engine.batch", "BatchReport"),
    "Job": ("repro.engine.batch", "Job"),
    "JobResult": ("repro.engine.batch", "JobResult"),
    "ClassifyFormula": ("repro.engine.batch", "ClassifyFormula"),
    "ClassifyOmega": ("repro.engine.batch", "ClassifyOmega"),
    "MonitorLasso": ("repro.engine.batch", "MonitorLasso"),
    "ModelCheck": ("repro.engine.batch", "ModelCheck"),
    "EngineSession": ("repro.engine.session", "EngineSession"),
    "parse_spec": ("repro.engine.session", "parse_spec"),
}

__all__ = [
    "CACHES",
    "CacheBank",
    "CacheStats",
    "Interner",
    "LRUCache",
    "METRICS",
    "MetricsRegistry",
    *_LAZY.keys(),
]


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module_name, attribute = _LAZY[name]
        return getattr(importlib.import_module(module_name), attribute)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
