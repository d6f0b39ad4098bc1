"""``repro.obs`` — hierarchical tracing, exporters and classification provenance.

Three submodules:

* :mod:`repro.obs.spans` — the contextvar-based span tracer (stdlib-only,
  importable from any layer);
* :mod:`repro.obs.export` — JSONL, Prometheus text format, span trees and
  "top spans" profiles;
* :mod:`repro.obs.provenance` — explain-mode: per-verdict compile route,
  deciding view, automaton evidence and §5.1 reasons.

``provenance`` pulls in the classifier stack, so it is loaded lazily here:
low layers (``fastpath.config``, ``engine.cache``) can import
``repro.obs.spans`` without dragging ``repro.core`` into the import graph.
"""

from repro.obs.spans import (
    NOOP_SPAN,
    Span,
    SpanContext,
    SpanTracer,
    Stage,
    TRACER,
    annotate,
    current_span,
    span,
    stage,
)

_PROVENANCE_NAMES = {
    "ClassReason",
    "Explanation",
    "class_reasons",
    "explain_expression",
    "explain_formula",
}

_EXPORT_NAMES = {
    "jsonl_lines",
    "prometheus_text",
    "read_jsonl",
    "render_span_tree",
    "render_top_spans",
    "tree_order",
    "validate_jsonl_file",
    "validate_jsonl_lines",
    "write_jsonl",
}


def __getattr__(name: str):
    if name in _PROVENANCE_NAMES:
        from repro.obs import provenance

        return getattr(provenance, name)
    if name in _EXPORT_NAMES:
        from repro.obs import export

        return getattr(export, name)
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")


__all__ = [
    "NOOP_SPAN",
    "Span",
    "SpanContext",
    "SpanTracer",
    "Stage",
    "TRACER",
    "annotate",
    "current_span",
    "span",
    "stage",
    *sorted(_EXPORT_NAMES),
    *sorted(_PROVENANCE_NAMES),
]
