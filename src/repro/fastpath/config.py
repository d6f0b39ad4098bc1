"""Fastpath route selection: one size rule, and one override for tests.

Three ω constructions (GPVW, Safra, quotient) each keep a reference route
and a dense route.  :func:`dense_route` picks the dense one when the call's
work estimate reaches :data:`DENSE_MIN_WORK`.  "Work units" are
``states × |Σ|`` (Safra: ``states² × |Σ|``) — a proxy for the table size
the kernel will touch.  Small inputs are faster on the reference route
(cheaper set-up), large ones on the dense route, and the corpus reaches
both sides for all three.

:func:`forced` pins one route for a block; the qa ``fastpath`` oracle and
the benchmark harness use it to run both routes on the same input.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

#: Work-unit cutoff from which the dense route runs.  Small enough that
#: anything benchmark-sized goes dense, while the paper-scale examples stay
#: on the audited reference route.
DENSE_MIN_WORK = 256

_MODES = ("auto", "on", "off")

#: Process-local override installed by :func:`forced`.
_forced_mode: str = "auto"


@contextmanager
def forced(mode: str) -> Iterator[None]:
    """Pin the route for a block: ``on`` (dense), ``off`` (reference) or
    ``auto`` (the size rule); nests, restoring the previous mode on exit."""
    if mode not in _MODES:
        raise ValueError(f"fastpath mode must be one of {_MODES}, got {mode!r}")
    global _forced_mode
    previous = _forced_mode
    _forced_mode = mode
    try:
        yield
    finally:
        _forced_mode = previous


def dense_route(work: int) -> bool:
    """Whether a kernel call of ``work`` units takes the dense route."""
    if _forced_mode == "auto":
        return work >= DENSE_MIN_WORK
    return _forced_mode == "on"
