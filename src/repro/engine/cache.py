"""Keyed, size-bounded caches for the expensive automaton constructions.

Everything downstream of a formula is a pure function of ``(formula,
alphabet)`` — the GPVW tableau, Safra determinization, the classifier's
decision procedures — and real workloads (specification linting, batch
classification, monitoring fleets) ask for the same handful of properties
over and over.  This module provides the memoization layer:

* :class:`LRUCache` — a thread-safe, size-bounded LRU map with hit/miss/
  eviction statistics and explicit invalidation;
* :class:`CacheBank` — a named collection of such caches with a combined
  stats view, so the CLI can print one table;
* structural key helpers (:func:`formula_key`, :func:`automaton_key`,
  :func:`dfa_key`) — formulas and automata are interned by *value*, so two
  structurally equal requests share one cache line;
* ``cached_*`` wrappers over the library's expensive entry points
  (formula→NBA, formula→DRA, DFA minimization, classification, residual
  non-emptiness), all writing through the global :data:`CACHES` bank.

The wrappers import the algorithm modules lazily so that
``repro.core`` → ``repro.engine.metrics`` → ``repro.engine`` never cycles.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any

from repro.obs.spans import annotate


@dataclass(frozen=True, slots=True)
class CacheStats:
    """A point-in-time view of one cache's effectiveness."""

    name: str
    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def line(self) -> str:
        return (
            f"{self.name:20s} {self.size:5d}/{self.capacity:<5d}"
            f" hits={self.hits:<7d} misses={self.misses:<7d}"
            f" evictions={self.evictions:<5d} hit_rate={self.hit_rate:6.1%}"
        )


class LRUCache:
    """A thread-safe LRU cache with statistics and explicit invalidation.

    ``get_or_compute`` is the workhorse: it releases the lock while the
    value is being computed (constructions can take seconds), so concurrent
    misses on the same key may compute twice — the results are pure values,
    so the only cost is the duplicated work, never wrong answers.
    """

    def __init__(self, name: str, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.name = name
        self.capacity = capacity
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------ core

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            if key in self._data:
                self._hits += 1
                self._data.move_to_end(key)
                annotate(f"cache.{self.name}", "hit")
                return self._data[key]
            self._misses += 1
            annotate(f"cache.{self.name}", "miss")
            return default

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self._evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        with self._lock:
            if key in self._data:
                self._hits += 1
                self._data.move_to_end(key)
                annotate(f"cache.{self.name}", "hit")
                return self._data[key]
            self._misses += 1
        annotate(f"cache.{self.name}", "miss")
        value = compute()
        self.put(key, value)
        return value

    # ----------------------------------------------------------- maintenance

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it was present."""
        with self._lock:
            if key in self._data:
                del self._data[key]
                return True
            return False

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def keys(self) -> list[Hashable]:
        with self._lock:
            return list(self._data.keys())

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                name=self.name,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                capacity=self.capacity,
            )

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = self._misses = self._evictions = 0

    def __repr__(self) -> str:
        s = self.stats()
        return f"LRUCache({self.name}, {s.size}/{s.capacity}, hits={s.hits}, misses={s.misses})"


class Interner:
    """Structural interning: one canonical instance per equal value.

    ``intern(x)`` returns the first object equal to ``x`` ever seen, so
    downstream identity-keyed caches and ``is`` comparisons collapse
    structurally equal formulas/automata to one representative.
    """

    def __init__(self) -> None:
        self._canon: dict[Hashable, Any] = {}
        self._lock = threading.Lock()

    def intern(self, value: Hashable) -> Any:
        with self._lock:
            return self._canon.setdefault(value, value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._canon)

    def clear(self) -> None:
        with self._lock:
            self._canon.clear()


class CacheBank:
    """A named collection of :class:`LRUCache` instances."""

    #: Default capacities for the engine's standard caches.
    DEFAULT_CAPACITIES: dict[str, int] = {
        "formula_nba": 512,
        "formula_automaton": 512,
        "classification": 512,
        "dfa_minimal": 256,
        "nonempty": 512,
        "omega_expression": 256,
        "monitor_compiled": 256,
    }

    def __init__(self, capacities: dict[str, int] | None = None) -> None:
        self._lock = threading.Lock()
        self._caches: dict[str, LRUCache] = {}
        self._capacities = dict(self.DEFAULT_CAPACITIES)
        if capacities:
            self._capacities.update(capacities)

    def cache(self, name: str, capacity: int | None = None) -> LRUCache:
        with self._lock:
            if name not in self._caches:
                size = capacity or self._capacities.get(name, 256)
                self._caches[name] = LRUCache(name, size)
            return self._caches[name]

    def stats(self) -> dict[str, CacheStats]:
        with self._lock:
            caches = list(self._caches.values())
        return {cache.name: cache.stats() for cache in caches}

    def total_hits(self) -> int:
        return sum(s.hits for s in self.stats().values())

    def total_misses(self) -> int:
        return sum(s.misses for s in self.stats().values())

    def clear(self) -> None:
        """Invalidate every entry and zero the statistics."""
        with self._lock:
            caches = list(self._caches.values())
        for cache in caches:
            cache.clear()
            cache.reset_stats()

    def report(self) -> str:
        stats = self.stats()
        if not stats:
            return "(no caches active)"
        return "\n".join(stats[name].line() for name in sorted(stats))


#: The process-wide default cache bank used by the ``cached_*`` wrappers.
CACHES = CacheBank()


# ---------------------------------------------------------------------------
# Structural keys
# ---------------------------------------------------------------------------


def alphabet_key(alphabet) -> tuple:
    """A value key for an :class:`repro.words.Alphabet` (symbol order matters)."""
    return tuple(alphabet.symbols)


def formula_key(formula, alphabet) -> tuple:
    """Cache key for anything derived from ``(formula, alphabet)``.

    Formula nodes are immutable and hash structurally, so the pair is a
    complete description of the construction's input.
    """
    return (formula, alphabet_key(alphabet))


def dfa_key(dfa) -> tuple:
    """A structural key for a complete DFA."""
    return (alphabet_key(dfa.alphabet), tuple(dfa._delta), dfa.initial, dfa.accepting)


def automaton_key(automaton) -> tuple:
    """A structural key for a deterministic ω-automaton (table + acceptance)."""
    return (
        alphabet_key(automaton.alphabet),
        automaton._delta,
        automaton.initial,
        automaton.acceptance,
    )


# ---------------------------------------------------------------------------
# Cached wrappers over the expensive constructions
# ---------------------------------------------------------------------------


def cached_formula_to_nba(formula, alphabet, *, bank: CacheBank | None = None):
    """Memoized GPVW translation (``repro.logic.translate.formula_to_nba``)."""
    from repro.logic.translate import formula_to_nba

    cache = (bank or CACHES).cache("formula_nba")
    return cache.get_or_compute(
        formula_key(formula, alphabet), lambda: formula_to_nba(formula, alphabet)
    )


def cached_formula_to_automaton(formula, alphabet=None, *, bank: CacheBank | None = None):
    """Memoized formula → deterministic ω-automaton compilation."""
    from repro.core.classifier import default_alphabet, formula_to_automaton

    alphabet = alphabet or default_alphabet(formula)
    cache = (bank or CACHES).cache("formula_automaton")
    return cache.get_or_compute(
        formula_key(formula, alphabet), lambda: formula_to_automaton(formula, alphabet)
    )


def cached_classify_formula(formula, alphabet=None, *, bank: CacheBank | None = None):
    """Memoized full classification, sharing the automaton cache.

    The report is built from the *cached* automaton, so a classification
    request warms the automaton cache for later monitor/model-check jobs on
    the same formula (and vice versa).
    """
    from repro.core.classifier import default_alphabet, formula_report

    alphabet = alphabet or default_alphabet(formula)
    bank = bank or CACHES
    return bank.cache("classification").get_or_compute(
        formula_key(formula, alphabet),
        lambda: formula_report(
            formula, alphabet, cached_formula_to_automaton(formula, alphabet, bank=bank)
        ),
    )


def cached_minimized(dfa, *, bank: CacheBank | None = None):
    """Memoized DFA minimization (``DFA.minimized``)."""
    cache = (bank or CACHES).cache("dfa_minimal")
    return cache.get_or_compute(dfa_key(dfa), dfa.minimized)


def cached_nonempty_states(automaton, *, bank: CacheBank | None = None):
    """Memoized residual non-emptiness (the monitor's expensive setup)."""
    from repro.omega.emptiness import nonempty_states

    cache = (bank or CACHES).cache("nonempty")
    return cache.get_or_compute(
        automaton_key(automaton), lambda: nonempty_states(automaton)
    )


def cached_omega_language(expression: str, alphabet, *, bank: CacheBank | None = None):
    """Memoized ω-regular expression compilation (reduced automaton)."""
    from repro.omega.omega_regex import omega_language
    from repro.omega.reduce import quotient_reduce

    cache = (bank or CACHES).cache("omega_expression")
    return cache.get_or_compute(
        (expression, alphabet_key(alphabet)),
        lambda: quotient_reduce(omega_language(expression, alphabet)),
    )
