"""Prefix monitoring — the operational meaning of the lower hierarchy.

§2 reads the classes through "good/bad things detectable in finite time":
a safety violation is witnessed by a finite prefix, a guarantee success is
witnessed by a finite prefix, and a clopen property always reaches a final
verdict.  :class:`PrefixMonitor` turns any deterministic ω-automaton into
an online monitor with the classic three-valued verdict:

* ``VIOLATED``  — no infinite extension of the prefix satisfies Π
  (the residual language is empty);
* ``SATISFIED`` — every extension satisfies Π (the residual is Σ^ω);
* ``PENDING``   — both continuations remain possible.

The hierarchy predicts the monitor's power, and the test suite verifies it:

* safety Π:     every violating word has a finite VIOLATED witness;
* guarantee Π:  every satisfying word has a finite SATISFIED witness;
* clopen Π:     every word reaches a final verdict;
* recurrence/persistence Π may stay PENDING forever (non-monitorable tail).

A :class:`PrefixMonitor` is the N=1 view of the fleet compiler: it holds
one stream state over a :class:`repro.fleet.compile.CompiledMonitor`, the
same dense transition table and per-state verdict codes that
:class:`repro.fleet.fleet.MonitorFleet` steps for a million streams at
once.  The qa ``fleet`` oracle holds the two views to identical verdict
vectors.

Unknown-symbol contract: :meth:`PrefixMonitor.step` with a symbol outside
the property's alphabet raises :class:`repro.errors.AlphabetError` and
leaves the monitor unchanged — state, verdict and ``position`` all keep
their pre-step values (see :mod:`repro.fleet.compile`).
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from repro.logic.ast import Formula
from repro.omega.automaton import DetAutomaton
from repro.words.alphabet import Alphabet, Symbol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fleet imports us)
    from repro.fleet.compile import CompiledMonitor


class Verdict3(Enum):
    VIOLATED = "violated"
    SATISFIED = "satisfied"
    PENDING = "pending"


class PrefixMonitor:
    """An online three-valued monitor for one ω-regular property.

    Feed symbols with :meth:`step`; read :attr:`verdict` anytime.  Once the
    verdict leaves ``PENDING`` it is final (the two decided regions are
    successor-closed), and further symbols keep returning it.
    """

    def __init__(
        self,
        automaton: DetAutomaton,
        *,
        live: frozenset[int] | None = None,
        colive: frozenset[int] | None = None,
        compiled: CompiledMonitor | None = None,
    ) -> None:
        if compiled is None:
            from repro.fleet.compile import CompiledMonitor

            compiled = CompiledMonitor(automaton, live=live, colive=colive)
        self._compiled = compiled
        self._state = compiled.initial
        self._position = 0

    @classmethod
    def for_formula(
        cls,
        formula: Formula,
        alphabet: Alphabet | None = None,
        *,
        use_cache: bool = True,
    ) -> PrefixMonitor:
        """Build a monitor for a formula.

        With ``use_cache`` (the default) the whole compilation — automaton,
        both residual analyses, and the dense table — goes through the
        engine's locked ``monitor_compiled`` cache, so a fleet of monitors
        for the same property (even built concurrently from many threads)
        shares one construction.
        """
        from repro.fleet.compile import CompiledMonitor

        compiled = CompiledMonitor.for_formula(formula, alphabet, use_cache=use_cache)
        return cls(compiled.automaton, compiled=compiled)

    @property
    def compiled(self) -> CompiledMonitor:
        """The shared compilation this monitor is the N=1 view of."""
        return self._compiled

    @property
    def automaton(self) -> DetAutomaton:
        return self._compiled.automaton

    @property
    def _live(self) -> frozenset[int]:
        return self._compiled.live

    @property
    def _colive(self) -> frozenset[int]:
        return self._compiled.colive

    @property
    def state(self) -> int:
        """The automaton state reached by the prefix consumed so far."""
        return self._state

    # ---------------------------------------------------------------- online

    @property
    def verdict(self) -> Verdict3:
        return self._compiled.verdict_at(self._state)

    def step(self, symbol: Symbol) -> Verdict3:
        # index_of validates first, so an unknown symbol raises before any
        # mutation and the monitor is left exactly as it was.
        self._state = self._compiled.step(self._state, symbol)
        self._position += 1
        return self.verdict

    def feed(self, symbols) -> Verdict3:
        for symbol in symbols:
            self.step(symbol)
        return self.verdict

    def reset(self) -> None:
        self._state = self._compiled.initial
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

    # ------------------------------------------------------------- analysis

    def is_monitorable_everywhere(self) -> bool:
        """Can every PENDING state still reach a verdict?  (Classic
        monitorability: no reachable 'ugly' state.)"""
        pending = [
            state
            for state in self.automaton.reachable
            if state in self._live and state in self._colive
        ]
        decided = frozenset(self.automaton.states) - frozenset(
            s for s in self.automaton.states if s in self._live and s in self._colive
        )
        from repro.omega.graph import can_reach

        reach_decided = can_reach(self.automaton.num_states, decided, self.automaton.successors)
        return all(state in reach_decided for state in pending)

    def always_decides(self) -> bool:
        """Does *every* infinite word reach a final verdict?  True exactly
        for clopen properties: the pending region must be transient."""
        from repro.omega.graph import cyclic_sccs

        pending = frozenset(
            state
            for state in self.automaton.reachable
            if state in self._live and state in self._colive
        )
        return not cyclic_sccs(pending, self.automaton.successors)
