"""The literal §5.1 procedures: explicit accessible-cycle families.

The paper phrases its decision procedures over the family

    F = { J : J an accessible cycle, J ∩ Rᵢ ≠ ∅ or J ⊆ Pᵢ for each i }

and chains of cycles inside it.  This module implements those definitions
*verbatim*, by enumerating the accessible cycle sets (strongly connected
subsets carrying a covering cycle) — exponential in the SCC size, so it is
guarded by a size limit and used as an executable specification: the test
suite cross-validates the polynomial algorithms of
:mod:`repro.omega.classify` against these on random small automata.
"""

from __future__ import annotations

from repro.omega.automaton import DetAutomaton
from repro.omega.graph import enumerate_cycle_sets, restricted_sccs

_DEFAULT_LIMIT = 18


def accessible_cycles(aut: DetAutomaton, *, limit: int = _DEFAULT_LIMIT) -> list[frozenset[int]]:
    """All accessible cycle sets (the paper's *accessible cycles*)."""
    cycles: list[frozenset[int]] = []
    for scc in restricted_sccs(aut.reachable, aut.successors):
        if len(scc) > limit:
            raise ValueError(f"SCC of size {len(scc)} exceeds the enumeration limit {limit}")
        cycles.extend(enumerate_cycle_sets(scc, aut.successors))
    return cycles


def accepting_family(aut: DetAutomaton, *, limit: int = _DEFAULT_LIMIT) -> list[frozenset[int]]:
    """The family ``F`` of accessible cycles accepted by the automaton."""
    return [
        cycle
        for cycle in accessible_cycles(aut, limit=limit)
        if aut.acceptance.accepts_infinity_set(cycle)
    ]


def literal_is_recurrence(aut: DetAutomaton, *, limit: int = _DEFAULT_LIMIT) -> bool:
    """§5.1 verbatim: for every ``J ∈ F`` and accessible cycle ``A ⊇ J``,
    ``A ∈ F``."""
    cycles = accessible_cycles(aut, limit=limit)
    accepted = {c for c in cycles if aut.acceptance.accepts_infinity_set(c)}
    for accepted_cycle in accepted:
        for candidate in cycles:
            if accepted_cycle < candidate and candidate not in accepted:
                return False
    return True


def literal_is_persistence(aut: DetAutomaton, *, limit: int = _DEFAULT_LIMIT) -> bool:
    """§5.1 verbatim: for every ``J ∈ F`` and accessible cycle ``B ⊆ J``,
    ``B ∈ F``."""
    cycles = accessible_cycles(aut, limit=limit)
    accepted = {c for c in cycles if aut.acceptance.accepts_infinity_set(c)}
    for accepted_cycle in accepted:
        for candidate in cycles:
            if candidate < accepted_cycle and candidate not in accepted:
                return False
    return True


def literal_is_reactivity_simple(aut: DetAutomaton, *, limit: int = _DEFAULT_LIMIT) -> bool:
    """§5.1 verbatim: no chain of accessible cycles ``B ⊆ J ⊆ A`` with
    ``J ∈ F`` but ``B, A ∉ F`` — the condition for a single Streett pair."""
    cycles = accessible_cycles(aut, limit=limit)
    accepted = {c for c in cycles if aut.acceptance.accepts_infinity_set(c)}
    for middle in accepted:
        has_smaller_rejected = any(b < middle and b not in accepted for b in cycles)
        has_larger_rejected = any(middle < a and a not in accepted for a in cycles)
        if has_smaller_rejected and has_larger_rejected:
            return False
    return True


def literal_chain_index(aut: DetAutomaton, *, limit: int = _DEFAULT_LIMIT) -> int:
    """Wagner's minimal Streett-pair count, by explicit chain enumeration.

    The index is ``⌈L/2⌉`` for the longest strictly increasing chain of
    accessible cycles that alternates acceptance and *starts with a
    rejecting cycle*.  (The paper displays the chain as
    ``B₁ ⊂ J₁ ⊂ … ⊂ Jₙ`` — terminated by an accepting cycle — which
    undercounts by one when a maximal chain ends on an unmatched rejecting
    cycle: the classic Rabin-1/Streett-2 language ``max-even parity on
    three colors`` has the chain {odd} ⊂ {odd, even} ⊂ {odd, even, top-odd}
    and needs two pairs.  See EXPERIMENTS.md, reading clarifications.)

    Exponential in the cycle-family size; used to cross-validate the
    recursive arena decomposition of :func:`repro.omega.classify.streett_index`.
    """
    cycles = accessible_cycles(aut, limit=limit)
    accepted = {c for c in cycles if aut.acceptance.accepts_infinity_set(c)}
    ordered = sorted(cycles, key=len)
    index_of = {cycle: i for i, cycle in enumerate(ordered)}

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def longest_from(position: int) -> int:
        cycle = ordered[position]
        want_accepting = cycle not in accepted
        best = 0
        for candidate in ordered:
            if len(candidate) <= len(cycle) or not cycle < candidate:
                continue
            if (candidate in accepted) != want_accepting:
                continue
            best = max(best, 1 + longest_from(index_of[candidate]))
        return best

    best_length = 0
    for start in ordered:
        if start in accepted:
            continue
        best_length = max(best_length, 1 + longest_from(index_of[start]))
    return (best_length + 1) // 2


def cross_validate(aut: DetAutomaton, *, limit: int = _DEFAULT_LIMIT) -> dict[str, bool]:
    """Compare the literal procedures against the polynomial ones."""
    from repro.core.classes import TemporalClass
    from repro.omega.classify import classify

    verdict = classify(aut)
    return {
        "recurrence": literal_is_recurrence(aut, limit=limit)
        == verdict.membership[TemporalClass.RECURRENCE],
        "persistence": literal_is_persistence(aut, limit=limit)
        == verdict.membership[TemporalClass.PERSISTENCE],
        "index": literal_chain_index(aut, limit=limit) == verdict.streett_index,
    }
