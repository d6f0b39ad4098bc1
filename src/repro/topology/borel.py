"""Borel-level verdicts and topological operators on ω-regular sets (§3).

The paper's correspondence, made executable:

========== ==================== =========================
class      topology             test used here
========== ==================== =========================
safety     closed (F)           ``Π = cl(Π)``
guarantee  open (G)             complement closed
recurrence ``G_δ``              Wagner condition (§5.1)
persistence``F_σ``              dual Wagner condition
obligation boolean comb. of F   recurrence ∧ persistence
reactivity boolean comb. of G_δ always (ω-regular ⊆ Δ₃)
========== ==================== =========================
"""

from __future__ import annotations

from repro.omega.automaton import DetAutomaton
from repro.omega.classify import is_guarantee, is_persistence, is_recurrence
from repro.omega.closure import is_liveness, is_safety_closed, safety_closure
from repro.words.alphabet import Symbol


def closure(aut: DetAutomaton) -> DetAutomaton:
    """Topological closure ``cl(Π) = A(Pref(Π))`` (§3's identity)."""
    return safety_closure(aut)


def interior(aut: DetAutomaton) -> DetAutomaton:
    """``int(Π) = ¬cl(¬Π)`` — the largest open subset."""
    return safety_closure(aut.complement()).complement()


def boundary_is_empty(aut: DetAutomaton) -> bool:
    """Clopen test: the boundary ``cl(Π) − int(Π)`` is empty iff Π is clopen."""
    return closure(aut).is_subset_of(interior(aut))


def boundary(aut: DetAutomaton) -> DetAutomaton:
    """``∂Π = cl(Π) ∩ ¬int(Π)`` (both parts are safety automata, so the
    intersection stays Streett-presentable)."""
    closed = closure(aut)
    not_interior = closure(aut.complement())
    return closed.intersection(not_interior)


def is_closed(aut: DetAutomaton) -> bool:
    return is_safety_closed(aut)


def is_open(aut: DetAutomaton) -> bool:
    return is_guarantee(aut)


def is_g_delta(aut: DetAutomaton) -> bool:
    return is_recurrence(aut)


def is_f_sigma(aut: DetAutomaton) -> bool:
    return is_persistence(aut)


def is_dense(aut: DetAutomaton) -> bool:
    """Density = the paper's liveness (§3's characterization of [AS85])."""
    return is_liveness(aut)


def borel_level(aut: DetAutomaton) -> str:
    """A human-readable Borel placement of the property."""
    closed, open_ = is_closed(aut), is_open(aut)
    if closed and open_:
        return "clopen"
    if closed:
        return "closed (F)"
    if open_:
        return "open (G)"
    g_delta, f_sigma = is_g_delta(aut), is_f_sigma(aut)
    if g_delta and f_sigma:
        return "BC(F) — boolean combination of closed sets"
    if g_delta:
        return "G_δ"
    if f_sigma:
        return "F_σ"
    return "BC(G_δ) — boolean combination of G_δ sets"


def g_delta_approximants(aut: DetAutomaton, depth: int) -> list[DetAutomaton]:
    """Open supersets ``G₁ ⊇ G₂ ⊇ …`` with ``Π ⊆ ⋂ₖ Gₖ`` (§3's construction).

    The property must be a recurrence (= ``G_δ``) property; it is first
    normalized to a Büchi automaton and ``G_k`` collects the words whose run
    reaches the accepting set at least ``k`` times.  Then ``⋂ₖ Gₖ = Π``
    exactly, reproducing §3's ``(a*b)^ω = ⋂ₖ (Σ*b)^k·Σ^ω``.
    """
    from repro.omega.transform import to_recurrence_automaton

    buchi = to_recurrence_automaton(aut)
    (pair,) = buchi.acceptance.pairs
    accepting_states = pair.left
    results = []
    for k in range(1, depth + 1):

        def successor(state: tuple[int, int], symbol: Symbol, k=k) -> tuple[int, int]:
            q, count = state
            if count >= k:
                return state  # latched: the prefix witness was found
            target = buchi.step(q, symbol)
            return target, min(count + (1 if target in accepting_states else 0), k)

        results.append(
            DetAutomaton.build_buchi(
                buchi.alphabet,
                (buchi.initial, 0),
                successor,
                lambda s, k=k: s[1] >= k,
            )
        )
    return results
