"""Normalizing automata into the paper's κ-shapes (Proposition 5.1).

Given a deterministic automaton whose property is *known* (or required) to
lie in class κ, build a language-equivalent automaton with the syntactic
κ-shape of §5:

* safety    — bad states become an absorbing trap, acceptance = "stay good";
* guarantee — dual through complementation;
* recurrence — the paper's persistent-cycle absorption (``R'ᵢ = Rᵢ ∪ Aᵢ``,
  ``P'ᵢ = ∅``) followed by counter degeneralization into a single Büchi set;
* persistence — dual through complementation;
* obligation — product of the recurrence (Büchi) and persistence (co-Büchi)
  forms, reduced to a weak automaton by labelling each SCC with the verdict
  of its strongly connected cycles (sound because obligation properties have
  equi-accepting SCCs).

Each construction raises :class:`ClassificationError` when the property is
not in the requested class, so the functions double as verified casts.
"""

from __future__ import annotations

from repro.core.classes import TemporalClass
from repro.errors import ClassificationError
from repro.omega import classify as classify_mod
from repro.omega.acceptance import Acceptance, Kind
from repro.omega.automaton import DetAutomaton
from repro.omega.closure import live_states
from repro.omega.emptiness import streett_good_components
from repro.omega.graph import cyclic_sccs
from repro.words.alphabet import Symbol

_TRAP = "normalized-trap"


def to_safety_automaton(aut: DetAutomaton) -> DetAutomaton:
    """A safety-shaped automaton for a safety property: dead states collapse
    into one absorbing trap; acceptance is co-Büchi on the live region."""
    if not classify_mod.is_safety(aut):
        raise ClassificationError("property is not a safety property")
    live = live_states(aut)

    def successor(state: int | str, symbol: Symbol) -> int | str:
        if state == _TRAP:
            return _TRAP
        target = aut.step(state, symbol)
        return target if target in live else _TRAP

    initial = aut.initial if aut.initial in live else _TRAP
    return DetAutomaton.build_cobuchi(aut.alphabet, initial, successor, lambda s: s != _TRAP)


def to_guarantee_automaton(aut: DetAutomaton) -> DetAutomaton:
    """A guarantee-shaped automaton: the complement's safety normal form,
    re-complemented — good states become an absorbing accepting sink."""
    if not classify_mod.is_guarantee(aut):
        raise ClassificationError("property is not a guarantee property")
    safety_form = to_safety_automaton(aut.complement())
    # safety_form is co-Büchi on the non-trap states P; its complement is the
    # Büchi automaton on the (absorbing) trap — exactly the guarantee shape.
    (pair,) = safety_form.acceptance.pairs
    trap_states = frozenset(safety_form.states) - pair.right
    return safety_form.with_acceptance(Acceptance.buchi(trap_states))


def _persistent_cycle_states(aut: DetAutomaton, pair_index: int) -> frozenset[int]:
    """States on accepting cycles avoiding ``R_i`` (the paper's ``A_i``)."""
    pairs = aut.acceptance.pairs
    arena = aut.reachable - pairs[pair_index].left
    components = streett_good_components(arena, aut.successors, pairs)
    result: set[int] = set()
    for component in components:
        result |= component
    return frozenset(result)


def _streett_persistence_to_cobuchi(aut: DetAutomaton) -> DetAutomaton:
    """Native co-Büchi construction for a persistence-class Streett automaton.

    Under persistence, a run is accepting iff its infinity set lies inside a
    single *good component* (every sub-cycle of an accepting cycle accepts).
    The good components are pairwise disjoint, so it suffices to watch a
    stability bit: the current state belongs to the same good component as
    the previous one.  Co-Büchi acceptance on the stable states then says
    "eventually trapped in one good component".
    """
    components = streett_good_components(aut.states, aut.successors, aut.acceptance.pairs)
    membership: dict[int, int] = {}
    for index, component in enumerate(components):
        for state in component:
            membership[state] = index

    def successor(state: tuple[int, bool], symbol: Symbol) -> tuple[int, bool]:
        q, _stable = state
        target = aut.step(q, symbol)
        here, there = membership.get(q), membership.get(target)
        return target, there is not None and there == here

    return DetAutomaton.build_cobuchi(
        aut.alphabet, (aut.initial, False), successor, lambda state: state[1]
    )


def _streett_recurrence_to_buchi(aut: DetAutomaton) -> DetAutomaton:
    """Phase 1 of the paper's proof (absorb persistent cycles: ``R'ᵢ = Rᵢ ∪
    Aᵢ``, ``P'ᵢ = ∅``) followed by round-robin degeneralization."""
    pairs = aut.acceptance.pairs
    if not pairs:
        return DetAutomaton.universal(aut.alphabet)
    recurrent_sets = [
        pairs[i].left | _persistent_cycle_states(aut, i) for i in range(len(pairs))
    ]
    k = len(recurrent_sets)

    def successor(state: tuple[int, int], symbol: Symbol) -> tuple[int, int]:
        q, counter = state
        if counter == k:  # a completed round restarts the counter
            counter = 0
        target = aut.step(q, symbol)
        next_counter = counter + 1 if target in recurrent_sets[counter] else counter
        return target, next_counter

    # Counter value k marks "every R'ᵢ seen since the last wrap": visiting it
    # infinitely often is the conjunction of the k Büchi requirements.
    return DetAutomaton.build_buchi(
        aut.alphabet, (aut.initial, 0), successor, lambda state: state[1] == k
    )


def to_recurrence_automaton(aut: DetAutomaton) -> DetAutomaton:
    """A Büchi automaton for a recurrence property.

    Streett kind: the paper's persistent-cycle absorption plus counter
    degeneralization.  Rabin kind: the complement is a persistence-class
    Streett automaton; its native co-Büchi form dualizes into a Büchi one.
    """
    if not classify_mod.is_recurrence(aut):
        raise ClassificationError("property is not a recurrence property")
    if aut.acceptance.kind is Kind.STREETT:
        return _streett_recurrence_to_buchi(aut)
    cobuchi = _streett_persistence_to_cobuchi(aut.complement())
    (pair,) = cobuchi.acceptance.pairs
    return cobuchi.with_acceptance(
        Acceptance.buchi(frozenset(cobuchi.states) - pair.right)
    )


def to_persistence_automaton(aut: DetAutomaton) -> DetAutomaton:
    """A co-Büchi automaton for a persistence property (dual constructions)."""
    if not classify_mod.is_persistence(aut):
        raise ClassificationError("property is not a persistence property")
    if aut.acceptance.kind is Kind.STREETT:
        return _streett_persistence_to_cobuchi(aut)
    buchi = _streett_recurrence_to_buchi(aut.complement())
    (pair,) = buchi.acceptance.pairs
    return buchi.with_acceptance(
        Acceptance.cobuchi(frozenset(buchi.states) - pair.left)
    )


def to_obligation_automaton(aut: DetAutomaton) -> DetAutomaton:
    """A *weak* automaton (every SCC uniformly accepting or rejecting) for an
    obligation property, with Büchi acceptance on the accepting SCCs."""
    if not classify_mod.is_obligation(aut):
        raise ClassificationError("property is not an obligation property")
    trimmed = aut.trim()
    accepting_states: set[int] = set()
    for scc_set in cyclic_sccs(trimmed.states, trimmed.successors):
        # Obligation ⟹ all cycles of the SCC agree with the full SCC cycle.
        if trimmed.acceptance.accepts_infinity_set(scc_set):
            accepting_states |= scc_set
    return trimmed.with_acceptance(Acceptance.buchi(sorted(accepting_states)))


def to_simple_reactivity_automaton(aut: DetAutomaton) -> DetAutomaton:
    """A one-pair Streett automaton, when the property's index allows it.

    Recurrence/persistence properties reuse their dedicated constructions;
    the genuinely mixed case runs the paper's anticipation product
    (:func:`reactivity_product`)."""
    verdict = classify_mod.classify(aut)
    if verdict.streett_index > 1:
        raise ClassificationError("property needs more than one Streett pair")
    if aut.acceptance.kind is Kind.STREETT and len(aut.acceptance.pairs) == 1:
        return aut
    if verdict.membership[TemporalClass.RECURRENCE]:
        buchi = to_recurrence_automaton(aut)
        (pair,) = buchi.acceptance.pairs
        return buchi.with_acceptance(Acceptance.streett([(pair.left, pair.right)]))
    if verdict.membership[TemporalClass.PERSISTENCE]:
        cobuchi = to_persistence_automaton(aut)
        (pair,) = cobuchi.acceptance.pairs
        return cobuchi.with_acceptance(Acceptance.streett([(pair.left, pair.right)]))
    return reactivity_product(aut)


def reactivity_product(aut: DetAutomaton) -> DetAutomaton:
    """The paper's ``Q' = Q × Q^m × 2 × n × 2`` construction (Prop 5.1,
    reactivity case), for properties of Streett index 1.

    Wagner's characterization partitions the accepting cycle family into
    *upward-witnessing* sets ``A₁…A_m`` (every accessible cycle containing
    ``Aᵢ`` accepts) and *downward-witnessing* sets ``B₁…B_n`` (every
    accessible cycle inside ``B_j`` accepts).  The product automaton
    anticipates, per ``Aᵢ``, the next ``Aᵢ``-state to be visited — matching
    the anticipated state infinitely often means ``inf ⊇ Aᵢ`` — and scans
    the ``B_j`` round-robin — a stabilized scan means ``inf ⊆ B_j``.  The
    single pair is (matches, stable-scan states).

    Uses explicit cycle-family enumeration, so it is restricted to small
    automata (like the paper's construction, it is a proof artifact).
    """
    from repro.omega.cyclefamily import accessible_cycles

    cycles = accessible_cycles(aut)
    accepted = [c for c in cycles if aut.acceptance.accepts_infinity_set(c)]
    cycle_set = set(cycles)
    accepted_set = set(accepted)

    def upward(candidate: frozenset[int]) -> bool:
        return all(c in accepted_set for c in cycle_set if candidate <= c)

    def downward(candidate: frozenset[int]) -> bool:
        return all(c in accepted_set for c in cycle_set if c <= candidate)

    a_type = [c for c in accepted if upward(c)]
    b_type = [c for c in accepted if downward(c)]
    for member in accepted:
        if member not in set(a_type) | set(b_type):
            raise ClassificationError(
                "the accepting family violates Wagner's simple-reactivity "
                "characterization (index > 1)"
            )
    # Minimal upward witnesses and maximal downward witnesses suffice.
    a_list = sorted(
        (c for c in a_type if not any(o < c for o in a_type)), key=sorted
    )
    b_list = sorted(
        (c for c in b_type if not any(c < o for o in b_type)), key=sorted
    )
    a_order = [sorted(c) for c in a_list]
    n_b = max(1, len(b_list))
    b_sets = [frozenset(b) for b in b_list] or [frozenset()]

    # State: (q, anticipated index per Aᵢ, scan index j).  The two flags of
    # the paper's construction are recovered from the transition itself, so
    # they are folded into the state as booleans.
    State = tuple  # (q, tuple[int, ...], int, bool, bool)
    initial: State = (aut.initial, tuple(0 for _ in a_order), 0, False, False)

    def successor(state: State, symbol) -> State:
        q, anticipated, scan, _match, _stable = state
        target = aut.step(q, symbol)
        new_anticipated = []
        matched = False
        for index, pointer in enumerate(anticipated):
            expected = a_order[index][pointer]
            if target == expected:
                new_anticipated.append((pointer + 1) % len(a_order[index]))
                matched = True
            else:
                new_anticipated.append(pointer)
        if target in b_sets[scan]:
            new_scan, stable = scan, True
        else:
            new_scan, stable = (scan + 1) % n_b, False
        return (target, tuple(new_anticipated), new_scan, matched, stable)

    def acceptance(order: list[State]) -> Acceptance:
        recurrent = [i for i, s in enumerate(order) if s[3]]
        persistent = [i for i, s in enumerate(order) if s[4]]
        return Acceptance.streett([(recurrent, persistent)])

    return DetAutomaton.build(aut.alphabet, initial, successor, acceptance)


def normalize(aut: DetAutomaton, target: "str" = "auto") -> DetAutomaton:
    """Normalize to the lowest κ-shape the property admits (or to ``target``).

    ``target`` may be ``'safety' | 'guarantee' | 'obligation' | 'recurrence'
    | 'persistence' | 'auto'``.
    """
    table = {
        "safety": to_safety_automaton,
        "guarantee": to_guarantee_automaton,
        "obligation": to_obligation_automaton,
        "recurrence": to_recurrence_automaton,
        "persistence": to_persistence_automaton,
    }
    if target != "auto":
        try:
            return table[target](aut)
        except KeyError:
            raise ValueError(f"unknown normalization target {target!r}") from None
    for name in ("safety", "guarantee", "obligation", "recurrence", "persistence"):
        try:
            return table[name](aut)
        except ClassificationError:
            continue
    return aut
