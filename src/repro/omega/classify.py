"""Deciding the class of an ω-regular property (§5.1, Landweber/Wagner).

Semantic (authoritative) checks, all polynomial:

* **safety** — ``Π = cl(Π)`` (equivalence with the safety-closure automaton);
* **guarantee** — the complement is safety;
* **recurrence** — Wagner's condition ``J ∈ F ∧ J ⊆ A ⇒ A ∈ F`` on
  accessible cycles, decided without cycle enumeration: a violation exists
  iff some Streett pair ``(R,P)`` admits a non-trivial SCC ``S`` of the
  reachable graph minus ``R`` with ``S ⊄ P`` that still contains an
  accepting cycle (then ``A := S`` rejects while ``J ⊆ S`` accepts);
* **persistence** — dually, some *good component* contains, for some pair
  ``(R,P)``, a non-trivial SCC of itself minus ``R`` not inside ``P``;
* **obligation** — recurrence ∧ persistence (the paper: obligation is
  exactly the intersection of the two classes);
* **reactivity** — universal for deterministic automata; the interesting
  quantity is the *index* (minimal number of Streett pairs), computed from
  Wagner's maximal alternating chains ``B₁ ⊂ J₁ ⊂ … ⊂ Jₙ`` by a recursive
  decomposition that always steps to strictly smaller arenas.

Rabin-kind automata are classified through their (same-core) complements
using the class dualities.  The module also provides the paper's *syntactic*
automaton-shape recognizers (safety/guarantee/obligation-by-rank/
recurrence/persistence automata of §5), which are sound certificates:
a κ-shaped automaton always denotes a κ-property, but a κ-property may be
presented by an automaton of the wrong shape — that gap is exactly what
Prop 5.1's normalizations (``repro.omega.transform``) close.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.classes import TemporalClass, Verdict
from repro.omega.acceptance import Kind
from repro.omega.automaton import DetAutomaton
from repro.omega.closure import is_liveness, is_safety_closed
from repro.omega.emptiness import streett_good_components
from repro.omega.graph import (
    is_nontrivial_component,
    reachable_from,
    restricted_sccs,
)

# ---------------------------------------------------------------------------
# Semantic classification
# ---------------------------------------------------------------------------


class _WagnerBackend:
    """SCC / good-component service for one automaton's analysis pass.

    The Wagner checks decompose many sub-arenas of the same graph; the dense
    route (selected once per pass) reuses one Tarjan scratch over the flat
    transition table and computes good components through the mask kernels
    in :mod:`repro.fastpath.scc`.  Component *sets* are identical either way
    — only the enumeration order may differ, and every caller below is
    order-independent (existence checks, maxima, DAG relabelings).
    """

    __slots__ = ("aut", "dense", "_scc", "_scratch", "_pair_masks")

    @classmethod
    def of(cls, aut: DetAutomaton) -> "_WagnerBackend":
        """The backend for ``aut`` on the currently selected route.

        Memoized on the automaton (keyed by the route decision, so a
        ``forced``-mode differential run never reuses the other route's
        backend): one analysis pass asks for the same graph many times.
        """
        from repro.fastpath.config import dense_route

        dense = dense_route(aut.num_states * len(aut.alphabet))
        cache = aut.__dict__.setdefault("_wagner_backends", {})
        backend = cache.get(dense)
        if backend is None:
            backend = cls(aut, dense)
            cache[dense] = backend
        return backend

    def __init__(self, aut: DetAutomaton, dense: bool) -> None:
        self.aut = aut
        self.dense = dense
        if self.dense:
            from repro.fastpath import scc as _scc

            n = aut.num_states
            self._scc = _scc
            self._scratch = _scc._TarjanScratch(n, aut._delta)  # noqa: SLF001
            self._pair_masks = [
                (_scc.pack_mask(p.left, n), _scc.pack_mask(p.right, n))
                for p in aut.acceptance.pairs
            ]

    def sccs(self, states) -> list[list[int]]:
        """Restricted SCC member lists of the subgraph induced by ``states``."""
        if self.dense:
            return self._scratch.sccs(sorted(states))
        return restricted_sccs(states, self.aut.successors)

    def good_components(self, states) -> list[frozenset[int]]:
        """Maximal accepting sub-SCCs of the induced subgraph (Streett)."""
        if self.dense:
            n = self.aut.num_states
            scc = self._scc
            return [
                frozenset(scc.unpack_positions(mask))
                for mask in scc.streett_good_masks(
                    n,
                    scc.pack_mask(states, n),
                    self.aut._delta,  # noqa: SLF001
                    self._pair_masks,
                    scratch=self._scratch,
                )
            ]
        return streett_good_components(
            states, self.aut.successors, self.aut.acceptance.pairs
        )


def is_safety(aut: DetAutomaton) -> bool:
    """Is the property topologically closed (= a safety property)?"""
    return is_safety_closed(aut)

def is_guarantee(aut: DetAutomaton) -> bool:
    """Is the property open — equivalently, is its complement safety?"""
    return is_safety_closed(aut.complement())


def _streett_violations_of_recurrence(aut: DetAutomaton) -> bool:
    """Is there an accepting cycle inside a rejecting super-cycle? (Streett kind)"""
    pairs = aut.acceptance.pairs
    reachable = aut.reachable
    backend = _WagnerBackend.of(aut)
    for pair in pairs:
        arena = reachable - pair.left
        for scc in backend.sccs(arena):
            scc_set = frozenset(scc)
            internal = lambda s, inside=scc_set: [t for t in aut.successors(s) if t in inside]
            if not is_nontrivial_component(scc, internal):
                continue
            if scc_set <= pair.right:
                continue  # the super-cycle would still be accepting on this pair
            if backend.good_components(scc_set):
                return True
    return False


def _streett_violations_of_persistence(aut: DetAutomaton) -> bool:
    """Is there a rejecting cycle inside an accepting super-cycle? (Streett kind)"""
    pairs = aut.acceptance.pairs
    backend = _WagnerBackend.of(aut)
    for component in backend.good_components(aut.reachable):
        for pair in pairs:
            arena = component - pair.left
            for scc in backend.sccs(arena):
                scc_set = frozenset(scc)
                internal = lambda s, inside=scc_set: [t for t in aut.successors(s) if t in inside]
                if is_nontrivial_component(scc, internal) and not scc_set <= pair.right:
                    return True
    return False


def is_recurrence(aut: DetAutomaton) -> bool:
    """Is the property a ``G_δ`` set (recurrence)?"""
    if aut.acceptance.kind is Kind.STREETT:
        return not _streett_violations_of_recurrence(aut)
    return not _streett_violations_of_persistence(aut.complement())


def is_persistence(aut: DetAutomaton) -> bool:
    """Is the property an ``F_σ`` set (persistence)?"""
    if aut.acceptance.kind is Kind.STREETT:
        return not _streett_violations_of_persistence(aut)
    return not _streett_violations_of_recurrence(aut.complement())


def is_obligation(aut: DetAutomaton) -> bool:
    """Obligation = recurrence ∩ persistence (§2, "the obligation class is
    precisely the intersection of the recurrence and persistence classes")."""
    return is_recurrence(aut) and is_persistence(aut)


def classify(aut: DetAutomaton) -> Verdict:
    """Full membership profile of the property across the hierarchy."""
    safety = is_safety(aut)
    guarantee = is_guarantee(aut)
    recurrence = is_recurrence(aut)
    persistence = is_persistence(aut)
    membership = {
        TemporalClass.SAFETY: safety,
        TemporalClass.GUARANTEE: guarantee,
        TemporalClass.OBLIGATION: recurrence and persistence,
        TemporalClass.RECURRENCE: recurrence,
        TemporalClass.PERSISTENCE: persistence,
        TemporalClass.REACTIVITY: True,
    }
    return Verdict(membership=membership, is_liveness=is_liveness(aut))


# ---------------------------------------------------------------------------
# Wagner's alternating chains and the reactivity index
# ---------------------------------------------------------------------------


def _chain_lengths(aut: DetAutomaton) -> tuple[int, int]:
    """``(longest chain topped by an accepting cycle, … by a rejecting cycle)``
    over all reachable arenas of a Streett-kind automaton.  Chains are
    strictly decreasing and alternate acceptance."""
    pairs = aut.acceptance.pairs
    successors = aut.successors
    backend = _WagnerBackend.of(aut)

    @lru_cache(maxsize=None)
    def top_accepting(arena: frozenset[int]) -> int:
        best = 0
        for component in backend.good_components(arena):
            best = max(best, 1 + top_rejecting(component))
        return best

    @lru_cache(maxsize=None)
    def top_rejecting(arena: frozenset[int]) -> int:
        best = 0
        for pair in pairs:
            shrunk = arena - pair.left
            for scc in backend.sccs(shrunk):
                scc_set = frozenset(scc)
                internal = lambda s, inside=scc_set: [t for t in successors(s) if t in inside]
                if not is_nontrivial_component(scc, internal) or scc_set <= pair.right:
                    continue
                best = max(best, 1 + top_accepting(scc_set))
        return best

    reachable = aut.reachable
    return top_accepting(reachable), top_rejecting(reachable)


def _start_oriented_lengths(aut: DetAutomaton) -> tuple[int, int]:
    """``(L_sa, L_sr)``: the longest alternating cycle chains whose *smallest*
    element is accepting resp. rejecting.

    A top-τ chain of length ℓ yields top-τ chains of every length ≤ ℓ
    (drop bottoms), so both quantities follow from the two top-oriented
    maxima by a parity argument.
    """
    if aut.acceptance.kind is Kind.STREETT:
        top_acc, top_rej = _chain_lengths(aut)
    else:
        # Complementing swaps accepting and rejecting cycles.
        comp_acc, comp_rej = _chain_lengths(aut.complement())
        top_acc, top_rej = comp_rej, comp_acc

    def largest_with_parity(bound: int, odd: bool) -> int:
        if bound <= 0:
            return 0
        return bound if (bound % 2 == 1) == odd else bound - 1

    start_acc = max(largest_with_parity(top_acc, odd=True), largest_with_parity(top_rej, odd=False))
    start_rej = max(largest_with_parity(top_acc, odd=False), largest_with_parity(top_rej, odd=True))
    return start_acc, start_rej


def streett_index(aut: DetAutomaton) -> int:
    """Wagner's Streett index: the minimal number of Streett pairs any
    deterministic automaton for the property needs — ``⌈L/2⌉`` for the
    longest alternating chain of accessible cycles starting with a
    *rejecting* one (e.g. ``◇□p ∧ □◇q`` has index 2 while its complement
    needs a single Rabin pair).  Index 0 means the property is universal
    (no rejecting cycle at all)."""
    _start_acc, start_rej = _start_oriented_lengths(aut)
    return (start_rej + 1) // 2


def rabin_index(aut: DetAutomaton) -> int:
    """Wagner's Rabin index: chains starting with an *accepting* cycle;
    index 0 means the empty property."""
    start_acc, _start_rej = _start_oriented_lengths(aut)
    return (start_acc + 1) // 2


# ---------------------------------------------------------------------------
# Obligation degree (the Obl_k subhierarchy)
# ---------------------------------------------------------------------------


def obligation_degree(aut: DetAutomaton) -> int | None:
    """The minimal ``k`` with the property in ``Obl_k``, or ``None`` when the
    property is not an obligation property at all.

    For an obligation property every non-trivial SCC is uniformly accepting
    or rejecting, so the degree is the maximal number of
    rejecting→accepting alternations along a path of the SCC DAG
    (Wagner's chains collapse to DAG paths here).
    """
    if not is_obligation(aut):
        return None
    reachable = sorted(aut.reachable)
    sccs = _WagnerBackend.of(aut).sccs(reachable)
    label: dict[int, str] = {}
    component_of: dict[int, int] = {}
    component_sets: list[frozenset[int]] = []
    for scc in sccs:
        scc_set = frozenset(scc)
        index = len(component_sets)
        component_sets.append(scc_set)
        for state in scc:
            component_of[state] = index
        internal = lambda s, inside=scc_set: [t for t in aut.successors(s) if t in inside]
        if not is_nontrivial_component(scc, internal):
            label[index] = "transient"
        elif aut.acceptance.accepts_infinity_set(scc_set):
            label[index] = "accepting"
        else:
            label[index] = "rejecting"

    # DAG edges between distinct components.
    edges: dict[int, set[int]] = {i: set() for i in range(len(component_sets))}
    for state in reachable:
        for target in aut.successors(state):
            if target in component_of and component_of[target] != component_of[state]:
                edges[component_of[state]].add(component_of[target])

    # Longest alternation ending at each component: count completed
    # (rejecting, later accepting) pairs along any path.
    @lru_cache(maxsize=None)
    def best(index: int, seen_rejecting: bool) -> int:
        kind = label[index]
        score = 0
        if kind == "accepting" and seen_rejecting:
            score = 1
            seen_rejecting_next = False
        else:
            seen_rejecting_next = seen_rejecting or kind == "rejecting"
        follow = max(
            (best(target, seen_rejecting_next) for target in edges[index]),
            default=0,
        )
        return score + follow

    start = component_of[aut.initial]
    degree = best(start, False)
    # A property with accepting behavior but no alternation still needs one
    # conjunct (A(Φ)∪E(∅) or similar) unless it is trivial.
    return max(degree, 1)


# ---------------------------------------------------------------------------
# The paper's syntactic automaton shapes (§5)
# ---------------------------------------------------------------------------


def _good_bad_split(aut: DetAutomaton) -> tuple[frozenset[int], frozenset[int]]:
    """``G = ⋂ᵢ (Rᵢ ∪ Pᵢ)`` and ``B = Q − G`` (§5.1) for Streett kind."""
    good = frozenset(aut.states)
    for pair in aut.acceptance.pairs:
        good &= pair.left | pair.right
    return good, frozenset(aut.states) - good


def is_safety_shaped(aut: DetAutomaton) -> bool:
    """No transition from a bad state to a good state (§5's safety automaton).

    A sound certificate: every safety-shaped automaton whose good region is
    also *accepting-closed* denotes a safety property.  The §5.1 check
    ``closure(B) ∩ G = ∅`` is exactly this condition.
    """
    if aut.acceptance.kind is not Kind.STREETT:
        return False
    good, bad = _good_bad_split(aut)
    closure = reachable_from(bad, aut.successors) if bad else frozenset()
    return not closure & good


def is_guarantee_shaped(aut: DetAutomaton) -> bool:
    """No transition from a good state to a bad state (§5's guarantee automaton)."""
    if aut.acceptance.kind is not Kind.STREETT:
        return False
    good, _bad = _good_bad_split(aut)
    closure = reachable_from(good, aut.successors) if good else frozenset()
    return closure <= good


def is_recurrence_shaped(aut: DetAutomaton) -> bool:
    """All persistent sets empty: a (generalized) Büchi automaton (§5: P = ∅)."""
    return aut.acceptance.kind is Kind.STREETT and all(
        not pair.right for pair in aut.acceptance.pairs
    )


def is_persistence_shaped(aut: DetAutomaton) -> bool:
    """All recurrent sets empty: a co-Büchi automaton (§5: R = ∅)."""
    return aut.acceptance.kind is Kind.STREETT and all(
        not pair.left for pair in aut.acceptance.pairs
    )


def is_simple_reactivity_shaped(aut: DetAutomaton) -> bool:
    """A single unrestricted Streett pair (§5's simple reactivity automaton)."""
    return aut.acceptance.kind is Kind.STREETT and len(aut.acceptance.pairs) == 1


def is_obligation_shaped(aut: DetAutomaton, degree: int | None = None) -> bool:
    """Does a rank function ``ρ : Q → 0..k`` as in §5 exist?

    Requirements: ranks never decrease along transitions, bad→good moves
    strictly increase the rank, and no good state of the top rank moves to a
    bad state.  Equivalently the run alternates B→G at most ``k`` times; we
    check realizability on the SCC DAG.
    """
    if aut.acceptance.kind is not Kind.STREETT:
        return False
    good, _ = _good_bad_split(aut)
    reachable = sorted(aut.reachable)
    sccs = _WagnerBackend.of(aut).sccs(reachable)
    component_of: dict[int, int] = {}
    mixed = False
    for index, scc in enumerate(sccs):
        for state in scc:
            component_of[state] = index
        if len({state in good for state in scc}) > 1:
            mixed = True
    if mixed:
        return False  # a single SCC mixing good and bad alternates unboundedly

    edges: dict[int, set[int]] = {i: set() for i in range(len(sccs))}
    for state in reachable:
        for target in aut.successors(state):
            edges[component_of[state]].add(component_of[target])
            edges[component_of[state]].discard(component_of[state])

    @lru_cache(maxsize=None)
    def alternations(index: int) -> int:
        is_good = sccs[index][0] in good
        best = 0
        for target in edges[index]:
            step = 1 if (not is_good) and sccs[target][0] in good else 0
            best = max(best, step + alternations(target))
        return best

    needed = max((alternations(component_of[q]) for q in [aut.initial]), default=0)
    return degree is None or needed <= degree
