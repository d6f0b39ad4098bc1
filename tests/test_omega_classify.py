"""The §5.1 decision procedures: semantic class checks, Wagner chains,
obligation degree, and the syntactic shape recognizers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.classes import TemporalClass
from repro.finitary import FinitaryLanguage
from repro.omega import Acceptance, DetAutomaton, a_of, e_of, p_of, r_of
from repro.omega.classify import (
    classify,
    is_guarantee,
    is_guarantee_shaped,
    is_obligation,
    is_obligation_shaped,
    is_persistence,
    is_persistence_shaped,
    is_recurrence,
    is_recurrence_shaped,
    is_safety,
    is_safety_shaped,
    is_simple_reactivity_shaped,
    obligation_degree,
    rabin_index,
    streett_index,
)
from repro.qa.oracles import closure_spec, verdict_profile
from repro.words import Alphabet

from tests.test_omega_emptiness import random_automaton

AB = Alphabet.from_letters("ab")
AC = Alphabet.from_letters("ac")


def lang(regex: str, alphabet: Alphabet = AB) -> FinitaryLanguage:
    return FinitaryLanguage.from_regex(regex, alphabet)


def c_count_automaton(k: int) -> DetAutomaton:
    """Accepts words whose number of c's is odd and below 2k — the canonical
    level-k witness of the difference (Obl) hierarchy.  States count c's,
    saturating at 2k."""
    top = 2 * k

    def successor(count: int, symbol: str) -> int:
        if symbol == "c":
            return min(count + 1, top)
        return count

    return DetAutomaton.build_cobuchi(
        Alphabet.from_letters("ac"), 0, successor, lambda c: c % 2 == 1 and c < top
    )


def parity_staircase(n: int) -> DetAutomaton:
    """States remember the last letter ℓ ∈ {1..2n}; accept iff the largest
    letter seen infinitely often is even.  Streett pairs (one per odd ℓ):
    ``({ℓ+1..2n}, {1..ℓ-1})``.  Wagner index exactly n."""
    letters = [str(i) for i in range(1, 2 * n + 1)]
    alphabet = Alphabet(letters)
    rows = [[int(letter) - 1 for letter in letters] for _ in letters]
    pairs = []
    for odd in range(1, 2 * n, 2):
        recurrent = [i for i in range(2 * n) if i + 1 > odd]
        persistent = [i for i in range(2 * n) if i + 1 < odd]
        pairs.append((recurrent, persistent))
    return DetAutomaton(alphabet, rows, 0, Acceptance.streett(pairs))


class TestBasicClasses:
    def test_safety(self):
        automaton = a_of(lang("a+b*"))
        assert is_safety(automaton)
        assert not is_guarantee(automaton)
        assert is_recurrence(automaton) and is_persistence(automaton)
        assert classify(automaton).canonical is TemporalClass.SAFETY

    def test_guarantee(self):
        automaton = e_of(lang(".*b.*b"))  # at least two b's — open, not closed
        assert is_guarantee(automaton)
        assert not is_safety(automaton)
        assert classify(automaton).canonical is TemporalClass.GUARANTEE

    def test_clopen_is_both(self):
        automaton = e_of(lang("a+b*"))  # = aΣ^ω, a cylinder: clopen
        verdict = classify(automaton)
        assert verdict.membership[TemporalClass.SAFETY]
        assert verdict.membership[TemporalClass.GUARANTEE]
        assert verdict.lowest == {TemporalClass.SAFETY, TemporalClass.GUARANTEE}

    def test_recurrence_strict(self):
        automaton = r_of(lang(".*b"))  # (a*b)^ω
        assert is_recurrence(automaton)
        assert not is_persistence(automaton)
        assert not is_safety(automaton) and not is_guarantee(automaton)
        assert not is_obligation(automaton)
        assert classify(automaton).canonical is TemporalClass.RECURRENCE

    def test_persistence_strict(self):
        automaton = p_of(lang(".*b"))  # Σ*b^ω
        assert is_persistence(automaton)
        assert not is_recurrence(automaton)
        assert classify(automaton).canonical is TemporalClass.PERSISTENCE

    def test_obligation_strict(self):
        # a^ω ∪ (≥2 b's): obligation, neither safety nor guarantee.
        automaton = a_of(lang("a+")).union(e_of(lang(".*b.*b")))
        verdict = classify(automaton)
        assert verdict.canonical is TemporalClass.OBLIGATION
        assert not verdict.membership[TemporalClass.SAFETY]
        assert not verdict.membership[TemporalClass.GUARANTEE]

    def test_strict_simple_reactivity(self):
        # □◇p ∨ ◇□q with independent p, q: neither recurrence nor persistence.
        alphabet = Alphabet.from_letters("pqrn")  # p: p only, q: q only, r: both, n: none
        p_states = {"p", "r"}
        q_states = {"q", "r"}

        def successor(state, symbol):
            return symbol

        rows_aut = DetAutomaton.build(
            alphabet,
            "n",
            successor,
            lambda order: Acceptance.streett(
                [([i for i, s in enumerate(order) if s in p_states],
                  [i for i, s in enumerate(order) if s in q_states])]
            ),
        )
        verdict = classify(rows_aut)
        assert verdict.canonical is TemporalClass.REACTIVITY
        assert not verdict.membership[TemporalClass.RECURRENCE]
        assert not verdict.membership[TemporalClass.PERSISTENCE]
        assert streett_index(rows_aut) == 1

    def test_duality_of_classes(self):
        # Π safety ⟺ ¬Π guarantee; Π recurrence ⟺ ¬Π persistence (§2).
        for automaton in [a_of(lang("a+b*")), r_of(lang(".*b")), e_of(lang("ab"))]:
            comp = automaton.complement()
            assert is_safety(automaton) == is_guarantee(comp)
            assert is_guarantee(automaton) == is_safety(comp)
            assert is_recurrence(automaton) == is_persistence(comp)
            assert is_persistence(automaton) == is_recurrence(comp)
            assert is_obligation(automaton) == is_obligation(comp)


class TestObligationDegree:
    def test_degree_of_lower_classes_is_one(self):
        assert obligation_degree(a_of(lang("a+b*"))) == 1
        assert obligation_degree(e_of(lang("ab"))) == 1

    def test_degree_none_outside_obligation(self):
        assert obligation_degree(r_of(lang(".*b"))) is None

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_c_count_family_is_strict(self, k):
        automaton = c_count_automaton(k)
        assert is_obligation(automaton)
        assert obligation_degree(automaton) == k

    def test_paper_family_collapses_to_degree_one(self):
        # The paper claims [(Π+a*)d]^{k-1}·Π is strictly Obl_k, but closed
        # sets are closed under finite unions: the k "safety slices"
        # ⋃ᵢ (a*d)^{i-1}a^ω merge into ONE closed set and the open slices
        # into one open set, so the property is Obl_1 (recorded erratum).
        alphabet = Alphabet.from_letters("abcd")

        def make(k: int) -> DetAutomaton:
            def successor(state, symbol):
                block, mode = state
                if mode == "done" or mode == "sink":
                    return state
                if mode == "clean":
                    if symbol == "a":
                        return (block, "clean")
                    if symbol == "b":
                        return (block, "dirty")
                    if symbol == "c":
                        return (block, "done")
                    return (block + 1, "clean") if block + 1 < k else (block, "sink")
                # dirty: only c redeems
                if symbol == "c":
                    return (block, "done")
                if symbol == "d":
                    return (block, "sink")
                return (block, "dirty")

            return DetAutomaton.build_buchi(
                alphabet,
                (0, "clean"),
                successor,
                lambda s: s[1] in ("clean", "done"),
            )

        for k in (2, 3):
            automaton = make(k)
            assert is_obligation(automaton)
            assert obligation_degree(automaton) == 1

    def test_long_next_chain_does_not_recurse(self):
        # X^300 p compiles to a 303-state chain: one SCC DAG path per state.
        from repro import classify_formula, parse_formula

        report = classify_formula(parse_formula("X " * 300 + "p"))
        assert report.automaton.num_states == 303
        assert report.obligation_degree == 1


class TestWagnerIndex:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_parity_staircase_index(self, n):
        automaton = parity_staircase(n)
        assert streett_index(automaton) == n

    def test_rabin_index_is_dual(self):
        for n in (1, 2):
            automaton = parity_staircase(n)
            assert rabin_index(automaton) == streett_index(automaton.complement())

    def test_nontrivial_safety_needs_one_pair(self):
        assert streett_index(a_of(lang("a+b*"))) == 1
        assert rabin_index(a_of(lang("a+b*"))) == 1

    def test_universal_and_empty_are_index_zero(self):
        assert streett_index(DetAutomaton.universal(AB)) == 0
        assert rabin_index(DetAutomaton.empty_language(AB)) == 0

    def test_buchi_has_index_one(self):
        assert streett_index(r_of(lang(".*b"))) == 1
        assert streett_index(p_of(lang(".*b"))) == 1

    def test_rabin_one_streett_two_separation(self):
        # ◇□p ∧ □◇q (here: eventually only a's … impossible over {a,b}; use
        # a 4-letter encoding): inf-max-even parity over 3 colors — the
        # classic language with Rabin index 1 but Streett index 2.
        letters = Alphabet.from_letters("123")
        rows = [[0, 1, 2]] * 3  # state = last letter's color - 1
        aut = DetAutomaton(letters, rows, 0, Acceptance.rabin([({1}, {2})]))
        assert rabin_index(aut) == 1
        assert streett_index(aut) == 2
        # And dually for the complement.
        assert streett_index(aut.complement()) == 1
        assert rabin_index(aut.complement()) == 2

    def test_index_invariant_under_complement_duality(self):
        for n in (1, 2):
            automaton = parity_staircase(n)
            # streett index of L = rabin index of ¬L.
            assert streett_index(automaton) == rabin_index(automaton.complement())


class TestShapes:
    def test_linguistic_constructions_have_expected_shapes(self):
        assert is_persistence_shaped(a_of(lang("a+b*")))  # safety is co-Büchi-shaped
        assert is_safety_shaped(a_of(lang("a+b*")))
        assert is_guarantee_shaped(e_of(lang("ab")))
        assert is_recurrence_shaped(r_of(lang(".*b")))
        assert is_persistence_shaped(p_of(lang(".*b")))
        assert is_simple_reactivity_shaped(r_of(lang(".*b")))

    def test_shapes_are_certificates(self):
        # A κ-shaped automaton always denotes a κ-property.
        aut = a_of(lang("(ab)+"))
        assert is_safety_shaped(aut) and is_safety(aut)
        aut = e_of(lang("(ab)+"))
        assert is_guarantee_shaped(aut) and is_guarantee(aut)

    def test_shape_can_miss_semantics(self):
        # A Büchi automaton accepting everything through a flip-flop is a
        # safety property without the safety shape — the gap Prop 5.1 closes.
        flip = DetAutomaton(AB, [[1, 1], [0, 0]], 0, Acceptance.buchi([0]))
        assert is_safety(flip)
        assert not is_safety_shaped(flip)

    def test_obligation_shape(self):
        assert is_obligation_shaped(c_count_automaton(2))
        assert is_obligation_shaped(c_count_automaton(2), degree=2)
        assert not is_obligation_shaped(c_count_automaton(2), degree=1)
        assert not is_obligation_shaped(r_of(lang(".*b")))

    def test_obligation_shape_of_a_long_chain_does_not_recurse(self):
        # 1499 bad states in a row, then one good sink: one bad→good move.
        n = 1500
        rows = [[min(state + 1, n - 1)] * 2 for state in range(n)]
        chain = DetAutomaton(AB, rows, 0, Acceptance.buchi([n - 1]))
        assert is_obligation_shaped(chain, degree=1)
        assert not is_obligation_shaped(chain, degree=0)

    def test_wagner_pass_of_a_long_chain_does_not_recurse(self):
        # The same chain through classify's condensation: liveness crosses
        # 1499 transient components, and the language is universal.
        n = 1500
        rows = [[min(state + 1, n - 1)] * 2 for state in range(n)]
        chain = DetAutomaton(AB, rows, 0, Acceptance.buchi([n - 1]))
        verdict = classify(chain)
        assert all(verdict.membership.values())
        assert verdict.is_liveness
        assert (verdict.streett_index, verdict.rabin_index, verdict.obligation_degree) == (0, 1, 1)
        assert streett_index(chain) == 0
        assert obligation_degree(chain) == 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_classification_duality_on_random_automata(seed):
    automaton = random_automaton(random.Random(seed))
    comp = automaton.complement()
    assert is_safety(automaton) == is_guarantee(comp)
    assert is_recurrence(automaton) == is_persistence(comp)
    assert is_obligation(automaton) == is_obligation(comp)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_class_lattice_consistency_on_random_automata(seed):
    automaton = random_automaton(random.Random(seed))
    verdict = classify(automaton)
    membership = verdict.membership
    # Lattice: membership respects inclusion (Figure 1).
    for lower in TemporalClass:
        for upper in TemporalClass:
            if upper.includes(lower) and membership[lower]:
                assert membership[upper], (lower, upper)
    # Safety ∧ guarantee ⟹ obligation, recurrence ∧ persistence = obligation.
    assert membership[TemporalClass.OBLIGATION] == (
        membership[TemporalClass.RECURRENCE] and membership[TemporalClass.PERSISTENCE]
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_safety_check_matches_closure_on_random_automata(seed):
    from repro.omega import safety_closure

    automaton = random_automaton(random.Random(seed))
    assert is_safety(automaton) == automaton.equivalent_to(safety_closure(automaton))


# ---------------------------------------------------------------------------
# Safety, guarantee and liveness on the automaton's own graph: edge cases,
# each checked against the language-equivalence spec.
# ---------------------------------------------------------------------------


def _dead_region_rejecting_cycle() -> DetAutomaton:
    """``a^ω``: a ``b`` drops into the dead two-cycle {1, 2}, which is
    rejecting but must not count against safety."""
    return DetAutomaton(AB, [[0, 1], [2, 2], [1, 1]], 0, Acceptance.buchi([0]))


def _unreachable_live_rejecting_cycle() -> DetAutomaton:
    """Universal from state 0; the unreachable state 1 is live (``b`` leads
    to 0) and carries a rejecting ``a`` self-loop that must not count."""
    return DetAutomaton(AB, [[0, 0], [1, 0]], 0, Acceptance.buchi([0]))


def _transient_run_to_the_only_accepting_cycle() -> DetAutomaton:
    """``b*a^ω``: the rejecting ``b``-loop at 0 reaches the accepting
    ``a``-loop at 3 only through the transient states 1 and 2, whose ``b``
    drops into the dead sink 4; from 3 a ``b`` reaches 4 through the
    transient states 5 and 6.  Liveness must cross 1 and 2 (or safety is
    wrongly decided), co-liveness 5 and 6 (or guarantee is)."""
    rows = [[1, 0], [2, 4], [3, 4], [3, 5], [4, 4], [6, 6], [4, 4]]
    return DetAutomaton(AB, rows, 0, Acceptance.buchi([3]))


def _two_pair_rabin() -> DetAutomaton:
    """``◇□a ∨ ◇□b`` with the state remembering the last letter and the
    pairs ``({0},{1})``, ``({1},{0})``: each one-state cycle is accepted by
    one pair, and the cycle {0, 1} is rejected by both — a rejecting cycle
    that shows only under the dual (Streett) pairs taken together."""
    return DetAutomaton(
        AB, [[0, 1], [0, 1]], 0, Acceptance.rabin([([0], [1]), ([1], [0])])
    )


_EDGE_CASES = {
    # The initial state is dead: the empty set is clopen.
    "empty language": (
        lambda: DetAutomaton.empty_language(AB),
        {"safety": True, "guarantee": True, "liveness": False},
    ),
    "universal language": (
        lambda: DetAutomaton.universal(AB),
        {"safety": True, "guarantee": True, "liveness": True},
    ),
    # □◇b: live everywhere, and the a-loop is a rejecting live cycle.
    "recurrence □◇b": (
        lambda: r_of(lang(".*b")),
        {"safety": False, "guarantee": False, "liveness": True},
    ),
    "rejecting cycle only in the dead region": (
        _dead_region_rejecting_cycle,
        {"safety": True, "guarantee": False, "liveness": False},
    ),
    "unreachable live rejecting cycle": (
        _unreachable_live_rejecting_cycle,
        {"safety": True, "guarantee": True, "liveness": True},
    ),
    "transient run to the only accepting cycle": (
        _transient_run_to_the_only_accepting_cycle,
        {"safety": False, "guarantee": False, "liveness": False},
    ),
    "two-pair Rabin": (
        _two_pair_rabin,
        {"safety": False, "guarantee": False, "liveness": True},
    ),
}


@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
def test_closure_predicates_edge_cases_match_equivalence_spec(case):
    build, expected = _EDGE_CASES[case]
    automaton = build()
    assert closure_spec(automaton) == expected
    assert verdict_profile(classify(automaton)) == expected
    assert is_safety(automaton) == expected["safety"]
    assert is_guarantee(automaton) == expected["guarantee"]
