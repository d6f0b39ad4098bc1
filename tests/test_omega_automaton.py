"""Unit tests for deterministic ω-automata: acceptance, membership, algebra."""

import pytest

from repro.errors import AutomatonError
from repro.omega import Acceptance, DetAutomaton, Kind, Pair
from repro.words import Alphabet, LassoWord

AB = Alphabet.from_letters("ab")


def mod2_counter() -> DetAutomaton:
    """State = parity of a's seen; Büchi-accepts 'even parity infinitely often'."""
    return DetAutomaton(AB, [[1, 0], [0, 1]], 0, Acceptance.buchi([0]))


def inf_b_automaton() -> DetAutomaton:
    """□◇b over {a,b}: state 1 after b, 0 after a; Büchi on 1."""
    return DetAutomaton(AB, [[0, 1], [0, 1]], 0, Acceptance.buchi([1]))


class TestAcceptance:
    def test_streett_semantics(self):
        acc = Acceptance.streett([({0}, {2}), ({1}, ())])
        assert acc.accepts_infinity_set(frozenset({0, 1}))
        assert not acc.accepts_infinity_set(frozenset({0}))  # second pair fails
        assert not acc.accepts_infinity_set(frozenset({2}))  # second pair fails
        acc2 = Acceptance.streett([({0}, {2})])
        assert acc2.accepts_infinity_set(frozenset({2}))  # inf ⊆ P

    def test_rabin_semantics(self):
        acc = Acceptance.rabin([({0}, {1})])
        assert acc.accepts_infinity_set(frozenset({0}))
        assert acc.accepts_infinity_set(frozenset({0, 2}))
        assert not acc.accepts_infinity_set(frozenset({0, 1}))
        assert not acc.accepts_infinity_set(frozenset({2}))

    def test_duality_is_negation(self):
        for acc in [
            Acceptance.streett([({0}, {2}), ({1}, {0, 1})]),
            Acceptance.rabin([({0}, {1}), ({2}, ())]),
            Acceptance.buchi([1]),
            Acceptance.cobuchi([0, 2]),
        ]:
            dual = acc.dual(3)
            for mask in range(1, 8):
                inf = frozenset(i for i in range(3) if mask >> i & 1)
                assert dual.accepts_infinity_set(inf) == (not acc.accepts_infinity_set(inf))

    def test_double_dual_is_identity_semantically(self):
        acc = Acceptance.streett([({0}, {1})])
        double = acc.dual(2).dual(2)
        for mask in range(1, 4):
            inf = frozenset(i for i in range(2) if mask >> i & 1)
            assert double.accepts_infinity_set(inf) == acc.accepts_infinity_set(inf)

    def test_presentations_preserve_semantics(self):
        single_rabin = Acceptance.rabin([({0}, {1})])
        streett_view = Acceptance(Kind.STREETT, single_rabin.as_streett_pairs(3))
        single_streett = Acceptance.streett([({0}, {1})])
        rabin_view = Acceptance(Kind.RABIN, single_streett.as_rabin_pairs(3))
        for mask in range(1, 8):
            inf = frozenset(i for i in range(3) if mask >> i & 1)
            assert streett_view.accepts_infinity_set(inf) == single_rabin.accepts_infinity_set(inf)
            assert rabin_view.accepts_infinity_set(inf) == single_streett.accepts_infinity_set(inf)

    def test_multi_pair_conversions_refuse(self):
        multi_streett = Acceptance.streett([({0}, ()), ({1}, ())])
        assert multi_streett.as_rabin_pairs(2) is None
        multi_rabin = Acceptance.rabin([({0}, ()), ({1}, ())])
        assert multi_rabin.as_streett_pairs(2) is None

    def test_validation(self):
        with pytest.raises(AutomatonError):
            DetAutomaton(AB, [[0, 0]], 0, Acceptance.buchi([3]))


class TestMembership:
    def test_infinity_set_simple(self):
        aut = inf_b_automaton()
        assert aut.infinity_set(LassoWord.from_letters("", "ab")) == {0, 1}
        assert aut.infinity_set(LassoWord.from_letters("b", "a")) == {0}
        assert aut.infinity_set(LassoWord.from_letters("", "b")) == {1}

    def test_infinity_set_needs_loop_pumping(self):
        # Parity automaton: loop 'a' flips state each pass, so the anchor
        # repeats only after two loop traversals.
        aut = mod2_counter()
        assert aut.infinity_set(LassoWord.from_letters("", "a")) == {0, 1}
        assert aut.infinity_set(LassoWord.from_letters("", "aa")) == {0, 1}
        assert aut.infinity_set(LassoWord.from_letters("", "b")) == {0}

    def test_accepts(self):
        aut = inf_b_automaton()
        assert aut.accepts(LassoWord.from_letters("", "ab"))
        assert not aut.accepts(LassoWord.from_letters("bbb", "a"))
        assert LassoWord.from_letters("", "b") in aut

    def test_universal_and_empty(self):
        assert DetAutomaton.universal(AB).accepts(LassoWord.from_letters("ab", "ba"))
        assert not DetAutomaton.empty_language(AB).accepts(LassoWord.from_letters("", "a"))


class TestAlgebra:
    def test_complement_flips_membership(self):
        aut = inf_b_automaton()
        comp = aut.complement()
        for lasso in [
            LassoWord.from_letters("", "ab"),
            LassoWord.from_letters("b", "a"),
            LassoWord.from_letters("ab", "ba"),
        ]:
            assert comp.accepts(lasso) == (not aut.accepts(lasso))

    def test_intersection(self):
        inf_b = inf_b_automaton()
        even_a = mod2_counter()
        both = inf_b.intersection(even_a)
        assert both.accepts(LassoWord.from_letters("", "ab"))  # hits b and parity-0 forever
        assert not both.accepts(LassoWord.from_letters("", "a"))

    def test_union(self):
        inf_b = inf_b_automaton()
        only_a = DetAutomaton(AB, [[0, 1], [1, 1]], 0, Acceptance.cobuchi([0]))  # never b
        either = inf_b.union(only_a)
        assert either.accepts(LassoWord.from_letters("", "a"))
        assert either.accepts(LassoWord.from_letters("", "b"))
        assert either.accepts(LassoWord.from_letters("ab", "ba"))
        # finitely many b's but at least one, and not infinitely many: rejected
        assert not either.accepts(LassoWord.from_letters("b", "a"))

    def test_intersection_refuses_multi_pair_rabin(self):
        aut = inf_b_automaton()
        rabin2 = aut.with_acceptance(Acceptance.rabin([({0}, ()), ({1}, ())]))
        with pytest.raises(AutomatonError):
            rabin2.intersection(aut)

    def test_union_refuses_multi_pair_streett(self):
        aut = inf_b_automaton()
        streett2 = aut.with_acceptance(Acceptance.streett([({0}, ()), ({1}, ())]))
        with pytest.raises(AutomatonError):
            streett2.union(aut)

    def test_trim_preserves_language(self):
        # Add an unreachable third state.
        aut = DetAutomaton(AB, [[0, 1], [0, 1], [2, 2]], 0, Acceptance.buchi([1, 2]))
        trimmed = aut.trim()
        assert trimmed.num_states == 2
        for lasso in [LassoWord.from_letters("", "ab"), LassoWord.from_letters("b", "a")]:
            assert trimmed.accepts(lasso) == aut.accepts(lasso)

    def test_pair_helpers(self):
        pair = Pair.of([1], [2])
        assert pair.left == {1} and pair.right == {2}


class TestPickling:
    def test_report_with_derived_caches_round_trips(self):
        # G F X a -> G F b compiles to 112 states over 4 letters; the caches
        # its classification leaves on the automaton must not reach pickle.
        import pickle

        from repro import classify_formula, parse_formula

        report = classify_formula(parse_formula("G F X a -> G F b"))
        assert report.automaton.__dict__.get("_complement")
        copy = pickle.loads(pickle.dumps(report))
        assert "_complement" not in copy.automaton.__dict__
        assert copy.summary() == report.summary()
        assert copy.semantic.membership == report.semantic.membership
        original, restored = report.automaton, copy.automaton
        assert restored._delta == original._delta
        assert restored.initial == original.initial
        assert restored.acceptance == original.acceptance
        assert restored.equivalent_to(original)
