"""Seeded, size-bounded random generators for every object the library handles.

All generators are driven by an explicit ``random.Random`` (never the global
module state), extending the seedable :func:`repro.finitary.dfa.random_dfa`
idiom so every fuzz case, benchmark and property test replays from one
integer.  Sizes are bounded by a :class:`GeneratorConfig`; the defaults keep
single cases in the low milliseconds so a few hundred fit in a smoke run.

Formula generation respects the library's supported fragment: past operators
are only applied to pure-past operands (the translators reject future
operators nested inside past ones, and the paper's normal forms never need
them).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.core.classes import TemporalClass
from repro.finitary.dfa import random_dfa
from repro.finitary.language import FinitaryLanguage
from repro.finitary.nfa import NFA
from repro.logic.ast import (
    FALSE,
    TRUE,
    Always,
    And,
    Eventually,
    Formula,
    Historically,
    Next,
    Not,
    Once,
    Or,
    Previous,
    Prop,
    Release,
    Since,
    Unless,
    Until,
    WeakPrevious,
)
from repro.omega.acceptance import Acceptance
from repro.omega.automaton import DetAutomaton
from repro.words.alphabet import Alphabet
from repro.words.lasso import LassoWord


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    """Size bounds shared by every generator (small by design)."""

    letters: str = "ab"
    max_depth: int = 3
    max_states: int = 5
    max_pairs: int = 2
    max_stem: int = 3
    max_loop: int = 3
    lasso_samples: int = 8

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet.from_letters(self.letters)

    @property
    def propositions(self) -> tuple[str, ...]:
        return tuple(self.letters)


def coerce_rng(rng: random.Random | int | None) -> random.Random:
    """Accept a ``Random``, an integer seed, or ``None`` (seed 0)."""
    if isinstance(rng, random.Random):
        return rng
    return random.Random(0 if rng is None else rng)


def derive_rng(seed: int, *parts: object) -> random.Random:
    """A ``Random`` derived from ``seed`` and a structured key, not a stream.

    Sequential generators (one ``Random(seed)`` shared by a whole run) make
    every draw depend on every earlier draw — fine in one process, but fatal
    the moment generation fans out over a worker pool: under the ``spawn``
    start method each worker would reseed from scratch (or worse, from a
    per-worker offset), so the generated family depends on the platform's
    start method and on how tasks happened to be partitioned.

    Deriving one ``Random`` per generated object from ``(seed, *parts)``
    — e.g. ``derive_rng(1990, "mixed", 17)`` for the 17th mixed-family
    formula — removes the order dependence entirely: the i-th formula of a
    family is the same under ``fork``, ``spawn``, serial generation, or any
    worker partition.  String seeding hashes with SHA-512 internally, so the
    derivation is stable across platforms and ``PYTHONHASHSEED`` values.
    """
    key = ":".join(str(part) for part in (seed, *parts))
    return random.Random(key)


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------


def random_lasso(
    rng: random.Random,
    alphabet: Alphabet,
    max_stem: int = 3,
    max_loop: int = 3,
) -> LassoWord:
    """A random ultimately-periodic word ``u · v^ω`` within the size bounds."""
    symbols = list(alphabet)
    stem = [rng.choice(symbols) for _ in range(rng.randrange(0, max_stem + 1))]
    loop = [rng.choice(symbols) for _ in range(rng.randrange(1, max_loop + 1))]
    return LassoWord(stem, loop)


def random_lasso_sample(
    rng: random.Random, config: GeneratorConfig
) -> tuple[LassoWord, ...]:
    """A deduplicated sample of lasso words used as a membership probe."""
    sample: dict[LassoWord, None] = {}
    for _ in range(config.lasso_samples):
        sample[random_lasso(rng, config.alphabet, config.max_stem, config.max_loop)] = None
    return tuple(sample)


# ---------------------------------------------------------------------------
# Formulae
# ---------------------------------------------------------------------------

_PAST_UNARY = (Previous, WeakPrevious, Once, Historically)
_FUTURE_UNARY = (Next, Eventually, Always)
_FUTURE_BINARY = (Until, Unless, Release)


def _random_atom(rng: random.Random, props: Sequence[str]) -> Formula:
    choice = rng.randrange(len(props) + 2)
    if choice < len(props):
        return Prop(props[choice])
    return TRUE if choice == len(props) else FALSE


def random_past_formula(
    rng: random.Random, props: Sequence[str], depth: int
) -> Formula:
    """A random pure-past formula (atoms, boolean operators, Y/Z/S/O/H)."""
    if depth <= 0:
        return _random_atom(rng, props)
    kind = rng.randrange(8)
    if kind < 2:
        return _random_atom(rng, props)
    if kind == 2:
        return Not(random_past_formula(rng, props, depth - 1))
    if kind == 3:
        return And(
            (
                random_past_formula(rng, props, depth - 1),
                random_past_formula(rng, props, depth - 1),
            )
        )
    if kind == 4:
        return Or(
            (
                random_past_formula(rng, props, depth - 1),
                random_past_formula(rng, props, depth - 1),
            )
        )
    if kind == 5:
        return Since(
            random_past_formula(rng, props, depth - 1),
            random_past_formula(rng, props, depth - 1),
        )
    op = rng.choice(_PAST_UNARY)
    return op(random_past_formula(rng, props, depth - 1))


def random_formula(
    rng: random.Random,
    props: Sequence[str],
    depth: int,
    *,
    past_probability: float = 0.25,
) -> Formula:
    """A random LTL+Past formula inside the supported fragment.

    With probability ``past_probability`` a node dives into the pure-past
    sub-grammar (after which no future operator appears below it), so the
    output never nests future operators inside past ones.
    """
    if depth <= 0:
        return _random_atom(rng, props)
    if past_probability and rng.random() < past_probability:
        return random_past_formula(rng, props, depth)
    kind = rng.randrange(9)
    if kind < 2:
        return _random_atom(rng, props)
    if kind == 2:
        return Not(random_formula(rng, props, depth - 1, past_probability=past_probability))
    if kind == 3:
        return And(
            (
                random_formula(rng, props, depth - 1, past_probability=past_probability),
                random_formula(rng, props, depth - 1, past_probability=past_probability),
            )
        )
    if kind == 4:
        return Or(
            (
                random_formula(rng, props, depth - 1, past_probability=past_probability),
                random_formula(rng, props, depth - 1, past_probability=past_probability),
            )
        )
    if kind == 5:
        op = rng.choice(_FUTURE_BINARY)
        return op(
            random_formula(rng, props, depth - 1, past_probability=past_probability),
            random_formula(rng, props, depth - 1, past_probability=past_probability),
        )
    op = rng.choice(_FUTURE_UNARY)
    return op(random_formula(rng, props, depth - 1, past_probability=past_probability))


def random_normal_form_formula(
    rng: random.Random,
    props: Sequence[str],
    temporal_class: TemporalClass,
    *,
    depth: int = 2,
    max_conjuncts: int = 2,
) -> Formula:
    """A random formula in the κ-normal form of the given class (§4).

    Safety ``□p``, guarantee ``◇p``, obligation ``⋀(□pᵢ ∨ ◇qᵢ)``,
    recurrence ``□◇p``, persistence ``◇□p``, reactivity
    ``⋀(□◇pᵢ ∨ ◇□qᵢ)`` — all bodies pure-past.
    """
    past = lambda: random_past_formula(rng, props, depth)
    if temporal_class is TemporalClass.SAFETY:
        return Always(past())
    if temporal_class is TemporalClass.GUARANTEE:
        return Eventually(past())
    if temporal_class is TemporalClass.RECURRENCE:
        return Always(Eventually(past()))
    if temporal_class is TemporalClass.PERSISTENCE:
        return Eventually(Always(past()))
    if temporal_class is TemporalClass.OBLIGATION:
        conjuncts = tuple(
            Or((Always(past()), Eventually(past())))
            for _ in range(rng.randrange(1, max_conjuncts + 1))
        )
        return conjuncts[0] if len(conjuncts) == 1 else And(conjuncts)
    conjuncts = tuple(
        Or((Always(Eventually(past())), Eventually(Always(past()))))
        for _ in range(rng.randrange(1, max_conjuncts + 1))
    )
    return conjuncts[0] if len(conjuncts) == 1 else And(conjuncts)


#: The formula shapes :func:`repro.logic.rewrite.normalize` rewrites.
NORMALIZABLE_SHAPES = ("negation", "response", "response-or-global", "precedence")


def random_normalizable_formula(
    rng: random.Random, props: Sequence[str], shape: str
) -> Formula:
    """A random formula of one of :data:`NORMALIZABLE_SHAPES`, over random
    pure-past bodies: a negated simple reactivity or simple obligation
    formula (``¬□◇a ∨ ◇□b``, ``¬(□a ∧ ◇b)``, …), response ``□(A ∨ ◇b)``,
    response-or-global ``□(A ∨ ◇b ∨ □c)`` or precedence ``□(A ∨ x W y)``.
    """
    past = lambda: random_past_formula(rng, props, 2)
    if shape == "response":
        return Always(Or((past(), Eventually(past()))))
    if shape == "response-or-global":
        return Always(Or((past(), Eventually(past()), Always(past()))))
    if shape == "precedence":
        return Always(Or((past(), Unless(past(), past()))))
    if shape != "negation":
        raise ValueError(f"unknown normalizable shape {shape!r}")
    if rng.random() < 0.5:
        first, second = (
            lambda body: Always(Eventually(body)),
            lambda body: Eventually(Always(body)),
        )
    else:
        first, second = Always, Eventually
    if rng.random() < 0.5:
        first, second = second, first
    if rng.random() < 0.5:
        return Or((Not(first(past())), second(past())))
    return Not(And((first(past()), second(past()))))


# ---------------------------------------------------------------------------
# Finitary automata
# ---------------------------------------------------------------------------


def random_language(
    rng: random.Random, alphabet: Alphabet, max_states: int = 5
) -> FinitaryLanguage:
    """A random finitary property ``Φ ⊆ Σ⁺`` (minimized, empty word dropped)."""
    return FinitaryLanguage(random_dfa(alphabet, rng.randrange(2, max_states + 1), rng))


def random_nfa(
    rng: random.Random,
    alphabet: Alphabet,
    num_states: int,
    *,
    density: float = 0.35,
    epsilon_density: float = 0.1,
) -> NFA:
    """A random NFA with ε-moves; at least one transition per (state, symbol)
    frontier is not guaranteed, so determinization exercises the ∅-trap."""
    transitions: dict[tuple[int, object], set[int]] = {}
    for state in range(num_states):
        for symbol in alphabet:
            targets = {t for t in range(num_states) if rng.random() < density}
            if targets:
                transitions[(state, symbol)] = targets
    epsilon = {
        state: targets
        for state in range(num_states)
        if (targets := {t for t in range(num_states) if t != state and rng.random() < epsilon_density})
    }
    initials = [rng.randrange(num_states)]
    accepting = [s for s in range(num_states) if rng.random() < 0.4]
    return NFA(alphabet, num_states, transitions, initials, accepting, epsilon)


# ---------------------------------------------------------------------------
# Deterministic ω-automata
# ---------------------------------------------------------------------------


def random_det_automaton(
    rng: random.Random,
    alphabet: Alphabet,
    max_states: int = 5,
    max_pairs: int = 2,
) -> DetAutomaton:
    """A random complete deterministic Streett/Rabin/Büchi/co-Büchi automaton."""
    n = rng.randrange(1, max_states + 1)
    rows = [[rng.randrange(n) for _ in alphabet] for _ in range(n)]
    subset = lambda: [s for s in range(n) if rng.random() < 0.5]
    kind = rng.choice(("buchi", "cobuchi", "streett", "rabin"))
    if kind == "buchi":
        acceptance = Acceptance.buchi(subset())
    elif kind == "cobuchi":
        acceptance = Acceptance.cobuchi(subset())
    elif kind == "streett":
        acceptance = Acceptance.streett(
            [(subset(), subset()) for _ in range(rng.randrange(1, max_pairs + 1))]
        )
    else:
        acceptance = Acceptance.rabin(
            [(subset(), subset()) for _ in range(rng.randrange(1, max_pairs + 1))]
        )
    return DetAutomaton(alphabet, rows, 0, acceptance)


def random_nba(
    rng: random.Random,
    alphabet: Alphabet,
    max_states: int = 8,
    *,
    density: float = 0.45,
):
    """A random nondeterministic Büchi automaton (sparse relation).

    Sparse on purpose: missing (state, symbol) rows exercise the dead-branch
    handling of both Safra routes, and low densities keep the deterministic
    blowup bounded for differential runs.
    """
    from repro.omega.buchi import NBA

    n = rng.randrange(1, max_states + 1)
    transitions: dict[tuple[int, object], frozenset[int]] = {}
    for state in range(n):
        for symbol in alphabet:
            targets = frozenset(t for t in range(n) if rng.random() < density)
            if targets:
                transitions[(state, symbol)] = targets
    accepting = [q for q in range(n) if rng.random() < 0.5]
    return NBA(alphabet, n, transitions, [rng.randrange(n)], accepting)
