"""The six classes of the safety–progress hierarchy and their lattice.

Figure 1 of the paper: safety and guarantee sit at the bottom (incomparable),
obligation above both, recurrence and persistence above obligation
(incomparable), reactivity on top.  Complementation exchanges
safety↔guarantee and recurrence↔persistence and fixes obligation and
reactivity.  The Borel/first-order names: safety ``Π₁`` (closed, F),
guarantee ``Σ₁`` (open, G), obligation ``Δ₂ = Π₂ ∩ Σ₂``, recurrence ``Π₂``
(G_δ), persistence ``Σ₂`` (F_σ), reactivity ``Δ₃``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class TemporalClass(Enum):
    SAFETY = "safety"
    GUARANTEE = "guarantee"
    OBLIGATION = "obligation"
    RECURRENCE = "recurrence"
    PERSISTENCE = "persistence"
    REACTIVITY = "reactivity"

    # ----------------------------------------------------------- the lattice

    def includes(self, other: TemporalClass) -> bool:
        """Class inclusion: does every ``other``-property belong to ``self``?"""
        return other in _DOWNSETS[self]

    def strictly_includes(self, other: TemporalClass) -> bool:
        return self is not other and self.includes(other)

    def join(self, other: TemporalClass) -> TemporalClass:
        """Least class containing both (exists — Figure 1 is a lattice)."""
        candidates = [c for c in TemporalClass if c.includes(self) and c.includes(other)]
        return min(candidates, key=lambda c: len(_DOWNSETS[c]))

    def meet(self, other: TemporalClass) -> TemporalClass | None:
        """Greatest class contained in both, or ``None`` — Figure 1 has no
        bottom element (safety ∧ guarantee = the clopen properties, which is
        not one of the six classes)."""
        candidates = [c for c in TemporalClass if self.includes(c) and other.includes(c)]
        if not candidates:
            return None
        return max(candidates, key=lambda c: len(_DOWNSETS[c]))

    def dual(self) -> TemporalClass:
        """The class of complements of this class's properties."""
        return _DUALS[self]

    @property
    def borel_name(self) -> str:
        return _BOREL_NAMES[self]

    @property
    def topological_name(self) -> str:
        return _TOPOLOGICAL_NAMES[self]

    @property
    def formula_shape(self) -> str:
        """The temporal normal form characterizing the class (§4)."""
        return _FORMULA_SHAPES[self]

    def __repr__(self) -> str:
        return f"TemporalClass.{self.name}"


_DOWNSETS: dict[TemporalClass, frozenset[TemporalClass]] = {
    TemporalClass.SAFETY: frozenset({TemporalClass.SAFETY}),
    TemporalClass.GUARANTEE: frozenset({TemporalClass.GUARANTEE}),
    TemporalClass.OBLIGATION: frozenset(
        {TemporalClass.SAFETY, TemporalClass.GUARANTEE, TemporalClass.OBLIGATION}
    ),
    TemporalClass.RECURRENCE: frozenset(
        {
            TemporalClass.SAFETY,
            TemporalClass.GUARANTEE,
            TemporalClass.OBLIGATION,
            TemporalClass.RECURRENCE,
        }
    ),
    TemporalClass.PERSISTENCE: frozenset(
        {
            TemporalClass.SAFETY,
            TemporalClass.GUARANTEE,
            TemporalClass.OBLIGATION,
            TemporalClass.PERSISTENCE,
        }
    ),
    TemporalClass.REACTIVITY: frozenset(set(TemporalClass)),
}

_DUALS = {
    TemporalClass.SAFETY: TemporalClass.GUARANTEE,
    TemporalClass.GUARANTEE: TemporalClass.SAFETY,
    TemporalClass.OBLIGATION: TemporalClass.OBLIGATION,
    TemporalClass.RECURRENCE: TemporalClass.PERSISTENCE,
    TemporalClass.PERSISTENCE: TemporalClass.RECURRENCE,
    TemporalClass.REACTIVITY: TemporalClass.REACTIVITY,
}

_BOREL_NAMES = {
    TemporalClass.SAFETY: "Π₁",
    TemporalClass.GUARANTEE: "Σ₁",
    TemporalClass.OBLIGATION: "Δ₂",
    TemporalClass.RECURRENCE: "Π₂",
    TemporalClass.PERSISTENCE: "Σ₂",
    TemporalClass.REACTIVITY: "Δ₃",
}

_TOPOLOGICAL_NAMES = {
    TemporalClass.SAFETY: "closed (F)",
    TemporalClass.GUARANTEE: "open (G)",
    TemporalClass.OBLIGATION: "boolean combinations of closed sets",
    TemporalClass.RECURRENCE: "G_δ",
    TemporalClass.PERSISTENCE: "F_σ",
    TemporalClass.REACTIVITY: "boolean combinations of G_δ sets",
}

_FORMULA_SHAPES = {
    TemporalClass.SAFETY: "□p",
    TemporalClass.GUARANTEE: "◇p",
    TemporalClass.OBLIGATION: "⋀ᵢ (□pᵢ ∨ ◇qᵢ)",
    TemporalClass.RECURRENCE: "□◇p",
    TemporalClass.PERSISTENCE: "◇□p",
    TemporalClass.REACTIVITY: "⋀ᵢ (□◇pᵢ ∨ ◇□qᵢ)",
}

#: The covering edges of Figure 1, bottom to top.
FIGURE_1_EDGES: tuple[tuple[TemporalClass, TemporalClass], ...] = (
    (TemporalClass.SAFETY, TemporalClass.OBLIGATION),
    (TemporalClass.GUARANTEE, TemporalClass.OBLIGATION),
    (TemporalClass.OBLIGATION, TemporalClass.RECURRENCE),
    (TemporalClass.OBLIGATION, TemporalClass.PERSISTENCE),
    (TemporalClass.RECURRENCE, TemporalClass.REACTIVITY),
    (TemporalClass.PERSISTENCE, TemporalClass.REACTIVITY),
)


@dataclass(frozen=True, slots=True)
class Verdict:
    """The full classification result for one property.

    ``membership[c]`` says whether the property belongs to class ``c``;
    ``lowest`` is the set of minimal classes containing it (a clopen property
    is minimal in both safety and guarantee); ``canonical`` is a single
    representative of ``lowest`` (safety preferred, then guarantee, then up
    the hierarchy); the liveness flags record the orthogonal
    safety–liveness classification.

    Wagner's measures come with the classes when
    :func:`repro.omega.classify.classify` decides them: ``streett_index``
    and ``rabin_index`` (the minimal number of Streett resp. Rabin pairs
    any deterministic automaton for the property needs) and
    ``obligation_degree`` (the minimal ``k`` with the property in
    ``Obl_k``, ``None`` for a non-obligation property).  A hand-built
    verdict leaves all three ``None``.
    """

    membership: dict[TemporalClass, bool] = field(hash=False)
    is_liveness: bool = False
    streett_index: int | None = None
    rabin_index: int | None = None
    obligation_degree: int | None = None

    def __post_init__(self) -> None:
        if not self.membership.get(TemporalClass.REACTIVITY, False):
            raise ValueError("every ω-regular property is a reactivity property")

    @property
    def lowest(self) -> frozenset[TemporalClass]:
        held = [c for c in TemporalClass if self.membership[c]]
        return frozenset(
            c for c in held if not any(o is not c and c.strictly_includes(o) for o in held)
        )

    @property
    def canonical(self) -> TemporalClass:
        order = [
            TemporalClass.SAFETY,
            TemporalClass.GUARANTEE,
            TemporalClass.OBLIGATION,
            TemporalClass.RECURRENCE,
            TemporalClass.PERSISTENCE,
            TemporalClass.REACTIVITY,
        ]
        return next(c for c in order if c in self.lowest)

    def __repr__(self) -> str:
        low = "+".join(sorted(c.value for c in self.lowest))
        live = ", liveness" if self.is_liveness else ""
        return f"Verdict({low}{live})"
