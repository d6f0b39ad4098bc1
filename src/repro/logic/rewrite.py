"""Negation normal form and basic simplification of LTL+Past formulae."""

from __future__ import annotations

from repro.logic.ast import (
    FALSE,
    TRUE,
    Always,
    And,
    Eventually,
    FalseConst,
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
    TrueConst,
    Unless,
    Until,
    WeakPrevious,
)


def negate(formula: Formula) -> Formula:
    """``¬formula`` pushed one level (used by :func:`nnf`)."""
    if isinstance(formula, TrueConst):
        return FALSE
    if isinstance(formula, FalseConst):
        return TRUE
    if isinstance(formula, Not):
        return formula.operand
    return Not(formula)


def nnf(formula: Formula) -> Formula:
    """Negation normal form: negations apply only to propositions.

    Dualities used (all standard; past duals via the *trigger* identity
    ``¬(p S q) = H¬q ∨ (¬q S (¬p ∧ ¬q))``):

    * ``¬Xp = X¬p`` (ω-words have a next position everywhere),
    * ``¬(pUq) = ¬q W (¬p ∧ ¬q)``, ``¬(pWq) = ¬q U (¬p ∧ ¬q)``,
    * ``¬(pRq) = ¬p U ¬q``, ``¬Fp = G¬p``, ``¬Gp = F¬p``,
    * ``¬Yp = Z¬p``, ``¬Zp = Y¬p``, ``¬Op = H¬p``, ``¬Hp = O¬p``.
    """
    return _nnf(formula, negated=False)


def _nnf(formula: Formula, *, negated: bool) -> Formula:
    if isinstance(formula, Not):
        return _nnf(formula.operand, negated=not negated)
    if isinstance(formula, TrueConst):
        return FALSE if negated else TRUE
    if isinstance(formula, FalseConst):
        return TRUE if negated else FALSE
    if isinstance(formula, Prop):
        return Not(formula) if negated else formula
    if isinstance(formula, And):
        parts = tuple(_nnf(op, negated=negated) for op in formula.operands)
        return Or(parts) if negated else And(parts)
    if isinstance(formula, Or):
        parts = tuple(_nnf(op, negated=negated) for op in formula.operands)
        return And(parts) if negated else Or(parts)
    if isinstance(formula, Next):
        return Next(_nnf(formula.operand, negated=negated))
    if isinstance(formula, Eventually):
        inner = _nnf(formula.operand, negated=negated)
        return Always(inner) if negated else Eventually(inner)
    if isinstance(formula, Always):
        inner = _nnf(formula.operand, negated=negated)
        return Eventually(inner) if negated else Always(inner)
    if isinstance(formula, Until):
        left = _nnf(formula.left, negated=negated)
        right = _nnf(formula.right, negated=negated)
        if negated:
            return Unless(right, And((left, right)))
        return Until(left, right)
    if isinstance(formula, Unless):
        left = _nnf(formula.left, negated=negated)
        right = _nnf(formula.right, negated=negated)
        if negated:
            return Until(right, And((left, right)))
        return Unless(left, right)
    if isinstance(formula, Release):
        left = _nnf(formula.left, negated=negated)
        right = _nnf(formula.right, negated=negated)
        if negated:
            return Until(left, right)
        return Release(left, right)
    if isinstance(formula, Previous):
        inner = _nnf(formula.operand, negated=negated)
        return WeakPrevious(inner) if negated else Previous(inner)
    if isinstance(formula, WeakPrevious):
        inner = _nnf(formula.operand, negated=negated)
        return Previous(inner) if negated else WeakPrevious(inner)
    if isinstance(formula, Once):
        inner = _nnf(formula.operand, negated=negated)
        return Historically(inner) if negated else Once(inner)
    if isinstance(formula, Historically):
        inner = _nnf(formula.operand, negated=negated)
        return Once(inner) if negated else Historically(inner)
    if isinstance(formula, Since):
        left = _nnf(formula.left, negated=negated)
        right = _nnf(formula.right, negated=negated)
        if negated:
            # trigger identity: ¬(p S q) = H ¬q ∨ (¬q S (¬p ∧ ¬q))
            return Or((Historically(right), Since(right, And((left, right)))))
        return Since(left, right)
    raise TypeError(f"unknown formula node {type(formula).__name__}")


def simplify(formula: Formula) -> Formula:
    """Cheap constant folding, flattening and deduplication (not semantic
    minimization — just enough to keep tableaux small and output readable)."""
    if isinstance(formula, (Prop, TrueConst, FalseConst)):
        return formula
    if isinstance(formula, Not):
        inner = simplify(formula.operand)
        if isinstance(inner, TrueConst):
            return FALSE
        if isinstance(inner, FalseConst):
            return TRUE
        if isinstance(inner, Not):
            return inner.operand
        return Not(inner)
    if isinstance(formula, (And, Or)):
        is_and = isinstance(formula, And)
        absorbing, neutral = (FalseConst, TrueConst) if is_and else (TrueConst, FalseConst)
        flattened: list[Formula] = []
        for operand in formula.operands:
            part = simplify(operand)
            if isinstance(part, absorbing):
                return FALSE if is_and else TRUE
            if isinstance(part, neutral):
                continue
            nested = part.operands if isinstance(part, type(formula)) else (part,)
            for piece in nested:
                if piece not in flattened:
                    flattened.append(piece)
        if not flattened:
            return TRUE if is_and else FALSE
        if len(flattened) == 1:
            return flattened[0]
        return And(tuple(flattened)) if is_and else Or(tuple(flattened))
    if isinstance(formula, (Next, Eventually, Always, Previous, WeakPrevious, Once, Historically)):
        inner = simplify(formula.operand)
        if isinstance(formula, (Eventually, Always)) and isinstance(inner, (TrueConst, FalseConst)):
            return inner
        if isinstance(formula, (Eventually, Always)) and type(formula) is type(inner):
            return inner  # FF = F, GG = G
        return type(formula)(inner)
    if isinstance(formula, (Until, Unless, Release, Since)):
        left, right = simplify(formula.left), simplify(formula.right)
        if isinstance(formula, Until):
            if isinstance(right, TrueConst):
                return TRUE
            if isinstance(right, FalseConst):
                return FALSE
            if isinstance(left, TrueConst):
                return simplify(Eventually(right))
        if isinstance(formula, Unless) and isinstance(left, TrueConst):
            return TRUE
        return type(formula)(left, right)
    raise TypeError(f"unknown formula node {type(formula).__name__}")


# ---------------------------------------------------------------------------
# Rewriting toward §4's normal forms
# ---------------------------------------------------------------------------

#: The laws :func:`normalize` applies, by the name it reports for each.
LAW_NEGATION = "negation law ¬□◇p ≡ ◇□¬p, ¬◇□p ≡ □◇¬p, ¬□p ≡ ◇¬p, ¬◇p ≡ □¬p"
LAW_RESPONSE = "response law □(A ∨ ◇b) ≡ □◇¬(¬b S (¬A ∧ ¬b))"
LAW_RESPONSE_OR_GLOBAL = (
    "response-or-global law □(A ∨ ◇b ∨ □c) ≡ □◇¬(¬b S (¬b ∧ ¬c ∧ (¬b S (¬A ∧ ¬b))))"
)
LAW_PRECEDENCE = "precedence law □(A ∨ x W y) ≡ □¬(¬x ∧ ¬y ∧ (¬y S (¬A ∧ ¬y)))"


def normalize(formula: Formula, applied: list[str] | None = None) -> Formula:
    """Rewrite ``formula`` toward §4's normal forms, whose bodies are past.

    Through the top-level ``∧``/``∨`` structure, negation is pushed through
    ``□◇``, ``◇□``, ``□`` and ``◇``, and three laws turn ``□`` of a
    disjunction of past formulas ``A``, ``◇b``, ``□c`` and ``x W y`` into a
    normal form: response ``□(A ∨ ◇b)`` and response-or-global
    ``□(A ∨ ◇b ∨ □c)`` become recurrence formulas, precedence
    ``□(A ∨ x W y)`` becomes a safety formula (proofs in docs/THEORY.md).
    Below the top-level structure nothing changes.  Every law used is named
    once in ``applied`` when it is given; when none applies, ``formula``
    itself is returned.
    """
    laws: list[str] = []
    normal = _normal(formula, False, laws)
    if applied is not None:
        applied.extend(law for law in laws if law not in applied)
    return normal if laws else formula


def _normal(formula: Formula, negated: bool, applied: list[str]) -> Formula:
    if isinstance(formula, Not):
        return _normal(formula.operand, not negated, applied)
    if isinstance(formula, (And, Or)):
        node = Or if isinstance(formula, And) == negated else And
        parts: list[Formula] = []
        for operand in formula.operands:
            part = _normal(operand, negated, applied)
            parts.extend(part.operands if isinstance(part, node) else (part,))
        return node(tuple(parts))
    if isinstance(formula, Always):
        formula = _always_law(formula, applied)
    if not negated:
        return formula
    dual = _negated_dual(formula)
    if dual is None:
        return Not(formula)
    _note(applied, LAW_NEGATION)
    return dual


def _note(applied: list[str], law: str) -> None:
    if law not in applied:
        applied.append(law)


def _negated_dual(formula: Formula) -> Formula | None:
    """``¬formula`` with the negation moved inside its ``□``/``◇`` prefix."""
    if isinstance(formula, Always):
        inner = formula.operand
        if isinstance(inner, Eventually):
            return Eventually(Always(negate(inner.operand)))
        return Eventually(negate(inner))
    if isinstance(formula, Eventually):
        inner = formula.operand
        if isinstance(inner, Always):
            return Always(Eventually(negate(inner.operand)))
        return Always(negate(inner))
    return None


def _conjoin(parts: list[Formula]) -> Formula:
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def _disjoin(parts: list[Formula]) -> Formula:
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def _disjuncts(formula: Formula) -> list[Formula]:
    if not isinstance(formula, Or):
        return [formula]
    return [part for operand in formula.operands for part in _disjuncts(operand)]


def _always_law(formula: Always, applied: list[str]) -> Formula:
    """The response, response-or-global or precedence law on ``□body``,
    or ``formula`` itself when its body has none of their shapes."""
    body = formula.operand
    if body.is_past_formula() or (
        isinstance(body, Eventually) and body.operand.is_past_formula()
    ):
        return formula  # already the safety or recurrence normal form
    past: list[Formula] = []
    eventual: list[Formula] = []
    globally: list[Formula] = []
    weak: list[Unless] = []
    for disjunct in _disjuncts(body):
        if disjunct.is_past_formula():
            past.append(disjunct)
        elif isinstance(disjunct, (Eventually, Always)) and disjunct.operand.is_past_formula():
            (eventual if isinstance(disjunct, Eventually) else globally).append(disjunct.operand)
        elif (
            isinstance(disjunct, Unless)
            and disjunct.left.is_past_formula()
            and disjunct.right.is_past_formula()
        ):
            weak.append(disjunct)
        else:
            return formula
    not_a = [negate(part) for part in past]
    if eventual and not weak and len(globally) <= 1:
        # ◇b₁ ∨ ◇b₂ ≡ ◇(b₁ ∨ b₂) at every position.
        not_b = negate(_disjoin(eventual))
        pending = Since(not_b, _conjoin(not_a + [not_b]))
        if globally:
            _note(applied, LAW_RESPONSE_OR_GLOBAL)
            pending = Since(not_b, And((not_b, negate(globally[0]), pending)))
        else:
            _note(applied, LAW_RESPONSE)
        return Always(Eventually(negate(pending)))
    if len(weak) == 1 and not eventual and not globally:
        _note(applied, LAW_PRECEDENCE)
        not_y = negate(weak[0].right)
        violated = And((negate(weak[0].left), not_y, Since(not_y, _conjoin(not_a + [not_y]))))
        return Always(negate(violated))
    return formula
