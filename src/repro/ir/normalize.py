"""Normalization passes: calculus formula → :class:`QueryPlan`.

Four passes, recorded per plan as ``(rule, count)`` pairs:

1. **simplify** — NNF-style cleanup: double negations eliminated and
   vacuous ``∃`` quantifiers dropped (the truncation domain always
   contains ``ε``, so ``∃y.φ`` with ``y`` not free in ``φ`` is ``φ``).
2. **split** — De Morgan disjunct extraction: the paper encodes
   ``φ ∨ ψ`` as ``¬(¬φ ∧ ¬ψ)``, which the planner used to reject
   wholesale; splitting recovers the disjuncts (distributing ``∧`` and
   ``∃`` over them) so each becomes its own conjunctive branch.
   Distribution is gated by :data:`MAX_BRANCHES` against the DNF
   blowup.
3. **hoist** — quantifier mini-scoping: nested ``∃`` blocks inside a
   branch are flattened into one planner-shaped prefix, renaming bound
   variables capture-avoidingly where scopes collide.
4. **order** — conjunct reordering: the branch's literals become
   :class:`~repro.ir.plan.PlanStep`\\ s ordered greedily by the
   :class:`~repro.ir.cost.CostModel` (cheapest next step first,
   deterministic tie-breaks).

Any branch the passes cannot shape degrades the whole plan to a
:class:`~repro.ir.plan.NaivePlan` with a stable reason string —
normalization never raises and never changes answers.  So does a
relation the formula names that holds a string outside the query
alphabet's ``Σ^{<=cap}`` (``data-outside-domain``): a join would bind
that string, while the truncation semantics ranges every variable over
``Σ^{<=cap}`` only.  At the certified bound this never fires for
length, because ``W_φ(db)`` covers every relation the formula names.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.syntax import (
    And,
    Exists,
    Formula,
    Not,
    RelAtom,
    StringAtom,
    Var,
    free_variables,
    fresh_variable,
    relation_names,
    rename_free,
    string_variables,
)
from repro.ir.cost import CostModel
from repro.ir.plan import (
    REASON_BRANCH_LIMIT,
    REASON_DATA_OUTSIDE_DOMAIN,
    REASON_UNBOUND_NEGATION,
    REASON_UNSUPPORTED_LITERAL,
    ConjunctivePlan,
    NaivePlan,
    PlanStep,
    QueryPlan,
    UnionPlan,
)

#: Cap on the number of conjunctive branches a plan may fan out into;
#: distribution past it falls back to the naive plan (``branch-limit``).
MAX_BRANCHES = 64


class _Rules:
    """A mutable rule-fire counter shared by the passes."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def fire(self, rule: str, times: int = 1) -> None:
        self.counts[rule] = self.counts.get(rule, 0) + times

    def snapshot(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self.counts.items()))


class _BranchLimit(Exception):
    """Raised internally when distribution exceeds MAX_BRANCHES."""


@dataclass(frozen=True)
class _Literal:
    """A literal of a conjunctive branch, before it becomes a step."""

    atom: Formula
    negated: bool

    def variables(self) -> frozenset[Var]:
        if isinstance(self.atom, RelAtom):
            return frozenset(self.atom.args)
        return string_variables(self.atom.formula)

    def sort_key(self) -> tuple[str, bool]:
        return (str(self.atom), self.negated)


# ---------------------------------------------------------------------------
# Pass 1: simplify
# ---------------------------------------------------------------------------


def simplify(formula: Formula, rules: _Rules | None = None) -> Formula:
    """Eliminate double negations and vacuous quantifiers.

    Answer-preserving under the truncation semantics for every
    database and bound; the naive strategy evaluates this form.
    """
    rules = rules if rules is not None else _Rules()
    if isinstance(formula, Not):
        inner = simplify(formula.inner, rules)
        if isinstance(inner, Not):
            rules.fire("simplify.double-negation")
            return inner.inner
        return Not(inner)
    if isinstance(formula, And):
        return And(
            simplify(formula.left, rules), simplify(formula.right, rules)
        )
    if isinstance(formula, Exists):
        inner = simplify(formula.inner, rules)
        if formula.var not in free_variables(inner):
            rules.fire("simplify.vacuous-exists")
            return inner
        return Exists(formula.var, inner)
    return formula


# ---------------------------------------------------------------------------
# Pass 2: split into disjuncts
# ---------------------------------------------------------------------------


def _negate(formula: Formula, rules: _Rules) -> Formula:
    if isinstance(formula, Not):
        rules.fire("simplify.double-negation")
        return formula.inner
    return Not(formula)


def _split(formula: Formula, rules: _Rules) -> list[Formula]:
    if isinstance(formula, Not):
        inner = formula.inner
        if isinstance(inner, And):
            # De Morgan: ¬(a ∧ b) = ¬a ∨ ¬b — this also uncovers the
            # paper's ∨ encoding ¬(¬φ ∧ ¬ψ).
            rules.fire("split.de-morgan")
            return _split(_negate(inner.left, rules), rules) + _split(
                _negate(inner.right, rules), rules
            )
        return [formula]
    if isinstance(formula, And):
        left = _split(formula.left, rules)
        right = _split(formula.right, rules)
        if len(left) * len(right) > MAX_BRANCHES:
            raise _BranchLimit
        if len(left) > 1 or len(right) > 1:
            rules.fire("split.distribute-and")
        return [And(l, r) for l in left for r in right]
    if isinstance(formula, Exists):
        parts = _split(formula.inner, rules)
        if len(parts) > 1:
            rules.fire("split.distribute-exists")
        out = []
        for part in parts:
            if formula.var in free_variables(part):
                out.append(Exists(formula.var, part))
            else:
                rules.fire("simplify.vacuous-exists")
                out.append(part)
        return out
    return [formula]


def split_disjuncts(formula: Formula) -> list[Formula] | None:
    """The disjunctive branches of ``formula``, or ``None`` past the cap.

    The input should already be simplified; the output formulae are
    pairwise ∨-composable: their union of truncation answers equals
    the input's answers.
    """
    try:
        return _split(formula, _Rules())
    except _BranchLimit:
        return None


# ---------------------------------------------------------------------------
# Pass 3: hoist quantifier prefixes
# ---------------------------------------------------------------------------


def _all_variables(formula: Formula) -> frozenset[Var]:
    if isinstance(formula, RelAtom):
        return frozenset(formula.args)
    if isinstance(formula, StringAtom):
        return string_variables(formula.formula)
    if isinstance(formula, And):
        return _all_variables(formula.left) | _all_variables(formula.right)
    if isinstance(formula, Not):
        return _all_variables(formula.inner)
    if isinstance(formula, Exists):
        return _all_variables(formula.inner) | {formula.var}
    raise TypeError(f"not a calculus formula: {formula!r}")


def _hoist(
    formula: Formula,
    used: set[Var],
    avoid: frozenset[Var],
    rules: _Rules,
) -> tuple[list[Var], Formula]:
    if isinstance(formula, Exists):
        var = formula.var
        inner = formula.inner
        if var in used:
            fresh = fresh_variable(var, frozenset(used) | avoid)
            inner = rename_free(inner, {var: fresh})
            rules.fire("hoist.rename")
            var = fresh
        used.add(var)
        rules.fire("hoist.exists")
        prefix, matrix = _hoist(inner, used, avoid, rules)
        return [var] + prefix, matrix
    if isinstance(formula, And):
        left_prefix, left_matrix = _hoist(formula.left, used, avoid, rules)
        right_prefix, right_matrix = _hoist(
            formula.right, used, avoid, rules
        )
        return left_prefix + right_prefix, And(left_matrix, right_matrix)
    return [], formula


def hoist_prefix(
    branch: Formula, head: tuple[Var, ...], rules: _Rules | None = None
) -> tuple[tuple[Var, ...], Formula]:
    """Flatten a branch's nested ``∃`` blocks into one prefix.

    ``∃x.φ ∧ ψ ≡ ∃x.(φ ∧ ψ)`` whenever ``x`` is not free in ``ψ``;
    bound variables whose names collide with the head, the branch's
    free variables or an already-hoisted binder are renamed to fresh
    names first, so the equivalence always applies.

    Returns:
        The ``(quantifier prefix, matrix)`` pair; the matrix contains
        no ``∃`` outside of negations.
    """
    rules = rules if rules is not None else _Rules()
    avoid = _all_variables(branch) | frozenset(head)
    used = set(free_variables(branch)) | set(head)
    prefix, matrix = _hoist(branch, used, avoid, rules)
    return tuple(prefix), matrix


# ---------------------------------------------------------------------------
# Pass 4: flatten + order conjuncts
# ---------------------------------------------------------------------------


def _flatten_literals(matrix: Formula) -> list[_Literal] | None:
    literals: list[_Literal] = []

    def walk(node: Formula) -> bool:
        if isinstance(node, And):
            return walk(node.left) and walk(node.right)
        if isinstance(node, (RelAtom, StringAtom)):
            literals.append(_Literal(node, False))
            return True
        if isinstance(node, Not) and isinstance(
            node.inner, (RelAtom, StringAtom)
        ):
            literals.append(_Literal(node.inner, True))
            return True
        return False

    if not walk(matrix):
        return None
    return literals


def order_steps(
    literals: list[_Literal], model: CostModel
) -> tuple[PlanStep, ...] | None:
    """Greedily order a branch's literals into executable steps.

    At each point the cheapest placeable literal is chosen: fully
    bound literals filter, positive relational atoms join, positive
    string atoms generate; negated literals with unbound variables are
    unplaceable.  Ties break on the literal's string rendering, so the
    ordering is deterministic.

    Returns:
        The step tuple, or ``None`` when the greedy loop gets stuck
        (a negation whose variables never become bound).
    """
    bound: set[Var] = set()
    pending = sorted(literals, key=_Literal.sort_key)
    steps: list[PlanStep] = []
    rows = 1.0
    while pending:
        best: tuple | None = None
        for index, literal in enumerate(pending):
            variables = literal.variables()
            unbound = variables - bound
            if not unbound:
                action = "filter"
                cost, rows_after = model.filter_estimate(rows)
            elif isinstance(literal.atom, RelAtom) and not literal.negated:
                action = "join"
                cost, rows_after = model.join_estimate(
                    rows,
                    literal.atom.name,
                    len(literal.atom.args),
                    tuple(
                        position
                        for position, arg in enumerate(literal.atom.args)
                        if arg in bound
                    ),
                )
            elif (
                isinstance(literal.atom, StringAtom) and not literal.negated
            ):
                action = "generate"
                cost, rows_after = model.generate_estimate(
                    rows, len(unbound)
                )
            else:
                continue
            key = (cost, rows_after, literal.sort_key())
            if best is None or key < best[0]:
                best = (key, index, literal, action, cost, rows_after)
        if best is None:
            return None
        _, index, literal, action, cost, rows_after = best
        pending.pop(index)
        newly = tuple(sorted(literal.variables() - bound))
        bound |= literal.variables()
        rows = rows_after
        steps.append(
            PlanStep(action, literal.atom, literal.negated, newly, rows, cost)
        )
    return tuple(steps)


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------


def _plan_branch(
    branch: Formula,
    head: tuple[Var, ...],
    model: CostModel,
    rules: _Rules,
) -> ConjunctivePlan | str:
    quantified, matrix = hoist_prefix(branch, head, rules)
    literals = _flatten_literals(matrix)
    if literals is None:
        return REASON_UNSUPPORTED_LITERAL
    steps = order_steps(literals, model)
    if steps is None:
        return REASON_UNBOUND_NEGATION
    branch_free = free_variables(branch)
    bound_head = tuple(v for v in head if v in branch_free)
    free_head = tuple(v for v in head if v not in branch_free)
    if len(literals) > 1:
        rules.fire("order.conjuncts")
    return ConjunctivePlan(quantified, steps, bound_head, free_head, branch)


def build_query_plan(
    formula: Formula, head: tuple[Var, ...], model: CostModel
) -> QueryPlan:
    """Normalize ``formula`` into a :class:`QueryPlan` under ``model``.

    Never raises: shapes the passes cannot make conjunctive, and
    formulae naming a relation that holds data outside the model's
    ``Σ^{<=cap}``, produce a :class:`NaivePlan` root carrying the
    rejection reason.  Pure in its arguments — engine sessions cache
    the result keyed by the formula, head, alphabet, database
    statistics signature and cap.
    """
    rules = _Rules()
    simplified = simplify(formula, rules)

    def naive(reason: str) -> QueryPlan:
        return QueryPlan(
            tuple(head),
            formula,
            simplified,
            NaivePlan(simplified, reason),
            rules.snapshot(),
        )

    if any(model.outside_domain(name) for name in relation_names(formula)):
        return naive(REASON_DATA_OUTSIDE_DOMAIN)
    try:
        branches = _split(simplified, rules)
    except _BranchLimit:
        return naive(REASON_BRANCH_LIMIT)
    planned: list[ConjunctivePlan] = []
    for branch in branches:
        outcome = _plan_branch(branch, tuple(head), model, rules)
        if isinstance(outcome, str):
            return naive(outcome)
        planned.append(outcome)
    if len(planned) > 1:
        root: ConjunctivePlan | UnionPlan = UnionPlan(tuple(planned))
    else:
        root = planned[0]
    return QueryPlan(
        tuple(head), formula, simplified, root, rules.snapshot()
    )
