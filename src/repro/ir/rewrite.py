"""The algebra expression rewriter: optimization passes over plans.

Four passes run in a fixed order, each a bottom-up traversal applied
to its own fixpoint:

1. **select pushdown** — ``σ_A`` moves through ``Union`` always and
   through ``Product`` when the machine provably ignores one factor's
   tapes (every transition reads ``⊢`` and stays there — the shape
   :func:`~repro.fsa.ops.widen` produces), narrowing the machine with
   :func:`~repro.fsa.ops.drop_tape`.
2. **select fusion** — stacked ``σ_A(σ_B(E))`` fuses into one
   selection by the sequencing product ``seq(A, B)``
   (:mod:`repro.fsa.product`); *generative fusion* additionally lifts
   a ``σ_A((Σ*)^k)`` product factor into the enclosing selection so
   the generator explores one constrained language instead of a cross
   product.
3. **projection pass** — stacked projections fuse, identity
   projections vanish, projections push through ``Union`` and through
   ``Product`` factors that can never be empty.
4. **select minimization** — selection machines are replaced by their
   bisimulation quotients when strictly smaller.

Fused and minimized machines come from the engine session's caches
(:meth:`repro.engine.QueryEngine.fused_select` and
:meth:`~repro.engine.QueryEngine.minimized_machine`).

Every rewrite preserves the truncation-evaluation answer set exactly;
the differential tests in ``tests/ir/`` hold the passes to that.

The module also hosts the *index-prefilter pushdown* pass over
normalized :class:`~repro.ir.plan.QueryPlan`\\ s:
:func:`required_factors` derives, from a selection machine's
transition graph, substrings every accepted value of one tape must
contain (its **mandatory factors**), and
:func:`attach_index_prefilters` pushes those factors down onto the
plan's join steps, where storage backends with n-gram
indexes (:mod:`repro.storage.ngram`) use them to shrink the scanned
row set before exact kernel acceptance.
"""

from __future__ import annotations

from dataclasses import replace

from repro.algebra.expressions import (
    Diff,
    Expression,
    Product,
    Project,
    Select,
    SigmaL,
    SigmaStar,
    Union,
)
from repro.core.alphabet import LEFT_END
from repro.core.syntax import RelAtom, StringAtom
from repro.fsa.machine import FSA, RIGHT_MOVE, STAY, register_kernel_stash
from repro.fsa.ops import drop_tape, widen
from repro.fsa.product import fusion_supported
from repro.ir.plan import ConjunctivePlan, QueryPlan, UnionPlan

#: Safety cap on whole-pass fixpoint iterations.
MAX_PASS_ROUNDS = 16


class RewriteContext:
    """Carries the engine session and the rule-fire counts."""

    def __init__(self, session) -> None:
        self.session = session
        self.counts: dict[str, int] = {}

    def fire(self, rule: str) -> None:
        """Record one firing of ``rule``."""
        self.counts[rule] = self.counts.get(rule, 0) + 1

    def snapshot(self) -> tuple[tuple[str, int], ...]:
        """The ``(rule, count)`` pairs, sorted by rule name."""
        return tuple(sorted(self.counts.items()))


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------


def _ignored_tapes(machine: FSA) -> frozenset[int]:
    """Tapes the machine never reads: always ``⊢`` with a stay move."""
    ignored = set(range(machine.arity))
    for transition in machine.transitions:
        for tape in tuple(ignored):
            if (
                transition.reads[tape] != LEFT_END
                or transition.moves[tape] != STAY
            ):
                ignored.discard(tape)
    return frozenset(ignored)


def _drop_tapes(machine: FSA, tapes: frozenset[int]) -> FSA:
    for tape in sorted(tapes, reverse=True):
        machine = drop_tape(machine, tape)
    return machine


def _all_sigma(expression: Expression) -> bool:
    """Is the expression a (product of) domain symbol(s) only?"""
    if isinstance(expression, (SigmaStar, SigmaL)):
        return True
    if isinstance(expression, Product):
        return _all_sigma(expression.left) and _all_sigma(expression.right)
    return False


def _never_empty(expression: Expression) -> bool:
    """Conservatively: can the expression never evaluate to ∅?

    Domain symbols always contain ``ε``; products of never-empty
    factors are never empty.  Everything else counts as possibly
    empty.
    """
    return _all_sigma(expression)


def _product_factors(expression: Expression) -> list[Expression]:
    if isinstance(expression, Product):
        return _product_factors(expression.left) + _product_factors(
            expression.right
        )
    return [expression]


def _reproduct(factors: list[Expression]) -> Expression:
    result = factors[0]
    for factor in factors[1:]:
        result = Product(result, factor)
    return result


def _map_children(expression: Expression, fn) -> Expression:
    if isinstance(expression, Union):
        return Union(fn(expression.left), fn(expression.right))
    if isinstance(expression, Diff):
        return Diff(fn(expression.left), fn(expression.right))
    if isinstance(expression, Product):
        return Product(fn(expression.left), fn(expression.right))
    if isinstance(expression, Project):
        return Project(fn(expression.inner), expression.columns)
    if isinstance(expression, Select):
        return Select(fn(expression.inner), expression.machine)
    return expression


def _bottom_up(expression: Expression, rule, context: RewriteContext):
    rewritten = _map_children(
        expression, lambda child: _bottom_up(child, rule, context)
    )
    for _ in range(MAX_PASS_ROUNDS):
        replacement = rule(rewritten, context)
        if replacement is None:
            return rewritten
        rewritten = _map_children(
            replacement, lambda child: _bottom_up(child, rule, context)
        )
    return rewritten


# ---------------------------------------------------------------------------
# pass 1: selection pushdown
# ---------------------------------------------------------------------------


def _select_pushdown(
    expression: Expression, context: RewriteContext
) -> Expression | None:
    if not isinstance(expression, Select):
        return None
    inner = expression.inner
    machine = expression.machine
    if isinstance(inner, Union):
        context.fire("select-pushdown-union")
        return Union(
            Select(inner.left, machine), Select(inner.right, machine)
        )
    if isinstance(inner, Product):
        ignored = _ignored_tapes(machine)
        left_span = frozenset(range(inner.left.arity))
        right_span = frozenset(range(inner.left.arity, inner.arity))
        if right_span and right_span <= ignored:
            context.fire("select-pushdown-product")
            return Product(
                Select(inner.left, _drop_tapes(machine, right_span)),
                inner.right,
            )
        if left_span and left_span <= ignored:
            context.fire("select-pushdown-product")
            return Product(
                inner.left,
                Select(inner.right, _drop_tapes(machine, left_span)),
            )
    return None


# ---------------------------------------------------------------------------
# pass 2: selection fusion
# ---------------------------------------------------------------------------


def _select_fuse(
    expression: Expression, context: RewriteContext
) -> Expression | None:
    if not isinstance(expression, Select):
        return None
    inner = expression.inner
    machine = expression.machine
    if isinstance(inner, Select) and fusion_supported(
        machine, inner.machine
    ):
        context.fire("select-fuse")
        return Select(
            inner.inner, context.session.fused_select(machine, inner.machine)
        )
    if isinstance(inner, Product):
        factors = _product_factors(inner)
        offset = 0
        for index, factor in enumerate(factors):
            if (
                isinstance(factor, Select)
                and _all_sigma(factor.inner)
                and factor.machine.alphabet == machine.alphabet
            ):
                lifted = widen(
                    factor.machine,
                    inner.arity,
                    tuple(range(offset, offset + factor.arity)),
                )
                if fusion_supported(machine, lifted):
                    context.fire("generative-fuse")
                    replaced = list(factors)
                    replaced[index] = factor.inner
                    # The outer (constraining) machine runs first so
                    # generation explores its language, not the free
                    # product of the lifted factor's domains.
                    return Select(
                        Select(_reproduct(replaced), lifted), machine
                    )
            offset += factor.arity
    return None


# ---------------------------------------------------------------------------
# pass 3: projections
# ---------------------------------------------------------------------------


def _project_pass(
    expression: Expression, context: RewriteContext
) -> Expression | None:
    if not isinstance(expression, Project):
        return None
    inner = expression.inner
    columns = expression.columns
    if isinstance(inner, Project):
        context.fire("project-fuse")
        return Project(
            inner.inner, tuple(inner.columns[c] for c in columns)
        )
    if columns == tuple(range(inner.arity)):
        context.fire("project-identity")
        return inner
    if isinstance(inner, SigmaStar) and columns == ():
        context.fire("project-trivial")
        return Project(SigmaL(0), ())
    if isinstance(inner, Union):
        context.fire("project-pushdown-union")
        return Union(
            Project(inner.left, columns), Project(inner.right, columns)
        )
    if isinstance(inner, Product):
        left_arity = inner.left.arity
        if all(c < left_arity for c in columns) and _never_empty(
            inner.right
        ):
            context.fire("project-pushdown-product")
            return Project(inner.left, columns)
        if all(c >= left_arity for c in columns) and _never_empty(
            inner.left
        ):
            context.fire("project-pushdown-product")
            return Project(
                inner.right, tuple(c - left_arity for c in columns)
            )
    return None


# ---------------------------------------------------------------------------
# pass 4: machine minimization
# ---------------------------------------------------------------------------


def _select_minimize(
    expression: Expression, context: RewriteContext
) -> Expression | None:
    if not isinstance(expression, Select):
        return None
    smaller = context.session.minimized_machine(expression.machine)
    if len(smaller.states) < len(expression.machine.states):
        context.fire("select-minimize")
        return Select(expression.inner, smaller)
    return None


_PASSES = (_select_pushdown, _select_fuse, _project_pass, _select_minimize)


def optimize_expression(
    expression: Expression, session
) -> tuple[Expression, tuple[tuple[str, int], ...]]:
    """Run all rewrite passes over an algebra expression.

    Args:
        expression: The translated expression to optimize.
        session: The :class:`repro.engine.QueryEngine` whose caches
            serve fused and minimized machines.

    Returns:
        The ``(optimized expression, fired rules)`` pair; the rule list
        is ``(name, count)`` sorted by name and empty when nothing
        applied.
    """
    context = RewriteContext(session)
    for rewrite_pass in _PASSES:
        for _ in range(MAX_PASS_ROUNDS):
            rewritten = _bottom_up(expression, rewrite_pass, context)
            if rewritten == expression:
                break
            expression = rewritten
    return expression, context.snapshot()


# ---------------------------------------------------------------------------
# branch-aware translation
# ---------------------------------------------------------------------------


def translate_branches(formula, head, alphabet, compiler=None):
    """Translate a disjunctive formula branch-by-branch.

    Splits the (already simplified) formula into its disjuncts, runs
    the Theorem 4.2 translation on each branch against the branch's
    own free variables, pads head variables a branch does not mention
    with ``Σ*`` columns, reorders every branch to head order and
    unions them.  This turns the paper's ``¬(¬φ ∧ ¬ψ)`` disjunction
    encoding — whose direct translation is a doubly-nested
    difference — into a plain union of per-branch plans the rewriter
    can push selections into.

    Args:
        formula: The simplified calculus formula.
        head: The full answer-variable tuple; must equal the formula's
            free variables as a set.
        alphabet: The query alphabet.
        compiler: An optional compile cache (the session's
            :meth:`~repro.engine.QueryEngine.compile`).

    Returns:
        The union expression, or ``None`` when the formula has a
        single branch (plain translation is then identical) or the
        branch split exceeds the budget.
    """
    from repro.algebra.expressions import product_of
    from repro.algebra.translate import calculus_to_algebra
    from repro.core.syntax import free_variables
    from repro.ir.normalize import split_disjuncts

    branches = split_disjuncts(formula)
    if branches is None or len(branches) <= 1:
        return None
    head = tuple(head)
    parts = []
    for branch in branches:
        mentioned = free_variables(branch)
        branch_head = tuple(v for v in head if v in mentioned)
        missing = tuple(v for v in head if v not in mentioned)
        translated = calculus_to_algebra(
            branch, branch_head, alphabet, compiler=compiler
        )
        if missing:
            padded = product_of(
                [translated] + [SigmaStar() for _ in missing]
            )
            layout = branch_head + missing
            translated = Project(
                padded, tuple(layout.index(v) for v in head)
            )
        parts.append(translated)
    union = parts[0]
    for part in parts[1:]:
        union = Union(union, part)
    return union


# ---------------------------------------------------------------------------
# Index-prefilter pushdown over normalized plans
# ---------------------------------------------------------------------------

#: Machines with more transitions than this skip factor derivation —
#: the mandatory-edge test is quadratic in the transition count and
#: planning time must stay bounded.
MAX_PREFILTER_TRANSITIONS = 400

#: Cap on derived factor length; chains longer than this stop growing.
MAX_FACTOR_LENGTH = 8

#: Factors shorter than this are not pushed down — they prune too
#: little and are shorter than any useful gram size anyway.
MIN_PREFILTER_FACTOR = 2

#: Stash attribute memoizing :func:`required_factors` on the machine
#: instance, per tape and length limit: a re-plan after an update
#: prices the same cached machines again and finds their factors here.
_FACTORS_STASH = "_required_factors"
register_kernel_stash(_FACTORS_STASH)


def _reaches_final_avoiding(machine: FSA, excluded) -> bool:
    """Whether some start→final state path avoids transition ``excluded``."""
    if machine.start in machine.finals:
        return True
    seen = {machine.start}
    frontier = [machine.start]
    while frontier:
        state = frontier.pop()
        for transition in machine.outgoing(state):
            if transition is excluded or transition.target in seen:
                continue
            if transition.target in machine.finals:
                return True
            seen.add(transition.target)
            frontier.append(transition.target)
    return False


def _extend_factor(
    machine: FSA, tape: int, edge, sigma: frozenset, limit: int
) -> str:
    """Grow a mandatory symbol rightward into a longer mandatory factor.

    Starting from a mandatory transition reading ``σ ∈ Σ`` on ``tape``,
    the factor extends by one symbol whenever every current transition
    advances the tape's head (``+1``), every reachable target state is
    non-final with at least one outgoing transition, and *all* those
    outgoing transitions agree on the next tape symbol — then every
    accepting run that crosses the mandatory edge must read that symbol
    at the next position, so the concatenation is itself mandatory.
    """
    factor = edge.reads[tape]
    edges = (edge,)
    while len(factor) < limit:
        if any(t.moves[tape] != RIGHT_MOVE for t in edges):
            break
        targets = {t.target for t in edges}
        if targets & machine.finals:
            break
        following: list = []
        for state in targets:
            outgoing = machine.outgoing(state)
            if not outgoing:
                return factor
            following.extend(outgoing)
        symbols = {t.reads[tape] for t in following}
        if len(symbols) != 1:
            break
        symbol = symbols.pop()
        if symbol not in sigma:
            break
        factor += symbol
        edges = tuple(following)
    return factor


def required_factors(
    machine: FSA, tape: int, limit: int = MAX_FACTOR_LENGTH
) -> tuple[str, ...]:
    """Substrings every value accepted on ``tape`` must contain.

    A transition is *mandatory* when no start→final path in the pruned
    machine avoids it; a mandatory transition reading ``σ ∈ Σ`` on
    ``tape`` proves every accepted value of that tape contains ``σ``
    (heads only read alphabet symbols on content positions).  Each
    mandatory symbol is then extended rightward into the longest
    provably-mandatory chain (:func:`_extend_factor`).

    The result is sound for *pruning*: a stored value that lacks one of
    the returned substrings can never satisfy the selection, whatever
    the other tapes hold.  It is deliberately incomplete — machines
    with alternative accepting paths simply yield fewer (or no)
    factors.  It depends on the machine alone, so it is computed once
    per machine instance, tape and limit and stashed on the instance.

    Args:
        machine: The compiled selection machine.
        tape: The tape index of the variable being constrained.
        limit: Maximum factor length to derive.

    Returns:
        The deduplicated factors, sorted; factors that are substrings
        of longer derived factors are dropped.
    """
    memo = machine.__dict__.get(_FACTORS_STASH)
    if memo is None:
        memo = {}
        object.__setattr__(machine, _FACTORS_STASH, memo)
    key = (tape, limit)
    if key not in memo:
        memo[key] = _derive_factors(machine.pruned(), tape, limit)
    return memo[key]


def _derive_factors(machine: FSA, tape: int, limit: int) -> tuple[str, ...]:
    """:func:`required_factors` over an already pruned machine."""
    if not machine.finals:
        return ()
    if len(machine.transitions) > MAX_PREFILTER_TRANSITIONS:
        return ()
    sigma = frozenset(machine.alphabet.symbols)
    found: set[str] = set()
    for edge in machine.transitions:
        if edge.reads[tape] not in sigma:
            continue
        if _reaches_final_avoiding(machine, edge):
            continue
        found.add(_extend_factor(machine, tape, edge, sigma, limit))
    kept: list[str] = []
    for factor in sorted(found, key=lambda f: (-len(f), f)):
        if not any(factor in longer for longer in kept):
            kept.append(factor)
    return tuple(sorted(kept))


def _branch_prefilters(
    branch: ConjunctivePlan, alphabet, compiler, model
) -> tuple[ConjunctivePlan, int]:
    variable_factors: dict = {}
    for step in branch.steps:
        if step.negated or not isinstance(step.atom, StringAtom):
            continue
        compiled = compiler(step.atom.formula, alphabet)
        for variable in compiled.variables:
            factors = required_factors(
                compiled.fsa, compiled.tape_of(variable)
            )
            useful = [f for f in factors if len(f) >= MIN_PREFILTER_FACTOR]
            if useful:
                variable_factors.setdefault(variable, set()).update(useful)
    if not variable_factors:
        return branch, 0
    attached = 0
    steps = []
    for step in branch.steps:
        if (
            step.action == "join"
            and isinstance(step.atom, RelAtom)
            and not step.negated
        ):
            prefilter = []
            for position, argument in enumerate(step.atom.args):
                factors = variable_factors.get(argument)
                if factors:
                    prefilter.append((position, tuple(sorted(factors))))
            if prefilter:
                attached += 1
                est_cost, est_rows = step.est_cost, step.est_rows
                if model is not None:
                    est_cost, est_rows = model.prefilter_estimate(
                        est_cost,
                        est_rows,
                        sum(len(factors) for _, factors in prefilter),
                    )
                step = replace(
                    step,
                    prefilter=tuple(prefilter),
                    est_cost=est_cost,
                    est_rows=est_rows,
                )
        steps.append(step)
    return replace(branch, steps=tuple(steps)), attached


def attach_index_prefilters(
    plan: QueryPlan, alphabet, compiler=None, model=None
) -> QueryPlan:
    """Push mandatory selection factors down onto a plan's join steps.

    For every conjunctive branch, each positive string-formula literal
    is compiled and its per-variable :func:`required_factors` derived;
    join steps over relational atoms whose argument variables carry
    factors gain a :attr:`~repro.ir.plan.PlanStep.prefilter`.  This is
    sound because branch literals are conjoined: any binding in the
    branch answer satisfies the string atom, so a joined row whose
    column value lacks a mandatory factor can never survive — pruning
    it early only removes work, never answers.

    Args:
        plan: The normalized plan.
        alphabet: The query alphabet.
        compiler: ``(formula, alphabet) → CompiledFormula``; defaults
            to :func:`repro.fsa.compile.compile_string_formula` — pass
            a session's ``compile`` for cached machines.
        model: An optional :class:`~repro.ir.cost.CostModel` used to
            discount the estimates of prefiltered steps.

    Returns:
        The plan with prefilters attached (the input plan unchanged
        when nothing was derived); when a prefilter fires, the plan's
        rule counters gain a ``pushdown.index-prefilter`` entry.
    """
    branches = plan.branches()
    if not branches:
        return plan
    if compiler is None:
        from repro.fsa.compile import compile_string_formula

        compiler = compile_string_formula
    rewritten = []
    attached = 0
    for branch in branches:
        new_branch, count = _branch_prefilters(
            branch, alphabet, compiler, model
        )
        rewritten.append(new_branch)
        attached += count
    if not attached:
        return plan
    if isinstance(plan.root, UnionPlan):
        root = UnionPlan(tuple(rewritten))
    else:
        root = rewritten[0]
    rules = tuple(
        sorted(plan.rules + (("pushdown.index-prefilter", attached),))
    )
    return replace(plan, root=root, rules=rules)
