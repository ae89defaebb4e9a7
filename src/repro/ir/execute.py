"""Executing normalized plans against a database.

A :class:`~repro.ir.plan.ConjunctivePlan` executes as bindings
flowing through its join / generate / filter steps (the executors of
:mod:`repro.core.planner`), in the order the cost model chose at
normalization time.  A :class:`~repro.ir.plan.UnionPlan` executes each
branch independently and unions the answers; branch independence is
what lets the ``auto`` strategy parallelize expensive branches while
running cheap ones in-process.

Head variables a branch does not mention are padded with the full
truncation domain ``Σ^{≤cap}`` — the truncation semantics of a
disjunct that leaves an answer variable unconstrained.  Join steps
bind stored strings, which lie in that domain too: the normalizer
degrades every plan over data outside it to a naive root
(``data-outside-domain``), so execution and the reference semantics
compute one set.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.alphabet import Alphabet
from repro.core.database import Database
from repro.core.planner import (
    Binding,
    _filter_bound,
    _generate,
    _join_relational,
)
from repro.errors import EvaluationError
from repro.ir.plan import ConjunctivePlan, NaivePlan, QueryPlan


def execute_branch(
    branch: ConjunctivePlan,
    head: tuple,
    db: Database,
    alphabet: Alphabet,
    cap: int,
    session=None,
    executor=None,
    domain: tuple[str, ...] | None = None,
    restrict: "dict[int, frozenset[tuple[str, ...]]] | None" = None,
) -> frozenset[tuple[str, ...]]:
    """Run one conjunctive branch and project to the full head.

    Args:
        branch: The ordered branch to execute.
        head: The query's full answer-variable tuple, in order.
        db: The database.
        alphabet: The query alphabet.
        cap: The truncation / generation bound.
        session: An optional :class:`repro.engine.QueryEngine` backing
            compile / specialize / generate / domain caches.
        executor: An optional :class:`repro.parallel.ParallelExecutor`
            sharding the generate steps.
        domain: The padding domain for head variables the branch does
            not mention; defaults to ``Σ^{≤cap}``.
        restrict: Step-index → row-set overrides for positive
            relational steps — the semi-naive maintenance hook
            (:meth:`repro.delta.MaterializedStore.maintain`): the
            restricted step scans only the given rows while every
            other step runs against the full database.

    Returns:
        The branch's answer tuples in head order, with head variables
        the branch does not mention padded by the domain.
    """
    from repro.observability import current_tracer

    tracer = current_tracer()
    bindings: list[Binding] = [{}]
    for index, step in enumerate(branch.steps):
        restricted = restrict.get(index) if restrict else None
        with tracer.span(
            f"execute.{step.action}", stage="execute", bindings=len(bindings)
        ):
            if step.action == "filter":
                bindings = _filter_bound(
                    bindings, step, db, alphabet, session,
                    restrict_rows=restricted,
                )
            elif step.action == "join":
                bindings = _join_relational(
                    bindings, step, db, restrict_rows=restricted
                )
            else:
                bindings = _generate(
                    bindings, step, alphabet, cap, session, executor
                )
                # Join and filter steps need no such pass: each binding
                # they output determines its input binding and row.
                unique = {tuple(sorted(b.items())): b for b in bindings}
                bindings = list(unique.values())
        if not bindings:
            return frozenset()
    projected = {
        tuple(binding[var] for var in branch.bound_head)
        for binding in bindings
    }
    if not branch.free_head:
        return frozenset(projected)
    if domain is None:
        if session is not None:
            domain = session.domain_for(alphabet, cap)
        else:
            domain = tuple(alphabet.strings(cap))
    padded_order = branch.bound_head + branch.free_head
    order = [padded_order.index(var) for var in head]
    answers = set()
    for row in projected:
        stack = [row]
        for _ in branch.free_head:
            stack = [base + (value,) for base in stack for value in domain]
        for padded in stack:
            answers.add(tuple(padded[i] for i in order))
    return frozenset(answers)


def execute_plan(
    plan: QueryPlan,
    db: Database,
    alphabet: Alphabet,
    cap: int,
    session=None,
    executor=None,
    executor_for: Callable[[ConjunctivePlan], object] | None = None,
    domain: tuple[str, ...] | None = None,
) -> frozenset[tuple[str, ...]]:
    """Execute a normalized plan and union the branch answers.

    Args:
        plan: The normalized plan; its root must not be a
            :class:`NaivePlan` (engines route those to the naive
            strategy themselves).
        db: The database.
        alphabet: The query alphabet.
        cap: The truncation / generation bound.
        session: An optional engine session backing the caches.
        executor: A parallel executor applied to every branch.
        executor_for: A per-branch executor chooser; overrides
            ``executor`` when given (return ``None`` for in-process).
        domain: The padding domain for unmentioned head variables;
            defaults to ``Σ^{≤cap}``.

    Returns:
        The union of branch answers in head order.

    Raises:
        EvaluationError: If the plan's root is a naive fallback.
    """
    from repro.observability import current_tracer

    if isinstance(plan.root, NaivePlan):
        raise EvaluationError(
            f"plan fell back to naive evaluation ({plan.root.reason}); "
            "route it to the naive strategy instead"
        )
    tracer = current_tracer()
    answers: set[tuple[str, ...]] = set()
    branches = plan.branches()
    for index, branch in enumerate(branches):
        chosen = executor_for(branch) if executor_for is not None else executor
        with tracer.span(
            "execute.branch",
            stage="execute",
            branch=index,
            steps=len(branch.steps),
        ):
            answers |= execute_branch(
                branch, plan.head, db, alphabet, cap, session, chosen, domain
            )
    return frozenset(answers)
