"""Evaluating alignment algebra expressions.

Two regimes, both from Section 4 of the paper:

* **Truncated evaluation** ``db(E ↓ l)``: every ``Σ*`` is read as
  ``Σ^{<=l}``, making all operators finitary (the second claim of
  Theorem 4.2).
* **Generative selection**: for the finitely evaluable pattern
  ``σ_A(F × (Σ*)^n)`` the ``Σ*`` columns are never materialized —
  the machine ``A`` is run as a generalized Mealy machine producing
  the new strings from each tuple of ``F`` (Definition 3.1 /
  :mod:`repro.fsa.generate`), still capped at the supplied bound so
  evaluation always terminates.
"""

from __future__ import annotations

from itertools import product

from repro.algebra.expressions import (
    Diff,
    Expression,
    Product,
    Project,
    Rel,
    Select,
    SigmaL,
    SigmaStar,
    Union,
)
from repro.core.database import Database
from repro.errors import EvaluationError, UnboundedQueryError
from repro.fsa.generate import accepted_tuples
from repro.fsa.kernel import kernel_for

Relation = frozenset[tuple[str, ...]]


def _flatten_product(expression: Expression) -> list[Expression]:
    """Factors of a left/right-nested product, in column order."""
    if isinstance(expression, Product):
        return _flatten_product(expression.left) + _flatten_product(
            expression.right
        )
    return [expression]


def _evaluate_select(
    select: Select, db: Database, length: int, session=None, executor=None
) -> Relation:
    """Selection, generating ``Σ*`` columns instead of materializing them.

    Factors that are ``Σ*`` become generated tapes; all other factors
    are evaluated and iterated, their columns fixed in the machine via
    Lemma 3.1.  Non-generative selections run through the machine's
    compiled simulation kernel (:mod:`repro.fsa.kernel`), batched so
    the whole inner relation shares one compiled dispatch table and
    one set of scratch buffers.  With a ``session``
    (:class:`repro.engine.QueryEngine`) the machine is first replaced
    by its cached bisimulation quotient (which preserves the accepted
    language, hence both filtering and generation), the kernel comes
    from the session's ``kernel`` cache and the specialize/generate
    steps are served from the session caches; with an ``executor``
    (:class:`repro.parallel.ParallelExecutor`) the per-row machine
    runs — acceptance checks and generator runs alike — are sharded
    across its worker pool.
    """
    machine = select.machine
    if session is not None:
        machine = session.minimized_machine(machine)
    factors = _flatten_product(select.inner)
    if not any(isinstance(f, SigmaStar) for f in factors):
        inner = _evaluate(select.inner, db, length, session, executor)
        if executor is not None:
            from repro.parallel.generation import filter_accepted

            return filter_accepted(machine, sorted(inner), executor=executor)
        kernel = (
            session.kernel(machine)
            if session is not None
            else kernel_for(machine)
        )
        rows = sorted(inner)
        return frozenset(
            row
            for row, verdict in zip(rows, kernel.accepts_batch(rows))
            if verdict
        )
    generated_tapes: list[int] = []
    concrete: list[tuple[int, ...]] = []  # column spans of concrete factors
    concrete_values: list[Relation] = []
    column = 0
    for factor in factors:
        span = tuple(range(column, column + factor.arity))
        if isinstance(factor, SigmaStar):
            generated_tapes.extend(span)
        else:
            concrete.append(span)
            concrete_values.append(
                _evaluate(factor, db, length, session, executor)
            )
        column += factor.arity
    width = column
    fixed_list: list[dict[int, str]] = []
    # Sorted factor iteration keeps the row order — and therefore the
    # shard contents — deterministic across interpreter runs.
    for rows in product(*(sorted(v) for v in concrete_values)):
        fixed: dict[int, str] = {}
        for span, row in zip(concrete, rows):
            for tape, value in zip(span, row):
                fixed[tape] = value
        fixed_list.append(fixed)
    from repro.observability import current_tracer
    from repro.parallel.generation import generated_for_fixed

    generated_sets = generated_for_fixed(
        machine, length, fixed_list, session=session, executor=executor
    )
    results: set[tuple[str, ...]] = set()
    with current_tracer().span(
        "fold.select", stage="fold", rows=len(fixed_list)
    ):
        for fixed, generated in zip(fixed_list, generated_sets):
            for outputs in generated:
                merged = [""] * width
                for tape, value in fixed.items():
                    merged[tape] = value
                for tape, value in zip(generated_tapes, outputs):
                    merged[tape] = value
                results.add(tuple(merged))
    return frozenset(results)


def _evaluate(
    expression: Expression,
    db: Database,
    length: int,
    session=None,
    executor=None,
) -> Relation:
    if isinstance(expression, Rel):
        # The view's backing frozenset: the algebra operators below
        # combine relations with set algebra, so take the raw set.
        return db.relation(expression.name).tuples
    if isinstance(expression, SigmaStar):
        # Bare Σ* outside a generative selection: truncate.
        return frozenset((s,) for s in db.alphabet.strings(length))
    if isinstance(expression, SigmaL):
        bound = min(expression.bound, length) if length >= 0 else expression.bound
        return frozenset((s,) for s in db.alphabet.strings(bound))
    if isinstance(expression, Union):
        return _evaluate(
            expression.left, db, length, session, executor
        ) | _evaluate(expression.right, db, length, session, executor)
    if isinstance(expression, Diff):
        return _evaluate(
            expression.left, db, length, session, executor
        ) - _evaluate(expression.right, db, length, session, executor)
    if isinstance(expression, Product):
        left = _evaluate(expression.left, db, length, session, executor)
        right = _evaluate(expression.right, db, length, session, executor)
        return frozenset(l + r for l in left for r in right)
    if isinstance(expression, Project):
        inner = _evaluate(expression.inner, db, length, session, executor)
        return frozenset(
            tuple(row[i] for i in expression.columns) for row in inner
        )
    if isinstance(expression, Select):
        return _evaluate_select(expression, db, length, session, executor)
    raise TypeError(f"not an algebra expression: {expression!r}")


def evaluate_expression(
    expression: Expression,
    db: Database,
    length: int,
    domain: tuple[str, ...] | None = None,
    session=None,
    executor=None,
) -> Relation:
    """``db(E ↓ length)`` — the truncated value of the expression.

    ``domain`` is accepted for interface compatibility with the naive
    engine; evaluation is always over ``Σ^{<=length}``, so a caller
    passing a non-prefix-closed domain should compare against the
    truncated semantics instead.  ``session`` optionally supplies a
    :class:`repro.engine.QueryEngine` whose caches back the generative
    selections; ``executor`` optionally supplies a
    :class:`repro.parallel.ParallelExecutor` that shards the
    selection-operator machine runs across worker processes.
    """
    if length < 0:
        raise EvaluationError("truncation length must be non-negative")
    return _evaluate(expression, db, length, session, executor)


def evaluate_exact(
    expression: Expression,
    db: Database,
    limit: int | None = None,
) -> Relation:
    """Exact evaluation for expressions certified finitely evaluable.

    ``limit`` supplies the limit-function value ``W(db)``; when ``None``
    it is derived by the safety analysis (Section 5), and
    :class:`UnboundedQueryError` is raised if no bound can be
    certified.
    """
    if limit is None:
        from repro.safety.domain_independence import expression_limit

        limit = expression_limit(expression, db)
        if limit is None:
            raise UnboundedQueryError(
                "expression is not certifiably finitely evaluable; "
                "pass an explicit limit"
            )
    return _evaluate(expression, db, limit)
