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

from itertools import compress, product
from typing import TYPE_CHECKING

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
from repro.observability import current_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.session import QueryEngine

Relation = frozenset[tuple[str, ...]]


def _flatten_product(expression: Expression) -> list[Expression]:
    """Factors of a left/right-nested product, in column order."""
    if isinstance(expression, Product):
        return _flatten_product(expression.left) + _flatten_product(
            expression.right
        )
    return [expression]


def _evaluate_select(
    select: Select, db: Database, length: int, session: "QueryEngine"
) -> Relation:
    """Selection, generating ``Σ*`` columns instead of materializing them.

    The machine is first replaced by its session-cached bisimulation
    quotient, which preserves the accepted language, hence both
    filtering and generation.  Non-generative selections run the
    session's acceptance kernel (:mod:`repro.fsa.kernel`) over the
    whole inner relation in one batch.  Otherwise the factors that are
    ``Σ*`` become generated tapes; all other factors are evaluated and
    iterated, each tuple of their product fixing its columns in the
    machine via Lemma 3.1 — one key of
    :meth:`repro.engine.QueryEngine.generated`.
    """
    machine = session.minimized_machine(select.machine)
    factors = _flatten_product(select.inner)
    if not any(isinstance(f, SigmaStar) for f in factors):
        rows = list(_evaluate(select.inner, db, length, session))
        return frozenset(
            compress(rows, session.kernel(machine).accepts_batch(rows))
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
            concrete_values.append(_evaluate(factor, db, length, session))
        column += factor.arity
    width = column
    # Spans ascend, so each key lists its tapes in sorted order.
    keys = [
        tuple(
            pair
            for span, row in zip(concrete, rows)
            for pair in zip(span, row)
        )
        for rows in product(*concrete_values)
    ]
    answers = session.generated(machine, length, keys)
    results: set[tuple[str, ...]] = set()
    with current_tracer().span("fold.select", stage="fold", rows=len(keys)):
        for key, generated in answers.items():
            for outputs in generated:
                merged = [""] * width
                for tape, value in key:
                    merged[tape] = value
                for tape, value in zip(generated_tapes, outputs):
                    merged[tape] = value
                results.add(tuple(merged))
    return frozenset(results)


def _evaluate(
    expression: Expression,
    db: Database,
    length: int,
    session: "QueryEngine",
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
        return _evaluate(expression.left, db, length, session) | _evaluate(
            expression.right, db, length, session
        )
    if isinstance(expression, Diff):
        return _evaluate(expression.left, db, length, session) - _evaluate(
            expression.right, db, length, session
        )
    if isinstance(expression, Product):
        left = _evaluate(expression.left, db, length, session)
        right = _evaluate(expression.right, db, length, session)
        return frozenset(l + r for l in left for r in right)
    if isinstance(expression, Project):
        inner = _evaluate(expression.inner, db, length, session)
        return frozenset(
            tuple(row[i] for i in expression.columns) for row in inner
        )
    if isinstance(expression, Select):
        return _evaluate_select(expression, db, length, session)
    raise TypeError(f"not an algebra expression: {expression!r}")


def evaluate_expression(
    expression: Expression,
    db: Database,
    length: int,
    session: "QueryEngine",
) -> Relation:
    """``db(E ↓ length)`` — the truncated value of the expression.

    Every ``Σ*`` reads as ``Σ^{<=length}``.  ``session`` is the
    :class:`repro.engine.QueryEngine` whose caches back the
    selections (minimized machines, kernels, generated answer sets).
    """
    if length < 0:
        raise EvaluationError("truncation length must be non-negative")
    return _evaluate(expression, db, length, session)


def evaluate_exact(
    expression: Expression,
    db: Database,
    session: "QueryEngine",
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
    return evaluate_expression(expression, db, limit, session)
