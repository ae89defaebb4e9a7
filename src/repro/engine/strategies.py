"""The built-in evaluation strategies, registered under their names.

Each strategy implements the :class:`~repro.engine.registry.Engine`
protocol and routes its machinery through the invoking session so that
compiled machines, specializations, limit reports and ``Σ^{<=l}``
enumerations are shared across calls.  All three compute the paper's
one answer, the truncated ``⟦φ⟧^l_db`` (Section 2):

* ``naive``   — the reference model checker over ``domain^k``,
  evaluating the normalized plan's *simplified* formula;
* ``algebra`` — Theorem 4.2 translation rewritten by the
  :mod:`repro.ir.rewrite` passes, then in-process expression
  evaluation;
* ``auto``    — the production engine, the join-then-generate
  strategy of Eq. (6): it plans at the explicit ``length`` (else the
  certified bound) and executes the plan's conjunctive branches, each
  on the worker pool when its cost estimate reaches
  :data:`AUTO_PARALLEL_THRESHOLD` and more than one worker is
  available.  A :class:`~repro.ir.plan.NaivePlan` root or an explicit
  ``domain`` is checked with the reference semantics over
  ``domain^k``, sharded through
  :class:`~repro.parallel.tasks.NaiveShardTask` past the same
  threshold.

The plan route and its fallback compute one set because the normalizer
degrades every plan whose joins could bind a stored string outside the
query's ``Σ^{<=cap}`` (``data-outside-domain``).  When a plan's root is
a :class:`~repro.ir.plan.NaivePlan`, the engine doing the fallback work
calls ``session.note_rejection`` — exactly once per evaluation — so
naive fallbacks are observable in ``--stats`` and as
``plan.reject.<reason>`` counters.

Only ``auto`` builds a worker pool.  It exposes ``configured(workers=…)``
returning a parameterized copy; ``QueryEngine.evaluate(workers=…)``
uses that hook, so the other strategies ignore the hint.  Every
generator run, pooled or not, goes through
``QueryEngine.generated``, so ``--stats`` reads the same at every
worker count.

Orthogonally to the strategy choice,
``QueryEngine.evaluate(materialize=True)`` keeps a
:class:`~repro.delta.MaterializedAnswer` per (query, database
version): re-evaluation at an unchanged version bypasses every
strategy with a version-vector lookup, and
``QueryEngine.apply_delta`` maintains the stored answer branch by
branch.  The answer set never depends on the flag — queries whose
plan degrades to a naive root simply fall through to the strategy
path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.semantics import evaluate_naive
from repro.core.syntax import free_variables
from repro.engine.registry import register_engine
from repro.errors import AssignmentError
from repro.ir.execute import execute_plan
from repro.observability import current_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import Database
    from repro.core.query import Query
    from repro.engine.session import QueryEngine
    from repro.ir.plan import QueryPlan
    from repro.parallel.executor import ParallelExecutor

#: Estimated branch cost (and candidate-space size ``|domain|^k`` for
#: the reference-semantics check) from which the ``auto`` strategy
#: runs the work on the worker pool, provided more than one worker is
#: available.
AUTO_PARALLEL_THRESHOLD = 2048


def _longest(domain: tuple[str, ...]) -> int:
    return max((len(s) for s in domain), default=0)


def _check_candidates(
    query: "Query",
    db: "Database",
    session: "QueryEngine",
    plan: "QueryPlan",
    domain: tuple[str, ...],
    executor: "ParallelExecutor | None" = None,
) -> frozenset[tuple[str, ...]]:
    """Check every head tuple of ``domain^k`` with the reference semantics.

    Notes the plan's rejection (a no-op for conjunctive roots), then
    evaluates the plan's simplified formula — in-process, or sharded
    into candidate ranges across ``executor``'s pool.

    Args:
        query: The calculus query (its head fixes the tuple width).
        db: The database instance.
        session: The invoking session (rejection stats).
        plan: The normalized plan whose simplified formula is checked.
        domain: The candidate domain.
        executor: An optional executor sharding the candidate space.

    Returns:
        The satisfying head tuples.

    Raises:
        AssignmentError: If the formula has free variables missing
            from the head (the candidate space cannot cover them).
    """
    session.note_rejection(plan)
    tracer = current_tracer()
    formula = plan.simplified
    total = len(domain) ** len(query.head)
    tracer.gauge("naive.candidate_space", total)
    if executor is None:
        with tracer.span(
            "execute.naive", stage="execute", domain=len(domain)
        ):
            return evaluate_naive(formula, query.head, db, domain)
    from repro.parallel.tasks import NaiveShardTask

    missing = free_variables(formula) - set(query.head)
    if missing:
        raise AssignmentError(
            f"free variables {sorted(missing)} are not in the query head"
        )
    shard_results = executor.run(
        [
            NaiveShardTask(shard, formula, query.head, db, domain)
            for shard in executor.plan(total)
        ]
    )
    answers: set[tuple[str, ...]] = set()
    with tracer.span("fold.naive", stage="fold", shards=len(shard_results)):
        for partial in shard_results:
            answers.update(partial)
    return frozenset(answers)


class NaiveEngine:
    """Brute-force evaluation over ``Σ^{<=l}`` or an explicit domain."""

    name = "naive"

    def evaluate(
        self,
        query: "Query",
        db: "Database",
        session: "QueryEngine",
        *,
        length: int | None = None,
        domain: tuple[str, ...] | None = None,
    ) -> frozenset[tuple[str, ...]]:
        """Check every candidate head tuple against the reference semantics.

        Args:
            query: The calculus query to evaluate.
            db: The database instance.
            session: The invoking session (supplies the certified
                length and the memoized domain).
            length: Optional explicit truncation bound.
            domain: Optional explicit candidate domain (overrides
                ``length``).

        Returns:
            The answer set as a frozenset of head tuples.
        """
        if domain is None:
            if length is None:
                length = session.certified_length(query, db)
            domain = session.domain_for(query.alphabet, length)
        cap = length if length is not None else _longest(domain)
        plan = session.query_plan(query, db, cap)
        return _check_candidates(query, db, session, plan, domain)


class AlgebraEngine:
    """Theorem 4.2: translate once (cached), evaluate the expression.

    Runs in-process: like ``naive`` it ignores the ``workers`` hint,
    which never changes an answer.
    """

    name = "algebra"

    def evaluate(
        self,
        query: "Query",
        db: "Database",
        session: "QueryEngine",
        *,
        length: int | None = None,
        domain: tuple[str, ...] | None = None,
    ) -> frozenset[tuple[str, ...]]:
        """Translate + optimize the query (cached), then evaluate.

        Args:
            query: The calculus query to evaluate.
            db: The database instance.
            session: The invoking session (translation and rewrite
                caches).
            length: Optional explicit evaluation bound.
            domain: Optional explicit domain; only its maximum string
                length is used (as the bound).

        Returns:
            The answer set as a frozenset of head tuples.
        """
        from repro.algebra.evaluate import evaluate_expression

        expression, _ = session.optimized_translation(query)
        bound = length
        if bound is None:
            if domain is not None:
                bound = _longest(domain)
            else:
                bound = session.certified_length(query, db)
        return evaluate_expression(expression, db, bound, session)


class AutoEngine:
    """Plan first, pool what is expensive, check the rest naively.

    The plan is built at the explicit ``length``, else at the certified
    limit ``W_φ(db)`` — certified bounds are sound but loose, and only
    generation-based evaluation stays practical under them.  Each
    conjunctive branch picks its own executor: branches whose cost
    estimate reaches :data:`AUTO_PARALLEL_THRESHOLD` shard their
    generator runs across the pool when more than one worker is
    available, cheap branches stay in-process.  A naive plan root, or
    an explicit ``domain``, is checked with the reference semantics
    over ``domain^k``, sharded past the same threshold.  The worker
    count never changes the answer set, only where it is computed;
    with one worker no pool is ever built.  A pool plans
    ``workers × OVERSHARD_FACTOR`` shards.
    """

    name = "auto"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = workers

    def configured(self, workers: int | None = None) -> "AutoEngine":
        """Return a copy parameterized with a worker count.

        Args:
            workers: Worker-process count, or ``None`` to keep the
                current setting.

        Returns:
            A new :class:`AutoEngine` with the merged setting.
        """
        return AutoEngine(workers if workers is not None else self.workers)

    def _pool(self, cost: float) -> "ParallelExecutor | None":
        """The worker pool for work of estimated size ``cost``, if any."""
        if cost < AUTO_PARALLEL_THRESHOLD:
            return None
        workers = self.workers
        if workers is None:
            from repro.parallel.executor import default_worker_count

            workers = default_worker_count()
        if workers < 2:
            return None
        from repro.parallel.executor import ParallelExecutor

        return ParallelExecutor(workers)

    def _execute_plan(
        self,
        plan: "QueryPlan",
        query: "Query",
        db: "Database",
        session: "QueryEngine",
        cap: int,
    ) -> frozenset[tuple[str, ...]]:
        """Run a conjunctive plan, choosing an executor per branch."""
        executor = self._pool(
            max(branch.est_cost for branch in plan.branches())
        )
        if executor is None:
            return execute_plan(plan, db, query.alphabet, cap, session)
        try:
            return execute_plan(
                plan,
                db,
                query.alphabet,
                cap,
                session,
                executor_for=lambda branch: (
                    executor
                    if branch.est_cost >= AUTO_PARALLEL_THRESHOLD
                    else None
                ),
            )
        finally:
            session.stats.record_parallel(executor.report)

    def evaluate(
        self,
        query: "Query",
        db: "Database",
        session: "QueryEngine",
        *,
        length: int | None = None,
        domain: tuple[str, ...] | None = None,
    ) -> frozenset[tuple[str, ...]]:
        """Execute the plan, or check the candidates of a naive root.

        Args:
            query: The calculus query to evaluate.
            db: The database instance.
            session: The invoking session.
            length: Optional explicit truncation bound.
            domain: Optional explicit candidate domain.

        Returns:
            The answer set — the same set every routing choice yields.
        """
        if domain is None:
            cap = (
                length
                if length is not None
                else session.certified_length(query, db)
            )
            plan = session.query_plan(query, db, cap)
            if plan.fallback_reason is None:
                return self._execute_plan(plan, query, db, session, cap)
            domain = session.domain_for(query.alphabet, cap)
        else:
            cap = length if length is not None else _longest(domain)
            plan = session.query_plan(query, db, cap)
        executor = self._pool(len(domain) ** len(query.head))
        try:
            return _check_candidates(
                query, db, session, plan, domain, executor
            )
        finally:
            if executor is not None:
                session.stats.record_parallel(executor.report)


NAIVE = NaiveEngine()
ALGEBRA = AlgebraEngine()
AUTO = AutoEngine()


def register_default_engines() -> None:
    """(Re-)register the built-in strategies under their names."""
    for engine in (NAIVE, ALGEBRA, AUTO):
        register_engine(engine, replace=True)


register_default_engines()
