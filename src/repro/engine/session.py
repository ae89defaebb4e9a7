"""The :class:`QueryEngine` session: compiled-artifact reuse + batching.

Every evaluation route in the library bottoms out in a handful of
expensive, *pure* derivations — the Theorem 3.1 compiler, Lemma 3.1
specialization, machine generation (Definition 3.1), the Theorem 4.2
algebra translation, and the Section 5 limit-report analysis.  All of
them are functions of immutable values (formulae, alphabets,
machines), so a session that has answered a query once can answer the
same — or a structurally overlapping — query again from its caches.

A ``QueryEngine`` owns one instrumented cache per artifact kind, keyed
by structural identity, plus a shared ``Σ^{<=l}`` domain pool whose
by-length enumeration order makes every shorter domain a prefix of a
longer one.  ``evaluate`` routes a single query through a registered
strategy; ``evaluate_many`` evaluates a batch against one database,
sharing limit reports, generator machines and the domain enumeration
across the whole batch.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from contextlib import nullcontext
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING

from repro.core.alphabet import Alphabet
from repro.core.database import Database
from repro.engine.caches import EngineStats, KeyedCache
from repro.engine.registry import Engine, get_engine
from repro.errors import SafetyError
from repro.observability import (
    NULL_TRACER,
    TraceReport,
    activate,
    current_tracer,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.query import Query
    from repro.core.syntax import Formula, StringFormula, Var
    from repro.fsa.compile import CompiledFormula
    from repro.fsa.machine import FSA
    from repro.observability import NullTracer, Tracer
    from repro.parallel.executor import ParallelExecutor
    from repro.parallel.tasks import FixedItems
    from repro.safety.domain_independence import SafetyReport

#: Bound on the session's ``generate`` cache (oldest entry evicted).
MAX_GENERATED_ENTRIES = 4096

#: The pooling floor: fewer generate misses than this are computed
#: in-process even when an executor is given, because a pool round
#: trip would cost more than it saves.
MIN_POOLED_MISSES = 32


class QueryEngine:
    """A query-evaluation session with per-artifact caches.

    >>> from repro.core.alphabet import AB
    >>> from repro.core.syntax import rel
    >>> from repro.core.query import Query
    >>> from repro.core.database import Database
    >>> engine = QueryEngine()
    >>> db = Database(AB, {"R2": [("ab",), ("b",)]})
    >>> sorted(engine.evaluate(Query(("x",), rel("R2", "x"), AB), db))
    [('ab',), ('b',)]

    Sessions are cheap to create; keep one per long-lived workload so
    repeated and batched queries share compiled artifacts.  All cached
    derivations are pure, so a session may be shared freely within a
    process (CPython's GIL makes individual cache operations atomic;
    redundant recomputation under races is harmless).

    Instrumentation has one channel, the ambient
    :func:`~repro.observability.current_tracer`.  A session built with
    ``tracer=`` makes that tracer ambient for the whole body of
    :meth:`evaluate`, :meth:`evaluate_many` and :meth:`apply_delta`,
    and :meth:`trace_report` reads it back.  A session without one
    activates nothing, so its work records into whatever tracer the
    caller made ambient (a daemon request's, say) or nowhere.  The
    building blocks (:meth:`compile`, :meth:`kernel`,
    :meth:`query_plan`, :meth:`domain_for`, …) activate nothing
    either: called directly, they record into the ambient tracer like
    every other layer.
    """

    def __init__(self, *, tracer: "Tracer | NullTracer | None" = None) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = EngineStats()
        register = self.stats.register_cache
        self._compile = register(KeyedCache("compile"))
        self._kernel = register(KeyedCache("kernel"))
        self._minimize = register(KeyedCache("minimize"))
        self._specialize = register(KeyedCache("specialize"))
        self._generate = register(
            KeyedCache("generate", max_entries=MAX_GENERATED_ENTRIES)
        )
        self._limit = register(KeyedCache("limit"))
        self._ir = register(KeyedCache("ir"))
        self._optimize = register(KeyedCache("optimize"))
        self._domain_stats = register(KeyedCache("domain")).stats
        # alphabet -> (enumerated_length, tuple_of_strings); plus
        # reserved enumeration floors so batches enumerate once.
        self._domains: dict[Alphabet, tuple[int, tuple[str, ...]]] = {}
        self._domain_floor: dict[Alphabet, int] = {}
        from repro.delta.materialize import MaterializedStore

        #: Materialized answers maintained under deltas (repro.delta).
        self._materialized = register(MaterializedStore())

    # -- tracing ---------------------------------------------------------

    def _traced(self):
        """Make this session's tracer ambient, when it has one.

        The entry points (:meth:`evaluate`, :meth:`evaluate_many`,
        :meth:`apply_delta`) run their whole body under it; every
        instrumentation site below them writes to
        :func:`~repro.observability.current_tracer`.  A session without
        a tracer leaves the caller's ambient tracer (say, a daemon
        request's) in place.
        """
        tracer = self.tracer
        return activate(tracer) if tracer.enabled else nullcontext()

    def trace_report(self) -> TraceReport:
        """The unified :class:`~repro.observability.TraceReport`.

        Merges this session's tracer data (spans per pipeline stage,
        counters, gauges — including worker-side spans folded back by
        the parallel executor) with the cache/engine/parallel
        accounting of :attr:`stats`.

        Returns:
            A schema-stable report; with tracing disabled the span
            sections are empty but every section is still present.
        """
        return TraceReport.build(self.tracer, self.stats)

    # -- cached compiled artifacts --------------------------------------

    def compile(
        self,
        formula: "StringFormula",
        alphabet: Alphabet,
        variables: "tuple[Var, ...] | None" = None,
    ) -> "CompiledFormula":
        """The Theorem 3.1 machine for ``formula``, cached structurally.

        A miss records its ``compile`` spans into the ambient tracer.
        """
        from repro.fsa.compile import build_string_formula, resolve_layout

        layout = resolve_layout(formula, variables)
        return self._compile.get_or_compute(
            (formula, alphabet, layout),
            lambda: build_string_formula(formula, alphabet, layout),
        )

    def kernel(self, fsa: "FSA"):
        """The acceptance kernel for ``fsa``, cached structurally.

        Two independently built but equal machines share one kernel
        per session.  The machine picks the kernel
        (:func:`~repro.fsa.kernel.kernel_for`): the determinized scan
        kernel in the Theorem 5.2 fragment, the worklist kernel
        otherwise.  The kernel is additionally stashed on the machine
        instance, so the acceptance hot paths (the algebra's
        non-generative selection, the plan's filter steps) never
        recompile — and since the scan kernel carries its per-rule
        summary memo, compressed-input summaries are shared across
        every query and batch of the session.  A miss records into the
        ambient tracer.

        Args:
            fsa: The machine to compile.

        Returns:
            The session-cached kernel.
        """
        from repro.fsa.kernel import kernel_for

        return self._kernel.get_or_compute(fsa, lambda: kernel_for(fsa))

    def specialized(
        self, fsa: "FSA", fixed: Mapping[int, str], prune: bool = True
    ) -> "FSA":
        """Lemma 3.1 specialization on constant inputs, cached."""
        from repro.fsa.specialize import specialize

        key = (fsa, tuple(sorted(fixed.items())), prune)
        return self._specialize.get_or_compute(
            key, lambda: specialize(fsa, dict(fixed), prune=prune)
        )

    def generated(
        self,
        fsa: "FSA",
        cap: int,
        keys: "Iterable[FixedItems]",
        executor: "ParallelExecutor | None" = None,
    ) -> "dict[FixedItems, frozenset[tuple[str, ...]]]":
        """The generator runs of Definition 3.1, one per distinct key.

        The only entry for generate work: the plan's generate step
        (Eq. 6) and the algebra's ``σ_A(F × (Σ*)^n)`` both call it.
        Each key is a canonical sorted ``(tape, value)`` tuple fixing
        the machine's bound tapes (Lemma 3.1).  The distinct keys are
        looked up once each in the ``generate`` cache; the misses are
        computed in-process (specialize, then ``accepted_tuples``) or,
        given an ``executor`` and at least :data:`MIN_POOLED_MISSES`
        of them, shipped to its pool as
        :class:`~repro.parallel.tasks.GenerateShardTask` batches.
        Either way the results are stored, so the cache counts do not
        depend on where a miss was computed.  A worker-computed miss
        with bound tapes also counts the ``specialize`` miss its worker
        paid.

        Args:
            fsa: The generator machine.
            cap: The generation bound passed to ``accepted_tuples``.
            keys: The bindings, duplicates allowed.
            executor: An optional
                :class:`~repro.parallel.ParallelExecutor` computing the
                misses.

        Returns:
            The answer set (tuples over the free tapes) of each
            distinct key.
        """
        answers: dict = dict.fromkeys(keys)
        pending = []
        for key in answers:
            found = self._generate.peek((fsa, cap, key))
            if found is None:
                pending.append(key)
            else:
                answers[key] = found
        # Misses run in key order, not binding order (which follows
        # string hashing), so a failing run raises the same error in
        # every process.
        pending.sort()
        tracer = current_tracer()
        hits = len(answers) - len(pending)
        if hits:
            tracer.add("generate.cache_hits", hits)
        if executor is not None:
            executor.report.cache_hits += hits
        if executor is None or len(pending) < MIN_POOLED_MISSES:
            for key in pending:
                answers[key] = self._generate.get_or_compute(
                    (fsa, cap, key),
                    partial(self._generate_miss, fsa, cap, key),
                )
            return answers
        from repro.parallel.tasks import GenerateShardTask

        results = executor.run(
            [
                GenerateShardTask(
                    shard, fsa, cap, tuple(pending[shard.start : shard.stop])
                )
                for shard in executor.plan(len(pending))
            ]
        )
        with tracer.span(
            "fold.generate",
            stage="fold",
            shards=len(results),
            bindings=len(pending),
        ):
            for pairs in results:
                for position, found in pairs:
                    key = pending[position]
                    answers[key] = found
                    self._generate.store((fsa, cap, key), found)
                    if key:
                        self._specialize.stats.misses += 1
        return answers

    def _generate_miss(
        self, fsa: "FSA", cap: int, key: "FixedItems"
    ) -> frozenset[tuple[str, ...]]:
        """One in-process generator run: specialize, then generate."""
        from repro.fsa.generate import accepted_tuples

        machine = self.specialized(fsa, dict(key)) if key else fsa
        with current_tracer().span("execute.generate", stage="execute"):
            return accepted_tuples(machine, max_length=cap)

    def limit_report(
        self, formula: "Formula", alphabet: Alphabet
    ) -> "SafetyReport | None":
        """The certified limit function of ``formula``, cached.

        ``None`` — the "no bound certifiable" outcome — is cached too.
        """
        from repro.safety.domain_independence import limit_function

        def compute():
            with current_tracer().span("plan.limit", stage="plan"):
                return limit_function(formula, alphabet, compiler=self.compile)

        return self._limit.get_or_compute((formula, alphabet), compute)

    def query_plan(self, query: "Query", db: Database, cap: int):
        """The normalized :class:`~repro.ir.plan.QueryPlan`, cached.

        Keyed by the formula, head and alphabet, so the session keeps
        one plan per query.  The plan is stamped with the cap and the
        database's relation *statistics signature* (every relation's
        ``stats()`` from its storage backend, whole): statistically
        identical databases share one cost-ranked plan, and a lookup
        under another cap or signature — after an update moved the
        statistics or the certified cap — replans and replaces the
        entry in place, counted as a ``cache.invalidate.ir``
        replacement.  The cost model prices rows, distinct counts,
        longest lengths and character totals; the length histograms
        only ride in the stamp.

        After normalization the index-prefilter pushdown pass
        (:func:`repro.ir.rewrite.attach_index_prefilters`) derives
        mandatory substring factors from the branch's selection
        machines — compiled through this session's cache — and attaches
        them to the join steps.  A miss records a ``normalize.plan``
        span, and a replacement a ``cache.invalidate.ir`` count, into
        the ambient tracer.

        Args:
            query: The query to normalize.
            db: The database feeding the cost model.
            cap: The truncation / generation bound.

        Returns:
            The cached :class:`~repro.ir.plan.QueryPlan`.
        """
        from repro.ir.cost import CostModel
        from repro.ir.normalize import build_query_plan
        from repro.ir.rewrite import attach_index_prefilters

        model = CostModel.for_database(db, query.alphabet, cap)

        def compute():
            with current_tracer().span(
                "normalize.plan", stage="normalize"
            ) as span:
                plan = build_query_plan(query.formula, query.head, model)
                plan = attach_index_prefilters(
                    plan,
                    query.alphabet,
                    compiler=self.compile,
                    model=model,
                )
                if plan.fallback_reason is not None:
                    span.set(fallback=plan.fallback_reason)
                return plan

        replaced = self._ir.stats.invalidated
        plan = self._ir.get_or_compute(
            (query.formula, query.head, query.alphabet),
            compute,
            stamp=(cap, model.signature),
        )
        if self._ir.stats.invalidated != replaced:
            current_tracer().add("cache.invalidate.ir")
        return plan

    def optimized_translation(self, query: "Query"):
        """The rewritten algebra expression plus fired rules, cached.

        Simplifies the formula, translates it branch-by-branch when it
        splits into disjuncts (plain Theorem 4.2 translation
        otherwise), then runs the :mod:`repro.ir.rewrite` passes with
        fused and minimized machines served from this session's
        caches.  Recorded under the ``optimize`` stage.

        Args:
            query: The query to translate and optimize.

        Returns:
            The ``(expression, rules)`` pair where ``rules`` lists the
            fired rewrite rules as sorted ``(name, count)`` entries.

        Raises:
            EvaluationError: If the head does not match the formula's
                free variables (the algebra route's precondition).
        """
        from repro.algebra.translate import calculus_to_algebra
        from repro.ir.normalize import simplify
        from repro.ir.rewrite import optimize_expression, translate_branches

        key = ("expr", query.formula, query.head, query.alphabet)

        def build():
            with current_tracer().span("optimize.translate", stage="optimize"):
                simplified = simplify(query.formula)
                expression = translate_branches(
                    simplified, query.head, query.alphabet,
                    compiler=self.compile,
                )
                if expression is None:
                    expression = calculus_to_algebra(
                        simplified, query.head, query.alphabet,
                        compiler=self.compile,
                    )
                return optimize_expression(expression, session=self)

        return self._optimize.get_or_compute(key, build)

    def fused_select(self, first: "FSA", second: "FSA") -> "FSA":
        """One machine accepting ``L(first) ∩ L(second)``, cached.

        The optimizer's selection-fusion rule bottoms out here, so
        repeated queries fusing the same machine pair build the
        product once per session.  When both conjuncts sit inside the
        Theorem 5.2 fragment the intersection is built as a
        determinized scan-table product
        (:func:`repro.fsa.determinize.lockstep_intersection`) — the
        fused machine is then itself in fragment, so the whole
        optimized selection runs as **one linear scan**; otherwise the
        two-way sequencing product of
        :func:`repro.fsa.product.sequence_machines` is used.
        """
        from repro.fsa.determinize import lockstep_intersection
        from repro.fsa.product import sequence_machines

        def build() -> "FSA":
            with current_tracer().span("optimize.fuse", stage="optimize"):
                fused = lockstep_intersection(first, second)
                if fused is not None:
                    return fused
                return sequence_machines(first, second)

        return self._optimize.get_or_compute(("fuse", first, second), build)

    def minimized_machine(self, fsa: "FSA") -> "FSA":
        """The bisimulation quotient of a bare machine, cached.

        The algebra evaluation route minimizes selection machines
        through this entry.
        """
        from repro.fsa.minimize import bisimulation_quotient

        return self._minimize.get_or_compute(
            ("machine", fsa), lambda: bisimulation_quotient(fsa)
        )

    def note_rejection(self, plan) -> None:
        """Record an *actually taken* naive fallback, exactly once.

        Engines call this only when they are the one doing the
        fallback work.  The reason lands in :attr:`stats` (visible in
        ``--stats`` without tracing) and as a ``plan.reject.<reason>``
        counter in the ambient tracer.

        Args:
            plan: The :class:`~repro.ir.plan.QueryPlan` whose root was
                rejected; no-op for plans with conjunctive roots.
        """
        reason = plan.fallback_reason
        if reason is None:
            return
        self.stats.record_reject(reason)
        current_tracer().add(f"plan.reject.{reason}")

    def certified_length(self, query: "Query", db: Database) -> int:
        """``W_φ(db)`` from the cached safety analysis.

        Raises :class:`SafetyError` when no limit function can be
        certified for the query.
        """
        report = self.limit_report(query.formula, query.alphabet)
        if report is None:
            raise SafetyError(
                "no limit function could be certified for this query; "
                "pass an explicit length"
            )
        return report.bound(db)

    # -- deltas and materialized answers (repro.delta) ------------------

    def apply_delta(self, db: Database, delta) -> Database:
        """Apply ``delta`` to ``db`` and keep this session consistent.

        One call does the whole mutation path: derives the new
        database version and incrementally maintains the materialized
        answers.  The session caches need no eviction: every key holds
        the inputs its value is computed from, and a plan priced
        against the old statistics is replaced on its next lookup
        (:meth:`query_plan`).  Recorded under the ``delta`` stage, in
        this session's tracer when it has one and in the caller's
        ambient tracer otherwise.

        Args:
            db: The database version to update.
            delta: The :class:`repro.delta.Delta` to apply.

        Returns:
            The new database version (``db`` itself for a no-op).
        """
        if delta.is_empty:
            return db
        with self._traced():
            tracer = current_tracer()
            with tracer.span(
                "delta.apply", stage="delta", operations=delta.size
            ):
                updated = db.apply(delta)
                if updated is db:
                    return db
                tracer.add("delta.applied")
                with tracer.span(
                    "delta.maintain",
                    stage="delta",
                    relations=len(delta.relations()),
                ):
                    self._materialized.maintain(db, updated, delta, self)
                return updated

    def _materialized_key(self, query: "Query", length: int | None):
        return (query.formula, query.head, query.alphabet, length)

    def _materialize_miss(
        self, query: "Query", db: Database, length: int | None
    ) -> frozenset[tuple[str, ...]] | None:
        """Materialize ``query`` at ``db``'s version, if its plan allows.

        Returns ``None`` when the plan degrades to a naive root — the
        caller falls through to a normal (unmaterialized) evaluation,
        which is the documented fallback rule.
        """
        from repro.core.syntax import RelAtom, relation_names
        from repro.delta.materialize import MaterializedAnswer
        from repro.ir.execute import execute_branch

        explicit = length is not None
        cap = length if explicit else self.certified_length(query, db)
        plan = self.query_plan(query, db, cap)
        if plan.fallback_reason is not None:
            self.note_rejection(plan)
            current_tracer().add("delta.materialize.naive_fallback")
            return None
        branch_rows = tuple(
            execute_branch(
                branch, plan.head, db, query.alphabet, cap, self
            )
            for branch in plan.branches()
        )
        answer = (
            frozenset().union(*branch_rows) if branch_rows else frozenset()
        )
        names = set(relation_names(query.formula))
        for branch in plan.branches():
            for step in branch.steps:
                if isinstance(step.atom, RelAtom):
                    names.add(step.atom.name)
        relations = tuple(sorted(names))
        self._materialized.put(
            MaterializedAnswer(
                key=self._materialized_key(query, length),
                plan=plan,
                alphabet=query.alphabet,
                cap=cap,
                explicit=explicit,
                lineage=db.lineage,
                versions=tuple(
                    (name, db.relation_version(name)) for name in relations
                ),
                relations=relations,
                max_lengths={
                    name: db.max_string_length(name) for name in relations
                },
                branch_rows=branch_rows,
                answer=answer,
            )
        )
        return answer

    # -- the shared Σ^{<=l} domain pool ---------------------------------

    def reserve_domain(self, alphabet: Alphabet, length: int) -> None:
        """Declare an upcoming need for ``Σ^{<=length}``.

        The pool then enumerates up to the largest reserved length on
        first use, instead of growing incrementally — ``evaluate_many``
        reserves the batch maximum so every member query's domain is a
        prefix slice of one enumeration.
        """
        if length > self._domain_floor.get(alphabet, -1):
            self._domain_floor[alphabet] = length

    def domain_for(self, alphabet: Alphabet, length: int) -> tuple[str, ...]:
        """``Σ^{<=length}`` as a tuple, served from the shared pool.

        Enumeration is by length then lexicographic, so the pool keeps
        only the longest enumeration per alphabet and answers shorter
        requests as prefixes of it.  An enumeration records a
        ``plan.domain`` span into the ambient tracer.
        """
        if length < 0:
            return ()
        cached = self._domains.get(alphabet)
        if cached is not None and cached[0] >= length:
            self._domain_stats.hits += 1
            full_length, pool = cached
            if full_length == length:
                return pool
            return pool[: alphabet.count_strings(length)]
        target = max(length, self._domain_floor.get(alphabet, -1))
        tracer = current_tracer()
        started = perf_counter()
        with tracer.span("plan.domain", stage="plan", length=target):
            pool = tuple(alphabet.strings(target))
        self._domain_stats.seconds += perf_counter() - started
        self._domain_stats.misses += 1
        tracer.gauge("domain.pool_size", len(pool))
        self._domains[alphabet] = (target, pool)
        if target == length:
            return pool
        return pool[: alphabet.count_strings(length)]

    # -- evaluation entry points ----------------------------------------

    def evaluate(
        self,
        query: "Query",
        db: Database,
        *,
        length: int | None = None,
        engine: "str | Engine" = "auto",
        domain: Sequence[str] | None = None,
        workers: int | None = None,
        materialize: bool = False,
    ) -> frozenset[tuple[str, ...]]:
        """Evaluate one query through a registered strategy.

        ``engine`` is a registered name (``"naive"``, ``"algebra"``,
        ``"auto"``) or an :class:`Engine` object.
        ``workers`` configures strategies that pool work (``auto``)
        via their ``configured`` hook; other strategies ignore the
        hint — the answer set never depends on it.  See
        :meth:`repro.core.query.Query.evaluate` for the semantics of
        ``length`` and ``domain``.

        With ``materialize=True`` the session keeps a
        :class:`~repro.delta.MaterializedAnswer` for the query:
        re-evaluating at the same database version is a pure
        lineage-and-versions lookup, and :meth:`apply_delta` maintains
        the stored answer incrementally.  Queries whose plan degrades
        to a naive root (and calls passing an explicit ``domain``)
        fall through to a normal evaluation — the answer never
        depends on the flag.
        """
        with self._traced():
            if materialize and domain is None:
                started = perf_counter()
                entry = self._materialized.lookup(
                    self._materialized_key(query, length), db
                )
                if entry is not None:
                    self.stats.record_evaluation(
                        "materialized", perf_counter() - started
                    )
                    return entry.answer
                answer = self._materialize_miss(query, db, length)
                if answer is not None:
                    self.stats.record_evaluation(
                        "materialized", perf_counter() - started
                    )
                    return answer
            strategy = get_engine(engine)
            if workers is not None:
                configured = getattr(strategy, "configured", None)
                if configured is not None:
                    strategy = configured(workers=workers)
            fixed_domain = tuple(domain) if domain is not None else None
            started = perf_counter()
            with current_tracer().span(
                "engine.evaluate", engine=strategy.name, head=len(query.head)
            ):
                result = strategy.evaluate(
                    query, db, self, length=length, domain=fixed_domain
                )
            self.stats.record_evaluation(
                strategy.name, perf_counter() - started
            )
            return result

    def evaluate_many(
        self,
        queries: "Sequence[Query]",
        db: Database,
        *,
        length: int | None = None,
        engine: "str | Engine" = "auto",
        workers: int | None = None,
        materialize: bool = False,
    ) -> list[frozenset[tuple[str, ...]]]:
        """Evaluate a batch of queries against one database.

        The batch shares everything a session shares — compiled
        machines, specializations, limit reports — and additionally
        pre-resolves every member's truncation bound so the ``Σ^{<=l}``
        pool is enumerated at most once per alphabet, at the batch
        maximum, with each query's domain a prefix slice of it.
        ``workers`` and ``materialize`` are forwarded to
        every member evaluation.  Results are returned in query order.
        """
        with self._traced():
            for query in queries:
                if length is not None:
                    bound: int | None = length
                else:
                    report = self.limit_report(query.formula, query.alphabet)
                    bound = report.bound(db) if report is not None else None
                if bound is not None:
                    self.reserve_domain(query.alphabet, bound)
            return [
                self.evaluate(
                    query,
                    db,
                    length=length,
                    engine=engine,
                    workers=workers,
                    materialize=materialize,
                )
                for query in queries
            ]


_DEFAULT: QueryEngine | None = None


def default_engine() -> QueryEngine:
    """The process-wide session behind ``Query.evaluate``.

    Created on first use; replace it with :func:`set_default_engine`
    (e.g. per test) or create dedicated :class:`QueryEngine` sessions
    for isolated workloads.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = QueryEngine()
    return _DEFAULT


def set_default_engine(engine: QueryEngine | None) -> QueryEngine | None:
    """Swap the process-wide session; returns the previous one."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = engine
    return previous
