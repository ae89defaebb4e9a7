"""Executing normalized plans against a database.

The theoretical evaluation routes — brute-force enumeration over
``Σ^{<=l}`` (Section 2's truncation semantics) and the Theorem 4.2
algebra translation — both materialize candidate strings per variable,
which is hopeless once the certified truncation bound is loose.  The
paper's Eq. (6) hints at a faster strategy for the query shape

    ∃ y₁ … y_n . (L₁ ∧ L₂ ∧ … ∧ L_m)

where each literal ``Lᵢ`` is a relational atom, a string formula, or a
negation of either.  :mod:`repro.ir.normalize` orders such a branch
into a :class:`~repro.ir.plan.ConjunctivePlan` of
:class:`~repro.ir.plan.PlanStep`\\ s, and :func:`execute_branch` runs
them in that order through three executors:

1. :func:`_join_relational` — a positive relational atom extends the
   bindings with database rows (grounding variables in stored
   strings);
2. :func:`_generate` — a string formula with unbound variables runs
   its compiled machine as a generalized Mealy machine (Definition
   3.1), producing the unbound variables from the bound ones — capped
   by the truncation bound so unsafe generation cannot run away;
3. :func:`_filter_bound` — a fully-bound literal (including negations)
   filters.

Bindings are positional: each one is a tuple over the branch's
*schema*, the variable order the plan fixes step by step (a join
appends its atom's new variables, a generate step its free ones).  A
join that binds only fresh variables passes the storage's row tuples
through unchanged; shared and repeated variables become equality
checks on column indices; a string filter hands the acceptance kernel
the bound columns in one batch; and the final projection is the
identity when the schema is the branch's bound head.

A :class:`~repro.ir.plan.UnionPlan` executes each branch independently
and unions the answers; branch independence is what lets the ``auto``
strategy parallelize expensive branches while running cheap ones
in-process.

Head variables a branch does not mention are padded with the full
truncation domain ``Σ^{≤cap}`` — the truncation semantics of a
disjunct that leaves an answer variable unconstrained.  Join steps
bind stored strings, which lie in that domain too: the normalizer
degrades every plan over data outside it to a naive root
(``data-outside-domain``), so execution and the reference semantics
compute one set.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import partial
from itertools import compress
from operator import itemgetter, not_
from typing import TYPE_CHECKING

from repro.core.alphabet import Alphabet
from repro.core.database import Database
from repro.core.syntax import RelAtom, Var
from repro.errors import EvaluationError
from repro.ir.plan import ConjunctivePlan, NaivePlan, PlanStep, QueryPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.session import QueryEngine
    from repro.parallel.executor import ParallelExecutor

#: The variables a branch's bindings hold, in tuple order.
Schema = tuple[Var, ...]

#: One binding: a value per :data:`Schema` variable.
Binding = tuple[str, ...]


def _columns(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """A getter picking ``indices`` out of a row, always as a tuple."""
    if len(indices) == 1:
        (index,) = indices
        return lambda row: (row[index],)
    if not indices:
        return lambda row: ()
    return itemgetter(*indices)


def _project(
    schema: Schema, variables: Sequence[Var], bindings: list[Binding]
) -> list[Binding]:
    """The bindings' values of ``variables``, in that order."""
    if tuple(variables) == schema:
        return bindings
    getter = _columns([schema.index(var) for var in variables])
    return list(map(getter, bindings))


def _join_relational(
    schema: Schema,
    bindings: list[Binding],
    literal: PlanStep,
    db: Database,
    restrict_rows: frozenset[tuple[str, ...]] | None = None,
) -> tuple[Schema, list[Binding]]:
    """Extend bindings with the rows of the step's relation.

    The atom's new variables are appended to the schema.  Variables
    the schema already holds are matched through a hash on their
    columns; a variable repeated among the new ones keeps only the
    rows that agree on its columns.

    When the step carries pushed-down index ``prefilter`` factors
    *and* the relation's storage backend answers candidate probes,
    only the candidate rows are scanned — the ``index.pruned`` counter
    records how many rows the probe excluded.  Backends without an
    index (or steps without prefilters) scan the full relation.

    ``restrict_rows`` replaces the scanned row set entirely — the
    semi-naive maintenance hook: incremental re-execution feeds the
    delta's rows through this one step while every other step sees
    the full database.
    """
    from repro.observability import current_tracer
    from repro.storage import probe_candidates

    atom: RelAtom = literal.atom
    view = db.relation(atom.name)
    rows = view if restrict_rows is None else restrict_rows
    prefilter = literal.prefilter
    if prefilter and restrict_rows is None:
        storage = view.storage
        rows_for = getattr(storage, "rows_for", None)
        candidates: frozenset[int] | None = None
        for column, factors in prefilter:
            found = probe_candidates(storage, column, factors)
            if found is None:
                continue
            candidates = (
                found if candidates is None else candidates & found
            )
            if not candidates:
                break
        if candidates is not None and rows_for is not None:
            current_tracer().add(
                "index.pruned", storage.size() - len(candidates)
            )
            rows = tuple(rows_for(candidates))
    shared: list[tuple[int, int]] = []  # (column, schema index)
    repeated: list[tuple[int, int]] = []  # (column, first column)
    fresh: dict[Var, int] = {}  # new variable -> its first column
    for column, var in enumerate(atom.args):
        if var in schema:
            shared.append((column, schema.index(var)))
        elif var in fresh:
            repeated.append((column, fresh[var]))
        else:
            fresh[var] = column
    if repeated:
        rows = [
            row
            for row in rows
            if all(row[column] == row[first] for column, first in repeated)
        ]
    joined = schema + tuple(fresh)
    extend = _columns(list(fresh.values()))
    if not shared:
        if len(fresh) == len(atom.args):
            extensions = list(rows)
        else:
            extensions = list(map(extend, rows))
        if not schema:  # the first step: bindings == [()]
            return joined, extensions
        return joined, [b + e for b in bindings for e in extensions]
    row_key = _columns([column for column, _ in shared])
    matches: dict[tuple, list[Binding]] = {}
    for row in rows:
        matches.setdefault(row_key(row), []).append(extend(row))
    binding_key = _columns([index for _, index in shared])
    return joined, [
        b + e for b in bindings for e in matches.get(binding_key(b), ())
    ]


def _filter_bound(
    schema: Schema,
    bindings: list[Binding],
    literal: PlanStep,
    db: Database,
    alphabet: Alphabet,
    session: "QueryEngine",
    restrict_rows: frozenset[tuple[str, ...]] | None = None,
) -> list[Binding]:
    """Keep the bindings on which the fully-bound literal holds.

    Relational atoms test membership against the database.  String
    atoms run the session-compiled machine's acceptance kernel in one
    batch — Theorem 3.1 makes machine acceptance coincide with formula
    satisfaction; a closed string formula (no tapes) goes to the
    reference checker.

    ``restrict_rows`` narrows a *positive* relational membership test
    to the given rows (the semi-naive maintenance hook); it is never
    applied to negated or string literals.
    """
    from repro.core.semantics import check_string_formula

    atom = literal.atom
    if isinstance(atom, RelAtom):
        if restrict_rows is not None and not literal.negated:
            member = restrict_rows.__contains__
        else:
            member = partial(db.contains, atom.name)
        held = map(member, _project(schema, atom.args, bindings))
    else:
        compiled = session.compile(atom.formula, alphabet)
        if compiled.variables:
            held = session.kernel(compiled.fsa).accepts_batch(
                _project(schema, compiled.variables, bindings)
            )
        else:
            held = (
                check_string_formula(atom.formula, dict(zip(schema, binding)))
                for binding in bindings
            )
    if literal.negated:
        held = map(not_, held)
    return list(compress(bindings, held))


def _generate(
    schema: Schema,
    bindings: list[Binding],
    literal: PlanStep,
    alphabet: Alphabet,
    cap: int,
    session: "QueryEngine",
    executor: "ParallelExecutor | None" = None,
) -> tuple[Schema, list[Binding]]:
    """Extend bindings with the literal's unbound variables via the
    compiled machine's output generation.

    The unbound variables are appended to the schema in tape order.
    Each binding's bound tapes form one key of
    :meth:`repro.engine.QueryEngine.generated`, which runs every
    distinct key once — from the session's caches, in-process, or on
    the ``executor``'s pool.
    """
    compiled = session.compile(literal.atom.formula, alphabet)
    fixed_tapes = [
        (compiled.tape_of(var), schema.index(var))
        for var in compiled.variables
        if var in schema
    ]
    keys = [
        tuple((tape, binding[index]) for tape, index in fixed_tapes)
        for binding in bindings
    ]
    answers = session.generated(compiled.fsa, cap, keys, executor)
    free = tuple(var for var in compiled.variables if var not in schema)
    extended = dict.fromkeys(
        binding + values
        for binding, key in zip(bindings, keys)
        for values in answers[key]
    )
    return schema + free, list(extended)


def execute_branch(
    branch: ConjunctivePlan,
    head: tuple,
    db: Database,
    alphabet: Alphabet,
    cap: int,
    session: "QueryEngine",
    executor: "ParallelExecutor | None" = None,
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
        session: The :class:`repro.engine.QueryEngine` backing the
            compile / kernel / generate / domain caches.
        executor: An optional :class:`repro.parallel.ParallelExecutor`
            running the generate steps' misses on its pool.
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
    schema: Schema = ()
    bindings: list[Binding] = [()]
    for index, step in enumerate(branch.steps):
        restricted = restrict.get(index) if restrict else None
        with tracer.span(
            f"execute.{step.action}", stage="execute", bindings=len(bindings)
        ):
            if step.action == "filter":
                bindings = _filter_bound(
                    schema, bindings, step, db, alphabet, session,
                    restrict_rows=restricted,
                )
            elif step.action == "join":
                schema, bindings = _join_relational(
                    schema, bindings, step, db, restrict_rows=restricted
                )
            else:
                schema, bindings = _generate(
                    schema, bindings, step, alphabet, cap, session, executor
                )
        if not bindings:
            return frozenset()
    projected = frozenset(_project(schema, branch.bound_head, bindings))
    if not branch.free_head:
        return projected
    if domain is None:
        domain = session.domain_for(alphabet, cap)
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
    session: "QueryEngine",
    executor_for: (
        Callable[[ConjunctivePlan], ParallelExecutor | None] | None
    ) = None,
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
        session: The engine session backing the caches.
        executor_for: An optional per-branch executor chooser (return
            ``None`` to run a branch in-process).
        domain: The padding domain for unmentioned head variables;
            defaults to ``Σ^{≤cap}``.

    Returns:
        The union of branch answers in head order; a one-branch plan's
        answer is the branch's frozenset itself, not a copy.

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
    parts = []
    for index, branch in enumerate(plan.branches()):
        chosen = executor_for(branch) if executor_for is not None else None
        with tracer.span(
            "execute.branch",
            stage="execute",
            branch=index,
            steps=len(branch.steps),
        ):
            parts.append(
                execute_branch(
                    branch, plan.head, db, alphabet, cap, session, chosen,
                    domain,
                )
            )
    if len(parts) == 1:
        return parts[0]
    return frozenset().union(*parts)
