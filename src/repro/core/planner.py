"""The step executors of conjunctive plans.

The theoretical evaluation routes — brute-force enumeration over
``Σ^{<=l}`` (Section 2's truncation semantics) and the Theorem 4.2
algebra translation — both materialize candidate strings per variable,
which is hopeless once the certified truncation bound is loose.  The
paper's Eq. (6) hints at a faster strategy for the query shape

    ∃ y₁ … y_n . (L₁ ∧ L₂ ∧ … ∧ L_m)

where each literal ``Lᵢ`` is a relational atom, a string formula, or a
negation of either.  :mod:`repro.ir.normalize` orders such a branch
into :class:`~repro.ir.plan.PlanStep`\\ s and
:func:`repro.ir.execute.execute_branch` runs them through the three
executors of this module:

1. :func:`_join_relational` — a positive relational atom extends the
   bindings with database rows (grounding variables in stored
   strings);
2. :func:`_generate` — a string formula with unbound variables runs
   its compiled machine as a generalized Mealy machine (Definition
   3.1), producing the unbound variables from the bound ones — capped
   by the truncation bound so unsafe generation cannot run away;
3. :func:`_filter_bound` — a fully-bound literal (including negations)
   filters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.alphabet import Alphabet
from repro.core.database import Database
from repro.core.syntax import RelAtom, Var

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.plan import PlanStep

Binding = dict[Var, str]


def _join_relational(
    bindings: list[Binding],
    literal: "PlanStep",
    db: Database,
    restrict_rows: frozenset[tuple[str, ...]] | None = None,
) -> list[Binding]:
    """Extend bindings with the rows of the step's relation.

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
    out: list[Binding] = []
    for binding in bindings:
        for row in rows:
            extended = dict(binding)
            for var, value in zip(atom.args, row):
                if extended.get(var, value) != value:
                    break
                extended[var] = value
            else:
                out.append(extended)
    return out


def _filter_bound(
    bindings: list[Binding],
    literal: "PlanStep",
    db: Database,
    alphabet: Alphabet | None = None,
    session=None,
    restrict_rows: frozenset[tuple[str, ...]] | None = None,
) -> list[Binding]:
    """Keep the bindings on which the fully-bound literal holds.

    Relational atoms test membership against the database.  String
    atoms run the compiled machine's integer acceptance kernel in one
    batch when a ``session`` (and the query ``alphabet``) is available
    — Theorem 3.1 makes machine acceptance coincide with formula
    satisfaction — and fall back to the reference checker otherwise.

    ``restrict_rows`` narrows a *positive* relational membership test
    to the given rows (the semi-naive maintenance hook); it is never
    applied to negated or string literals.
    """
    from repro.core.semantics import check_string_formula

    out: list[Binding] = []
    if isinstance(literal.atom, RelAtom):
        for binding in bindings:
            row = tuple(binding[v] for v in literal.atom.args)
            if restrict_rows is not None and not literal.negated:
                held = row in restrict_rows
            else:
                held = db.contains(literal.atom.name, row)
            if held != literal.negated:
                out.append(binding)
        return out
    if session is not None and alphabet is not None and bindings:
        compiled = session.compile(literal.atom.formula, alphabet)
        if compiled.variables:
            kernel = session.kernel(compiled.fsa)
            rows = [
                tuple(binding[var] for var in compiled.variables)
                for binding in bindings
            ]
            verdicts = kernel.accepts_batch(rows)
            return [
                binding
                for binding, held in zip(bindings, verdicts)
                if held != literal.negated
            ]
    for binding in bindings:
        held = check_string_formula(literal.atom.formula, binding)
        if held != literal.negated:
            out.append(binding)
    return out


def _generate(
    bindings: list[Binding],
    literal: "PlanStep",
    alphabet: Alphabet,
    cap: int,
    session=None,
    executor=None,
) -> list[Binding]:
    """Extend bindings with the literal's unbound variables via the
    compiled machine's output generation.

    With a ``session`` (a :class:`repro.engine.QueryEngine`), the
    compiled machine, its specializations on already-bound values, and
    the generated answer sets are all served from the session's caches
    — the generator-machine reuse that makes repeated traffic fast.
    With an ``executor`` (a :class:`repro.parallel.ParallelExecutor`)
    the per-binding generator runs — independent by construction — are
    sharded across its worker pool, cache hits resolved in-process
    first and worker results folded back into the session cache.
    """
    from repro.fsa.compile import compile_string_formula
    from repro.fsa.generate import accepted_tuples

    if session is not None:
        compiled = session.compile(literal.atom.formula, alphabet)
    else:
        compiled = compile_string_formula(literal.atom.formula, alphabet)
    fixed_list: list[dict[int, str]] = []
    free_orders: list[list[Var]] = []
    for binding in bindings:
        fixed_list.append(
            {
                compiled.tape_of(var): binding[var]
                for var in compiled.variables
                if var in binding
            }
        )
        free_orders.append(
            [var for var in compiled.variables if var not in binding]
        )
    if executor is not None:
        from repro.parallel.generation import generated_for_fixed

        values_sets = generated_for_fixed(
            compiled.fsa, cap, fixed_list, session=session, executor=executor
        )
    elif session is not None:
        values_sets = [
            session.generated(compiled.fsa, cap, fixed)
            for fixed in fixed_list
        ]
    else:
        values_sets = [
            accepted_tuples(compiled.fsa, max_length=cap, fixed=fixed)
            for fixed in fixed_list
        ]
    out: list[Binding] = []
    for binding, free_order, values_set in zip(
        bindings, free_orders, values_sets
    ):
        for values in values_set:
            extended = dict(binding)
            extended.update(zip(free_order, values))
            out.append(extended)
    return out
