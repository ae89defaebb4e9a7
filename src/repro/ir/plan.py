"""The logical-plan IR: the shape every evaluation strategy consumes.

A :class:`QueryPlan` is the normalized form of an alignment calculus
query: the source formula simplified (double negations eliminated,
vacuous quantifiers dropped), split into a union of conjunctive
branches where possible, each branch's quantifier prefix flattened and
its literals ordered by the cost model into executable
:class:`PlanStep`\\ s.  Shapes the normalizer cannot make conjunctive
degrade to a :class:`NaivePlan` carrying a machine-readable rejection
reason, so fallbacks are observable instead of silent.

All nodes are frozen dataclasses: plans are immutable values that the
engine session caches by structural identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.syntax import Formula, RelAtom, Var, string_variables

#: Stable rejection reasons recorded on :class:`NaivePlan` roots; the
#: engine surfaces them as ``plan.reject.<reason>`` counters.
REASON_UNSUPPORTED_LITERAL = "unsupported-literal"
REASON_UNBOUND_NEGATION = "unbound-negation"
REASON_BRANCH_LIMIT = "branch-limit"
#: A relation the formula names holds a string outside the query
#: alphabet's ``Σ^{<=cap}``: a join would bind it although the
#: truncation semantics never ranges a variable over it.
REASON_DATA_OUTSIDE_DOMAIN = "data-outside-domain"


@dataclass(frozen=True)
class PlanStep:
    """One executable step of a conjunctive branch.

    ``action`` is ``"join"`` (a positive relational atom extending the
    binding set from database rows), ``"generate"`` (a positive string
    atom run as a generator machine for its unbound variables) or
    ``"filter"`` (any fully-bound literal, including negations).
    ``binds`` lists the variables the step newly binds; ``est_rows``
    and ``est_cost`` are the cost model's estimates of the binding
    count after the step and of the step's work.

    ``prefilter`` carries pushed-down index prefilters for ``"join"``
    steps: ``(column, factors)`` pairs meaning every value of that
    argument position must contain each factor as a substring (derived
    from the mandatory transitions of co-occurring selection machines —
    see :func:`repro.ir.rewrite.attach_index_prefilters`).  Executors
    probe the relation's storage index with them to shrink the scanned
    row set; storages without an index simply ignore them.
    """

    action: str
    atom: Formula
    negated: bool
    binds: tuple[Var, ...]
    est_rows: float
    est_cost: float
    prefilter: tuple[tuple[int, tuple[str, ...]], ...] = ()

    def variables(self) -> frozenset[Var]:
        """The variables the underlying literal mentions."""
        if isinstance(self.atom, RelAtom):
            return frozenset(self.atom.args)
        return string_variables(self.atom.formula)

    def describe(self) -> str:
        """A deterministic one-line rendering for ``--explain``."""
        sign = "¬" if self.negated else ""
        return f"{self.action} {sign}{self.atom}"


@dataclass(frozen=True)
class ConjunctivePlan:
    """An ordered conjunctive branch ``∃ quantified . step₁ ∧ … ∧ stepₙ``.

    ``bound_head`` lists the head variables the branch binds, in head
    order; ``free_head`` the head variables absent from the branch —
    the executor pads those with the truncation domain, which is the
    truncation semantics of a disjunct that does not mention them.
    """

    quantified: tuple[Var, ...]
    steps: tuple[PlanStep, ...]
    bound_head: tuple[Var, ...]
    free_head: tuple[Var, ...]
    source: Formula

    @property
    def est_cost(self) -> float:
        """The summed step cost estimates of the branch."""
        return sum(step.est_cost for step in self.steps)

    @property
    def est_rows(self) -> float:
        """The estimated binding count after the final step."""
        return self.steps[-1].est_rows if self.steps else 1.0


@dataclass(frozen=True)
class UnionPlan:
    """A union of conjunctive branches (a normalized disjunction)."""

    branches: tuple[ConjunctivePlan, ...]

    @property
    def est_cost(self) -> float:
        """The summed branch cost estimates."""
        return sum(branch.est_cost for branch in self.branches)


@dataclass(frozen=True)
class NaivePlan:
    """The fallback root: evaluate ``formula`` by naive enumeration.

    ``reason`` is one of the stable ``REASON_*`` strings; the engine
    records it as a counter and span attribute whenever the fallback is
    actually taken.
    """

    formula: Formula
    reason: str


@dataclass(frozen=True)
class QueryPlan:
    """The normalized plan for one query.

    Attributes:
        head: The query's answer variables, in order.
        source: The original formula, untouched (the differential
            oracle evaluates this).
        simplified: The simplification-pass output (double negations
            eliminated, vacuous quantifiers dropped) — what the naive
            strategy evaluates.
        root: A :class:`ConjunctivePlan`, :class:`UnionPlan` or
            :class:`NaivePlan`.
        rules: ``(rule-name, fire-count)`` pairs, sorted by name — the
            normalization passes that actually rewrote something.
    """

    head: tuple[Var, ...]
    source: Formula
    simplified: Formula
    root: ConjunctivePlan | UnionPlan | NaivePlan
    rules: tuple[tuple[str, int], ...]

    @property
    def fallback_reason(self) -> str | None:
        """The rejection reason when the root is naive, else ``None``."""
        return self.root.reason if isinstance(self.root, NaivePlan) else None

    def branches(self) -> tuple[ConjunctivePlan, ...]:
        """The conjunctive branches (empty for a naive root)."""
        if isinstance(self.root, ConjunctivePlan):
            return (self.root,)
        if isinstance(self.root, UnionPlan):
            return self.root.branches
        return ()
