"""The logical-plan IR and optimizer pass framework.

One normalized representation — :class:`QueryPlan` — that every
evaluation strategy consumes:

* :mod:`repro.ir.plan` — the IR nodes (conjunctive branches, unions,
  the observable naive fallback);
* :mod:`repro.ir.cost` — the cost model fed from per-column storage
  statistics (distinct counts, longest lengths, character totals) and
  the certified truncation bound;
* :mod:`repro.ir.normalize` — calculus-level passes (simplify, De
  Morgan disjunct splitting, quantifier hoisting, cost-ranked conjunct
  ordering);
* :mod:`repro.ir.rewrite` — algebra-level passes (selection pushdown,
  selection fusion via the sequencing product, projection pushdown,
  machine minimization) plus the index-prefilter pushdown over
  normalized plans (mandatory selection factors pushed onto join
  steps for n-gram index probing);
* :mod:`repro.ir.execute` — plan execution behind the ``auto``
  strategy and materialized-answer maintenance;
* :mod:`repro.ir.explain` — the deterministic ``--explain`` renderer.
"""

from repro.ir.cost import CostModel
from repro.ir.execute import execute_branch, execute_plan
from repro.ir.explain import explain_query, render_expression, render_plan
from repro.ir.normalize import build_query_plan, simplify, split_disjuncts
from repro.ir.plan import (
    ConjunctivePlan,
    NaivePlan,
    PlanStep,
    QueryPlan,
    UnionPlan,
)
from repro.ir.rewrite import (
    attach_index_prefilters,
    optimize_expression,
    required_factors,
    translate_branches,
)

__all__ = [
    "ConjunctivePlan",
    "CostModel",
    "NaivePlan",
    "PlanStep",
    "QueryPlan",
    "UnionPlan",
    "attach_index_prefilters",
    "build_query_plan",
    "execute_branch",
    "execute_plan",
    "explain_query",
    "optimize_expression",
    "required_factors",
    "render_expression",
    "render_plan",
    "simplify",
    "split_disjuncts",
    "translate_branches",
]
