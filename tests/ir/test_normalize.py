"""Unit tests for the calculus normalization passes."""

from repro.core.alphabet import AB, Alphabet
from repro.core.database import Database
from repro.core import shorthands as sh
from repro.core.syntax import (
    And,
    Not,
    exists,
    f_or,
    free_variables,
    lift,
    rel,
)
from repro.ir import CostModel, build_query_plan, simplify, split_disjuncts
from repro.ir.normalize import MAX_BRANCHES, hoist_prefix
from repro.ir.plan import (
    REASON_BRANCH_LIMIT,
    REASON_DATA_OUTSIDE_DOMAIN,
    REASON_UNBOUND_NEGATION,
    REASON_UNSUPPORTED_LITERAL,
    ConjunctivePlan,
    NaivePlan,
    UnionPlan,
)


def db() -> Database:
    return Database(
        AB,
        {
            "R1": [("a", "b"), ("ab", "ab"), ("b", "b")],
            "R2": [("ab",), ("b",), ("ba",)],
        },
    )


def model(cap: int = 3) -> CostModel:
    return CostModel.for_database(db(), AB, cap)


class TestSimplify:
    def test_double_negation_eliminated(self):
        formula = Not(Not(rel("R2", "x")))
        assert simplify(formula) == rel("R2", "x")

    def test_nested_double_negations(self):
        formula = Not(Not(Not(Not(rel("R2", "x")))))
        assert simplify(formula) == rel("R2", "x")

    def test_vacuous_exists_dropped(self):
        formula = exists("y", rel("R2", "x"))
        assert simplify(formula) == rel("R2", "x")

    def test_binding_exists_kept(self):
        formula = exists("y", rel("R1", "x", "y"))
        assert simplify(formula) == formula

    def test_atoms_unchanged(self):
        atom = rel("R1", "x", "y")
        assert simplify(atom) is atom


class TestSplit:
    def test_disjunction_encoding_recovered(self):
        formula = f_or(rel("R2", "x"), rel("R1", "x", "x"))
        assert split_disjuncts(formula) == [
            rel("R2", "x"),
            rel("R1", "x", "x"),
        ]

    def test_conjunction_distributes(self):
        formula = And(
            f_or(rel("R2", "x"), rel("R2", "y")), rel("R1", "x", "y")
        )
        parts = split_disjuncts(formula)
        assert parts is not None and len(parts) == 2
        assert all(isinstance(part, And) for part in parts)

    def test_exists_distributes(self):
        formula = exists(
            "y", f_or(rel("R1", "x", "y"), rel("R1", "y", "x"))
        )
        parts = split_disjuncts(formula)
        assert parts is not None and len(parts) == 2
        assert {str(p) for p in parts} == {
            "∃y.R1(x,y)",
            "∃y.R1(y,x)",
        }

    def test_conjunctive_formula_is_one_branch(self):
        formula = And(rel("R1", "x", "y"), rel("R2", "y"))
        assert split_disjuncts(formula) == [formula]

    def test_branch_blowup_returns_none(self):
        # Each conjunct is a 2-way disjunction: 2^7 = 128 > MAX_BRANCHES.
        formula = f_or(rel("R2", "x"), rel("R1", "x", "x"))
        for _ in range(6):
            formula = And(
                formula, f_or(rel("R2", "x"), rel("R1", "x", "x"))
            )
        assert 2**7 > MAX_BRANCHES
        assert split_disjuncts(formula) is None


class TestHoist:
    def test_nested_blocks_flatten(self):
        branch = And(
            exists("y", rel("R1", "x", "y")),
            exists("z", rel("R1", "x", "z")),
        )
        prefix, matrix = hoist_prefix(branch, ("x",))
        assert set(prefix) == {"y", "z"}
        assert free_variables(matrix) == {"x", "y", "z"}

    def test_colliding_binder_renamed(self):
        # Both conjuncts bind y: the second must be renamed apart.
        branch = And(
            exists("y", rel("R1", "x", "y")),
            exists("y", rel("R2", "y")),
        )
        prefix, matrix = hoist_prefix(branch, ("x",))
        assert len(prefix) == 2
        assert len(set(prefix)) == 2
        assert "x" not in prefix

    def test_binder_shadowing_head_renamed(self):
        branch = exists("x", rel("R2", "x"))
        prefix, _ = hoist_prefix(branch, ("x",))
        assert prefix and prefix[0] != "x"


class TestBuildQueryPlan:
    def test_conjunctive_single_branch(self):
        formula = And(rel("R1", "x", "y"), rel("R2", "y"))
        plan = build_query_plan(formula, ("x", "y"), model())
        assert isinstance(plan.root, ConjunctivePlan)
        assert plan.fallback_reason is None
        # R1 binds both variables, so R2(y) degrades to a filter.
        assert [step.action for step in plan.root.steps] == ["join", "filter"]

    def test_disjunction_becomes_union(self):
        formula = f_or(rel("R2", "x"), rel("R1", "x", "x"))
        plan = build_query_plan(formula, ("x",), model())
        assert isinstance(plan.root, UnionPlan)
        assert len(plan.branches()) == 2
        fired = dict(plan.rules)
        assert fired["split.de-morgan"] == 1

    def test_relational_joins_ordered_before_string_filters(self):
        formula = And(
            lift(sh.equals("x", "y")),
            And(rel("R1", "x", "y"), rel("R2", "y")),
        )
        plan = build_query_plan(formula, ("x", "y"), model())
        actions = [step.action for step in plan.root.steps]
        assert actions == ["join", "filter", "filter"]
        assert dict(plan.rules).get("order.conjuncts") == 1

    def test_generation_priced_by_cap(self):
        formula = exists(
            "y", And(rel("R2", "y"), lift(sh.concatenation("x", "y", "y")))
        )
        cheap = build_query_plan(formula, ("x",), model(cap=2))
        costly = build_query_plan(formula, ("x",), model(cap=6))
        assert cheap.root.steps[-1].action == "generate"
        assert costly.root.est_cost > cheap.root.est_cost

    def test_unsupported_literal_reason(self):
        plan = build_query_plan(
            Not(exists("y", rel("R1", "x", "y"))), ("x",), model()
        )
        assert isinstance(plan.root, NaivePlan)
        assert plan.fallback_reason == REASON_UNSUPPORTED_LITERAL

    def test_unbound_negation_reason(self):
        plan = build_query_plan(
            exists("y", Not(rel("R1", "x", "y"))), ("x",), model()
        )
        assert plan.fallback_reason == REASON_UNBOUND_NEGATION

    def test_branch_limit_reason(self):
        formula = f_or(rel("R2", "x"), rel("R1", "x", "x"))
        for _ in range(6):
            formula = And(
                formula, f_or(rel("R2", "x"), rel("R1", "x", "x"))
            )
        plan = build_query_plan(formula, ("x",), model())
        assert plan.fallback_reason == REASON_BRANCH_LIMIT

    def test_data_longer_than_the_cap_reason(self):
        # R1 and R2 hold two-character strings, outside Σ^{≤1}.
        formula = And(rel("R2", "x"), lift(sh.constant("x", "b")))
        plan = build_query_plan(formula, ("x",), model(cap=1))
        assert plan.fallback_reason == REASON_DATA_OUTSIDE_DOMAIN
        assert build_query_plan(formula, ("x",), model(cap=2)).branches()
        # Relations the formula does not name never matter.
        empty = build_query_plan(rel("Empty", "x"), ("x",), model(cap=1))
        assert empty.fallback_reason is None

    def test_foreign_symbols_reason(self):
        wide = Database(Alphabet("abc"), {"R": [("ac",)], "S": [("ab",)]})
        narrow = CostModel.for_database(wide, AB, 3)
        assert narrow.foreign == ("R",)
        plan = build_query_plan(rel("R", "x"), ("x",), narrow)
        assert plan.fallback_reason == REASON_DATA_OUTSIDE_DOMAIN
        assert build_query_plan(rel("S", "x"), ("x",), narrow).branches()
        # A database alphabet inside the query alphabet skips the scan.
        assert model().foreign == ()

    def test_simplified_form_always_available(self):
        formula = Not(Not(exists("z", rel("R2", "x"))))
        plan = build_query_plan(formula, ("x",), model())
        assert str(plan.simplified) == "R2(x)"

    def test_plan_is_deterministic(self):
        formula = f_or(rel("R2", "x"), rel("R1", "x", "x"))
        first = build_query_plan(formula, ("x",), model())
        second = build_query_plan(formula, ("x",), model())
        assert first == second
