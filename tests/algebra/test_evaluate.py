"""Tests for algebra evaluation, including generative selection."""

import pytest

from repro.algebra.evaluate import evaluate_exact, evaluate_expression
from repro.algebra.expressions import (
    Diff,
    Product,
    Project,
    Rel,
    Select,
    SigmaL,
    SigmaStar,
    Union,
    intersect,
    product_of,
    sigma_power,
)
from repro.core import shorthands as sh
from repro.core.alphabet import AB
from repro.core.database import Database
from repro.engine import QueryEngine
from repro.errors import EvaluationError, UnboundedQueryError
from repro.fsa.compile import compile_string_formula
from repro.safety.domain_independence import expression_limit


def db() -> Database:
    return Database(
        AB,
        {
            "R1": [("a", "b"), ("ab", "ab"), ("b", "a")],
            "R2": [("ab",), ("b",)],
        },
    )


def evaluate(expression, database, length):
    """``db(E ↓ length)`` in a fresh session."""
    return evaluate_expression(expression, database, length, QueryEngine())


class TestBasicOperators:
    def test_relation_lookup(self):
        assert evaluate(Rel("R2", 1), db(), 3) == {("ab",), ("b",)}

    def test_union_diff_intersect(self):
        r2 = Rel("R2", 1)
        first = Project(Rel("R1", 2), (0,))
        got_union = evaluate(Union(r2, first), db(), 3)
        assert got_union == {("ab",), ("b",), ("a",)}
        got_diff = evaluate(Diff(first, r2), db(), 3)
        assert got_diff == {("a",)}
        got_meet = evaluate(intersect(first, r2), db(), 3)
        assert got_meet == {("ab",), ("b",)}

    def test_product(self):
        expr = Product(Rel("R2", 1), Rel("R2", 1))
        assert len(evaluate(expr, db(), 3)) == 4

    def test_project_reorders(self):
        expr = Project(Rel("R1", 2), (1, 0))
        assert evaluate(expr, db(), 3) == {
            ("b", "a"),
            ("ab", "ab"),
            ("a", "b"),
        }

    def test_zero_ary_projection_as_emptiness_test(self):
        assert evaluate(Project(Rel("R2", 1), ()), db(), 3) == {()}
        assert evaluate(Project(Rel("R9", 1), ()), db(), 3) == frozenset()

    def test_sigma_truncation(self):
        got = evaluate(SigmaStar(), db(), 1)
        assert got == {("",), ("a",), ("b",)}
        got_l = evaluate(SigmaL(1), db(), 5)
        assert got_l == {("",), ("a",), ("b",)}

    def test_negative_length_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate(Rel("R2", 1), db(), -1)


class TestSelection:
    def test_select_filters_database_tuples(self):
        machine = compile_string_formula(sh.equals("x", "y"), AB).fsa
        expr = Select(Rel("R1", 2), machine)
        assert evaluate(expr, db(), 3) == {("ab", "ab")}

    def test_generative_selection_concatenation(self):
        # The paper's Section 4 running example:
        # π₁ σ_A (Σ* × R1' × R3') — strings that concatenate a string
        # from one relation with a string from another.
        base = Database(AB, {"Ry": [("a",), ("b",)], "Rz": [("b",)]})
        machine = compile_string_formula(
            sh.concatenation("x", "y", "z"), AB, variables=("x", "y", "z")
        ).fsa
        expr = Project(
            Select(
                product_of([SigmaStar(), Rel("Ry", 1), Rel("Rz", 1)]), machine
            ),
            (0,),
        )
        assert evaluate(expr, base, 4) == {("ab",), ("bb",)}

    def test_generative_selection_matches_materialized(self):
        machine = compile_string_formula(sh.prefix_of("x", "y"), AB).fsa
        generative = Select(
            product_of([SigmaStar(), Rel("R2", 1)]), machine
        )
        materialized = Select(
            product_of([SigmaL(2), Rel("R2", 1)]), machine
        )
        assert evaluate(generative, db(), 2) == evaluate(
            materialized, db(), 2
        )

    def test_generative_selection_sigma_in_middle(self):
        machine = compile_string_formula(
            sh.concatenation("x", "y", "z"), AB, variables=("x", "y", "z")
        ).fsa
        expr = Select(
            product_of([Rel("R2", 1), SigmaStar(), Rel("R2", 1)]), machine
        )
        got = evaluate(expr, db(), 2)
        # x=ab: splits with z ∈ {ab, b}: y="" z="ab", y="a" z="b";
        # x=b: y="" z="b".
        assert got == {("ab", "", "ab"), ("ab", "a", "b"), ("b", "", "b")}

    def test_selection_over_sigma_only(self):
        machine = compile_string_formula(sh.constant("x", "ab"), AB).fsa
        expr = Select(product_of([SigmaStar()]), machine)
        assert evaluate(expr, db(), 3) == {("ab",)}


class TestExactEvaluation:
    def test_certified_limit_matches_truncated_evaluation(self):
        # π₁(σ_A(R2 × Σ*)) with A = "x is a prefix of y": the Σ* column
        # x is generated from each stored y.
        machine = compile_string_formula(
            sh.prefix_of("x", "y"), AB, variables=("y", "x")
        ).fsa
        expr = Project(
            Select(product_of([Rel("R2", 1), SigmaStar()]), machine), (1,)
        )
        limit = expression_limit(expr, db())
        assert limit == 66
        exact = evaluate_exact(expr, db(), QueryEngine())
        assert exact == evaluate(expr, db(), limit)
        assert exact == {("",), ("a",), ("ab",), ("b",)}

    def test_bare_sigma_star_is_unbounded(self):
        with pytest.raises(UnboundedQueryError):
            evaluate_exact(SigmaStar(), db(), QueryEngine())
