"""Tests for Theorems 4.1 / 4.2: calculus ⇄ algebra agreement."""

import pytest

from repro.algebra.evaluate import evaluate_expression
from repro.algebra.expressions import (
    Product,
    Project,
    Rel,
    Select,
    SigmaL,
    SigmaStar,
    Union,
    product_of,
)
from repro.algebra.translate import (
    algebra_to_calculus,
    calculus_to_algebra,
    partitioned,
)
from repro.core import shorthands as sh
from repro.core.alphabet import AB
from repro.core.database import Database
from repro.core.semantics import evaluate_naive
from repro.core.syntax import And, Exists, Not, exists, free_variables, lift, rel
from repro.engine import QueryEngine
from repro.errors import EvaluationError
from repro.fsa.compile import compile_string_formula


def db() -> Database:
    return Database(
        AB,
        {
            "R1": [("a", "b"), ("ab", "ab"), ("b", "a"), ("b", "b")],
            "R2": [("ab",), ("b",)],
        },
    )


def assert_agree(formula, head, length=2):
    """Naive calculus answer == translated algebra answer."""
    database = db()
    domain = tuple(AB.strings(length))
    expected = evaluate_naive(formula, head, database, domain)
    expression = calculus_to_algebra(formula, head, AB)
    got = evaluate_expression(expression, database, length, QueryEngine())
    assert got == expected, (formula, expected, got)


class TestPartitioned:
    def test_equates_columns(self):
        expr = partitioned(Rel("R1", 2), [[0, 1]], AB)
        got = evaluate_expression(expr, db(), 3, QueryEngine())
        assert got == {("ab",), ("b",)}

    def test_reorders_by_parts(self):
        expr = partitioned(Rel("R1", 2), [[1], [0]], AB)
        got = evaluate_expression(expr, db(), 3, QueryEngine())
        assert ("b", "a") in got and ("a", "b") in got

    def test_partition_must_cover(self):
        from repro.errors import ArityError

        with pytest.raises(ArityError):
            partitioned(Rel("R1", 2), [[0]], AB)


class TestCalculusToAlgebra:
    def test_relational_atom(self):
        assert_agree(rel("R1", "x", "y"), ("x", "y"))

    def test_relational_atom_repeated_variable(self):
        assert_agree(rel("R1", "x", "x"), ("x",))

    def test_string_atom(self):
        assert_agree(lift(sh.constant("x", "ab")), ("x",))

    def test_conjunction_shared_variable(self):
        phi = And(rel("R1", "x", "y"), rel("R2", "y"))
        assert_agree(phi, ("x", "y"))

    def test_conjunction_with_string_formula(self):
        phi = And(rel("R1", "x", "y"), lift(sh.equals("x", "y")))
        assert_agree(phi, ("x", "y"))

    def test_negation(self):
        phi = And(rel("R2", "x"), Not(rel("R1", "x", "x")))
        assert_agree(phi, ("x",))

    def test_exists(self):
        phi = exists("y", rel("R1", "x", "y"))
        assert_agree(phi, ("x",))

    def test_exists_with_string_constraint(self):
        phi = exists(
            ["y", "z"],
            And(
                And(rel("R2", "y"), rel("R2", "z")),
                lift(sh.concatenation("x", "y", "z")),
            ),
        )
        assert_agree(phi, ("x",), length=3)

    def test_head_reordering(self):
        phi = rel("R1", "x", "y")
        expr = calculus_to_algebra(phi, ("y", "x"), AB)
        got = evaluate_expression(expr, db(), 2, QueryEngine())
        expected = {(v, u) for (u, v) in db().relation("R1")}
        assert got == expected

    def test_head_must_match_free_variables(self):
        with pytest.raises(EvaluationError):
            calculus_to_algebra(rel("R1", "x", "y"), ("x",), AB)

    def test_vacuous_exists(self):
        phi = Exists("q", rel("R2", "x"))
        assert_agree(phi, ("x",))


class TestAlgebraToCalculus:
    def assert_roundtrip(self, expression, length=2):
        database = db()
        formula = algebra_to_calculus(expression)
        head = tuple(sorted(free_variables(formula)))
        # Columns are x1..xk: sorted order equals column order for k <= 9.
        domain = tuple(AB.strings(length))
        expected = evaluate_expression(
            expression, database, length, QueryEngine()
        )
        got = evaluate_naive(formula, head, database, domain)
        assert got == expected, (expression, expected, got)

    def test_relation(self):
        self.assert_roundtrip(Rel("R1", 2))

    def test_union(self):
        self.assert_roundtrip(Union(Rel("R2", 1), Project(Rel("R1", 2), (0,))))

    def test_difference(self):
        from repro.algebra.expressions import Diff

        self.assert_roundtrip(Diff(SigmaL(1), Rel("R2", 1)))

    def test_product(self):
        self.assert_roundtrip(Product(Rel("R2", 1), Rel("R2", 1)))

    def test_projection(self):
        self.assert_roundtrip(Project(Rel("R1", 2), (1,)))

    def test_projection_reorder(self):
        self.assert_roundtrip(Project(Rel("R1", 2), (1, 0)))

    def test_sigma_l(self):
        self.assert_roundtrip(SigmaL(1))

    def test_sigma_star_is_identically_true(self):
        formula = algebra_to_calculus(SigmaStar())
        database = db()
        domain = tuple(AB.strings(2))
        got = evaluate_naive(formula, ("x1",), database, domain)
        assert got == {(u,) for u in domain}

    def test_select(self):
        machine = compile_string_formula(sh.equals("x", "y"), AB).fsa
        self.assert_roundtrip(Select(Rel("R1", 2), machine))

    def test_nested_projection_of_select(self):
        machine = compile_string_formula(
            sh.prefix_of("x", "y"), AB, variables=("x", "y")
        ).fsa
        expr = Project(Select(Product(Rel("R2", 1), Rel("R2", 1)), machine), (0,))
        self.assert_roundtrip(expr)
