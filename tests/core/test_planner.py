"""Tests for the plan route: conjunctive plans and their step executors.

Paper queries are normalized (:func:`repro.ir.build_query_plan`) and
executed (:func:`repro.ir.execute.execute_plan`, which runs the join /
generate / filter executors of :mod:`repro.ir.execute`); the answers
must match the naive reference.  Shapes outside the conjunctive
fragment get a naive plan root, which ``auto`` records and answers
with the reference semantics.
"""

from repro.core import shorthands as sh
from repro.core.alphabet import AB
from repro.core.database import Database
from repro.core.query import Query
from repro.core.semantics import evaluate_naive
from repro.core.syntax import And, Not, exists, f_or, lift, rel
from repro.engine import QueryEngine
from repro.ir import CostModel, build_query_plan
from repro.ir.execute import execute_plan
from repro.ir.plan import (
    REASON_UNBOUND_NEGATION,
    REASON_UNSUPPORTED_LITERAL,
)
from repro.observability import Tracer


def db() -> Database:
    return Database(
        AB,
        {
            "R1": [("a", "b"), ("ab", "ab"), ("b", "b")],
            "R2": [("ab",), ("b",), ("ba",)],
        },
    )


def plan_for(formula, head, cap=3):
    return build_query_plan(
        formula, tuple(head), CostModel.for_database(db(), AB, cap)
    )


def assert_matches_naive(formula, head, length=3):
    database = db()
    expected = evaluate_naive(
        formula, head, database, tuple(AB.strings(length))
    )
    plan = plan_for(formula, head, length)
    assert plan.fallback_reason is None, plan.fallback_reason
    got = execute_plan(plan, database, AB, length, QueryEngine())
    assert got == expected, (formula, expected, got)


class TestPlanner:
    def test_pure_relational_join(self):
        assert_matches_naive(
            And(rel("R1", "x", "y"), rel("R2", "y")), ("x", "y")
        )

    def test_selection_by_string_formula(self):
        assert_matches_naive(
            And(rel("R1", "x", "y"), lift(sh.equals("x", "y"))), ("x", "y")
        )

    def test_generation_of_new_strings(self):
        formula = exists(
            ["y", "z"],
            And(
                And(rel("R2", "y"), rel("R2", "z")),
                lift(sh.concatenation("x", "y", "z")),
            ),
        )
        assert_matches_naive(formula, ("x",), length=4)

    def test_negated_string_literal(self):
        formula = And(rel("R2", "x"), Not(lift(sh.constant("x", "ab"))))
        assert_matches_naive(formula, ("x",))

    def test_negated_relational_literal(self):
        formula = And(rel("R2", "x"), Not(rel("R1", "x", "x")))
        assert_matches_naive(formula, ("x",))

    def test_bidirectional_generation(self):
        # y is bidirectional in x ∈*_s y: exercises on-the-fly two-way
        # generation.
        formula = exists("x", And(rel("R2", "x"), lift(sh.manifold("x", "y"))))
        assert_matches_naive(formula, ("y",), length=3)

    def test_unsupported_shapes_return_none(self):
        """No conjunctive plan for a negated quantifier: the root is
        naive.  Disjunctions split into a union of branches instead."""
        disjunction = f_or(rel("R2", "x"), rel("R2", "x"))
        assert_matches_naive(disjunction, ("x",))
        nested = Not(exists("y", rel("R1", "x", "y")))
        assert plan_for(nested, ("x",)).branches() == ()
        assert (
            plan_for(nested, ("x",)).fallback_reason
            == REASON_UNSUPPORTED_LITERAL
        )

    def test_unbound_negation_unsupported(self):
        formula = exists("y", Not(rel("R1", "x", "y")))
        assert plan_for(formula, ("x",)).fallback_reason == (
            REASON_UNBOUND_NEGATION
        )

    def test_join_on_two_variables_bound_in_the_other_order(self):
        # R1 binds (y, x); R3 then matches both columns against the
        # bindings in the opposite order to the one they hold them in.
        database = Database(
            AB,
            {
                "R1": [("a", "b"), ("b", "a"), ("ab", "b")],
                "R3": [
                    ("b", "a", "ab"),
                    ("a", "b", "b"),
                    ("b", "ab", "a"),
                    ("a", "a", "a"),
                    ("ab", "ab", "ab"),
                ],
            },
        )
        formula = And(rel("R1", "y", "x"), rel("R3", "x", "y", "z"))
        head = ("x", "y", "z")
        plan = build_query_plan(
            formula, head, CostModel.for_database(database, AB, 2)
        )
        (branch,) = plan.branches()
        assert [(step.action, step.atom.name) for step in branch.steps] == [
            ("join", "R1"),
            ("join", "R3"),
        ]
        expected = evaluate_naive(
            formula, head, database, tuple(AB.strings(2))
        )
        assert expected == {
            ("b", "a", "ab"),
            ("a", "b", "b"),
            ("b", "ab", "a"),
        }
        assert execute_plan(plan, database, AB, 2, QueryEngine()) == expected

    def test_one_branch_answer_is_returned_as_is(self, monkeypatch):
        from repro.ir import execute

        answers = []

        def recording(*args, **kwargs):
            answers.append(original(*args, **kwargs))
            return answers[-1]

        original = execute.execute_branch
        monkeypatch.setattr(execute, "execute_branch", recording)
        one = plan_for(And(rel("R2", "x"), lift(sh.equals("x", "x"))), "x")
        got = execute_plan(one, db(), AB, 3, QueryEngine())
        assert len(one.branches()) == 1
        assert got is answers[-1]
        assert got == {("ab",), ("b",), ("ba",)}
        two = plan_for(f_or(rel("R2", "x"), rel("R1", "x", "x")), "x")
        got = execute_plan(two, db(), AB, 3, QueryEngine())
        assert len(two.branches()) == 2
        assert type(got) is frozenset
        assert got == answers[-2] | answers[-1]

    def test_empty_result_short_circuits(self):
        formula = And(rel("Empty", "x"), lift(sh.constant("x", "a")))
        plan = plan_for(formula, ("x",))
        assert execute_plan(plan, db(), AB, 3, QueryEngine()) == frozenset()

    def test_query_planner_engine(self):
        q = Query(
            ("x", "y"),
            And(rel("R1", "x", "y"), lift(sh.equals("x", "y"))),
            AB,
        )
        assert q.evaluate(db(), length=3, engine="auto") == {
            ("ab", "ab"),
            ("b", "b"),
        }

    def test_query_planner_handles_disjunction(self):
        # Disjunctions used to be rejected wholesale; the normalizer
        # now splits them into a union of conjunctive branches.
        formula = f_or(rel("R2", "x"), rel("R1", "x", "x"))
        q = Query(("x",), formula, AB)
        expected = evaluate_naive(
            formula, ("x",), db(), tuple(AB.strings(2))
        )
        assert q.evaluate(db(), length=2, engine="auto") == expected

    def test_query_planner_rejects_unsupported(self):
        # A negated quantifier is not a literal, so the plan degrades
        # to a naive root: auto records the rejection and answers with
        # the reference semantics.
        q = Query(("x",), Not(exists("y", rel("R1", "x", "y"))), AB)
        session = QueryEngine(tracer=Tracer())
        expected = evaluate_naive(
            q.formula, q.head, db(), tuple(AB.strings(2))
        )
        assert session.evaluate(q, db(), length=2) == expected
        assert session.stats.rejects == {REASON_UNSUPPORTED_LITERAL: 1}
        assert session.tracer.counters[
            f"plan.reject.{REASON_UNSUPPORTED_LITERAL}"
        ] == 1
