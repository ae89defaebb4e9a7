"""Materialized answers: version-exact hits, per-branch maintenance."""

from repro.core import shorthands as sh
from repro.core.alphabet import AB
from repro.core.database import Database
from repro.core.query import Query
from repro.core.syntax import And, Not, exists, f_or, lift, rel
from repro.delta import Delta
from repro.engine import QueryEngine
from repro.observability import Tracer
from repro.workloads.generators import example_database


def _join_query():
    return Query(
        ("x", "y"),
        And(rel("R1", "x", "y"), lift(sh.prefix_of("x", "y"))),
        AB,
    )


def _union_query():
    return Query(
        ("x",), f_or(rel("R2", "x"), rel("R1", "x", "x")), AB
    )


def _oracle(query, db, cap):
    return QueryEngine().evaluate(query, db, length=cap, engine="auto")


class TestMaterializedLookup:
    def test_second_evaluation_is_a_version_hit(self):
        db = example_database(AB, seed=11, size=4, max_length=2)
        session = QueryEngine()
        query = _join_query()
        first = session.evaluate(query, db, length=2, materialize=True)
        second = session.evaluate(query, db, length=2, materialize=True)
        assert first == second == _oracle(query, db, 2)
        caches = session.trace_report().caches
        assert caches["materialize"]["hits"] == 1
        assert caches["materialize"]["misses"] == 1

    def test_answers_do_not_depend_on_the_flag(self):
        db = example_database(AB, seed=11, size=4, max_length=2)
        session = QueryEngine()
        query = _union_query()
        plain = session.evaluate(query, db, length=2)
        materialized = session.evaluate(query, db, length=2, materialize=True)
        assert plain == materialized

    def test_different_versions_never_hit_each_other(self):
        db = example_database(AB, seed=11, size=4, max_length=2)
        other = Database(
            AB, {name: set(db.relation(name)) for name in db.relation_names}
        )
        session = QueryEngine()
        query = _union_query()
        a = session.evaluate(query, db, length=2, materialize=True)
        b = session.evaluate(query, other, length=2, materialize=True)
        assert a == b
        assert session.trace_report().caches["materialize"]["hits"] == 0


class TestIncrementalMaintenance:
    def test_insert_is_maintained_semi_naively(self):
        db = example_database(AB, seed=11, size=4, max_length=2)
        session = QueryEngine(tracer=Tracer())
        query = _join_query()
        session.evaluate(query, db, length=2, materialize=True)
        delta = Delta.of(inserts={"R1": [("a", "ab")]})
        db2 = session.apply_delta(db, delta)
        maintained = session.evaluate(query, db2, length=2, materialize=True)
        assert maintained == _oracle(query, db2, 2)
        assert ("a", "ab") in maintained
        counters = session.tracer.counters
        assert counters.get("delta.materialize.maintained", 0) >= 1
        assert counters.get("delta.materialize.branch_semi_naive", 0) >= 1
        # Maintenance already repaired the entry: the post-update
        # evaluation was a hit, not a recomputation.
        assert session.trace_report().caches["materialize"]["hits"] >= 1

    def test_delete_recomputes_the_affected_branch(self):
        db = Database(
            AB,
            {
                "R1": [("a", "ab"), ("b", "bb")],
                "R2": [("a",), ("b",), ("bb",)],
            },
        )
        session = QueryEngine(tracer=Tracer())
        query = _union_query()
        session.evaluate(query, db, length=2, materialize=True)
        # Deleting a short row keeps the cap (len 1 < max recorded).
        delta = Delta.of(deletes={"R2": [("a",)]})
        db2 = session.apply_delta(db, delta)
        maintained = session.evaluate(query, db2, length=2, materialize=True)
        assert maintained == _oracle(query, db2, 2)
        assert ("a",) not in maintained
        counters = session.tracer.counters
        assert counters.get("delta.materialize.branch_recomputed", 0) >= 1

    def test_untouched_relations_skip_branches(self):
        db = example_database(AB, seed=11, size=4, max_length=2)
        session = QueryEngine(tracer=Tracer())
        query = _union_query()  # branches over R2 and R1
        session.evaluate(query, db, length=2, materialize=True)
        present = set(db.relation("R2"))
        row = next(
            (s,)
            for s in ("ba", "ab", "aa", "bb", "a", "b")
            if (s,) not in present
        )
        db2 = session.apply_delta(db, Delta.of(inserts={"R2": [row]}))
        assert db2 is not db
        assert session.evaluate(
            query, db2, length=2, materialize=True
        ) == _oracle(query, db2, 2)
        assert (
            session.tracer.counters.get(
                "delta.materialize.branch_skipped", 0
            )
            >= 1
        )


class TestFallbacks:
    def test_certified_cap_move_drops_the_entry(self):
        db = Database(AB, {"R1": [("a", "ab")], "R2": [("a",)]})
        session = QueryEngine(tracer=Tracer())
        query = _join_query()
        # No explicit length: the cap is certified from the data.
        first = session.evaluate(query, db, materialize=True)
        assert first == QueryEngine().evaluate(query, db)
        # A longer string than any recorded maximum may move the cap.
        delta = Delta.of(inserts={"R1": [("ab", "abb")]})
        db2 = session.apply_delta(db, delta)
        assert (
            session.tracer.counters.get("delta.materialize.cap_dropped", 0)
            == 1
        )
        again = session.evaluate(query, db2, materialize=True)
        assert again == QueryEngine().evaluate(query, db2)
        assert ("ab", "abb") in again

    def test_naive_plans_fall_back_to_from_scratch(self):
        db = example_database(AB, seed=11, size=3, max_length=2)
        session = QueryEngine(tracer=Tracer())
        # Unbound negation forces a NaivePlan root.
        query = Query(
            ("x",), exists("y", Not(rel("R1", "x", "y"))), AB
        )
        got = session.evaluate(query, db, length=1, materialize=True)
        assert got == QueryEngine().evaluate(query, db, length=1)
        counters = session.tracer.counters
        assert counters.get("delta.materialize.naive_fallback", 0) == 1
        # Nothing was stored: a repeat evaluation is another miss.
        session.evaluate(query, db, length=1, materialize=True)
        assert session.trace_report().caches["materialize"]["hits"] == 0
