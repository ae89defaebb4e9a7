"""Tests for the engine registry and the Engine protocol."""

import pytest

from repro.core.alphabet import AB
from repro.core.database import Database
from repro.core.query import Query
from repro.core.syntax import rel
from repro.engine import (
    AutoEngine,
    NaiveEngine,
    QueryEngine,
    available_engines,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.errors import EvaluationError


def db() -> Database:
    return Database(AB, {"R2": [("ab",), ("b",)]})


class TestRegistry:
    def test_defaults_registered(self):
        assert available_engines() == ("algebra", "auto", "naive")

    def test_get_engine_by_name(self):
        assert get_engine("naive") is get_engine("naive")
        assert get_engine("auto").name == "auto"

    def test_get_engine_passes_objects_through(self):
        engine = NaiveEngine()
        assert get_engine(engine) is engine

    def test_unknown_name_raises(self):
        with pytest.raises(EvaluationError):
            get_engine("quantum")

    def test_non_engine_object_raises(self):
        with pytest.raises(EvaluationError):
            get_engine(object())

    def test_register_custom_engine(self):
        class Constant:
            name = "constant-answer"

            def evaluate(self, query, db, session, *, length=None, domain=None):
                return frozenset({("hi",)})

        try:
            register_engine(Constant())
            assert "constant-answer" in available_engines()
            q = Query(("x",), rel("R2", "x"), AB)
            assert q.evaluate(db(), engine="constant-answer") == {("hi",)}
        finally:
            unregister_engine("constant-answer")
        assert "constant-answer" not in available_engines()

    def test_duplicate_registration_needs_replace(self):
        with pytest.raises(EvaluationError):
            register_engine(NaiveEngine())  # "naive" is taken
        register_engine(NaiveEngine(), replace=True)  # restores a fresh one

    def test_nameless_engine_rejected(self):
        class Nameless:
            def evaluate(self, query, db, session, *, length=None, domain=None):
                return frozenset()

        with pytest.raises(EvaluationError):
            register_engine(Nameless())


class TestEngineObjects:
    def test_query_accepts_engine_object(self):
        q = Query(("x",), rel("R2", "x"), AB)
        by_name = q.evaluate(db(), length=2, engine="naive")
        by_object = q.evaluate(db(), length=2, engine=NaiveEngine())
        assert by_name == by_object == {("ab",), ("b",)}

    def test_session_accepts_engine_object(self):
        session = QueryEngine()
        q = Query(("x",), rel("R2", "x"), AB)
        assert session.evaluate(q, db(), engine=AutoEngine()) == {
            ("ab",),
            ("b",),
        }

    def test_unknown_engine_via_query(self):
        q = Query(("x",), rel("R2", "x"), AB)
        with pytest.raises(EvaluationError):
            q.evaluate(db(), length=1, engine="quantum")
