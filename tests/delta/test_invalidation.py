"""Cache validity under updates: keys decide, plans are replaced lazily.

Every session cache is keyed by the inputs its value is computed from,
so an update evicts nothing.  The one database-dependent value, the
normalized plan, is stamped with the cap and the statistics signature
it was priced under; a lookup under another stamp replans and replaces
the entry in place, so the session keeps one plan per query.
"""

from itertools import product

from repro.core import shorthands as sh
from repro.core.alphabet import AB
from repro.core.query import Query
from repro.core.syntax import And, lift, rel
from repro.delta import Delta
from repro.engine import QueryEngine
from repro.engine.caches import KeyedCache
from repro.observability import Tracer
from repro.workloads.generators import example_database


class TestKeyedCacheStamps:
    def test_new_stamp_replaces_the_entry_in_place(self):
        cache = KeyedCache("demo")
        assert cache.get_or_compute("k", lambda: 1, stamp=("v", 1)) == 1
        assert cache.get_or_compute("k", lambda: -1, stamp=("v", 1)) == 1
        assert cache.stats.invalidated == 0
        assert cache.get_or_compute("k", lambda: 2, stamp=("v", 2)) == 2
        assert len(cache) == 1
        assert cache.stats.invalidated == 1
        assert (cache.stats.hits, cache.stats.misses) == (1, 2)
        # The replacement is served under its own stamp.
        assert cache.get_or_compute("k", lambda: -1, stamp=("v", 2)) == 2

    def test_unstamped_entries_stay(self):
        cache = KeyedCache("demo")
        cache.get_or_compute("pure", lambda: 42)
        cache.store("worker", "v")
        assert cache.get_or_compute("pure", lambda: -1) == 42
        assert cache.peek("worker") == "v"
        assert cache.get_or_compute("worker", lambda: "w") == "v"
        assert len(cache) == 2
        assert cache.stats.invalidated == 0


def _join_query():
    return Query(
        ("x", "y"),
        And(rel("R1", "x", "y"), lift(sh.prefix_of("x", "y"))),
        AB,
    )


def _single_query():
    return Query(("x",), rel("R2", "x"), AB)


class TestSessionInvalidation:
    def test_update_evicts_dependent_but_not_pure_entries(self):
        db = example_database(AB, seed=5, size=4, max_length=2)
        session = QueryEngine(tracer=Tracer())
        session.evaluate(_join_query(), db, length=2, engine="auto")
        session.evaluate(_single_query(), db, length=2, engine="auto")
        compile_misses = session.trace_report().caches["compile"]["misses"]
        db2 = session.apply_delta(
            db, Delta.of(inserts={"R1": [("b", "bb")]})
        )
        assert db2 is not db
        # Replacement is lazy: the plans priced against the old
        # statistics are replaced when the new version looks them up.
        session.evaluate(_join_query(), db2, length=2, engine="auto")
        session.evaluate(_single_query(), db2, length=2, engine="auto")
        caches = session.trace_report().caches
        assert caches["ir"]["invalidated"] == 2
        assert caches["ir"]["misses"] - caches["ir"]["invalidated"] == 2
        # The pure machine cache was never touched: replaying both
        # queries against the new version compiles nothing new.
        assert caches["compile"].get("invalidated", 0) == 0
        assert caches["compile"]["misses"] == compile_misses, (
            "compiled machines should survive every update"
        )
        # --stats shows the replacements on the replaced cache's line.
        lines = {
            line.split()[1]: line
            for line in session.trace_report().summary().splitlines()
            if line.startswith("cache ")
        }
        assert "invalidated=" in lines["ir"]
        assert "invalidated=" not in lines["compile"]

    def test_invalidation_counters_reach_the_tracer(self):
        db = example_database(AB, seed=5, size=4, max_length=2)
        session = QueryEngine(tracer=Tracer())
        session.evaluate(_join_query(), db, length=2, engine="auto")
        db2 = session.apply_delta(
            db, Delta.of(inserts={"R1": [("b", "bb")]})
        )
        session.evaluate(_join_query(), db2, length=2, engine="auto")
        counters = session.tracer.counters
        assert counters.get("delta.applied") == 1
        assert any(
            name.startswith("cache.invalidate.") for name in counters
        ), f"no invalidation counters in {sorted(counters)}"

    def test_evaluation_answers_survive_invalidation(self):
        db = example_database(AB, seed=7, size=4, max_length=2)
        session = QueryEngine()
        query = _join_query()
        session.evaluate(query, db, length=2, engine="auto")
        db2 = session.apply_delta(
            db, Delta.of(inserts={"R1": [("a", "ab")]})
        )
        warm = session.evaluate(query, db2, length=2, engine="auto")
        fresh = QueryEngine().evaluate(query, db2, length=2, engine="auto")
        assert warm == fresh
        assert ("a", "ab") in warm

    def test_planning_before_evaluation_keeps_one_plan_per_query(self):
        # The daemon prices each request (query_plan) before it
        # evaluates it; every update must still leave one plan.
        db = example_database(AB, seed=5, size=4, max_length=2)
        session = QueryEngine()
        query = _join_query()
        stored = set(db.relation("R1"))
        fresh = [
            row
            for row in product(AB.strings(3), repeat=2)
            if row not in stored
        ][:20]
        for row in fresh:
            db = session.apply_delta(db, Delta.of(inserts={"R1": [row]}))
            session.query_plan(query, db, 3)
            warm = session.evaluate(query, db, length=3, engine="auto")
        plans = session.stats.caches["ir"]
        # Each miss adds an entry unless it replaced one.
        assert plans.misses - plans.invalidated == 1
        assert plans.invalidated == len(fresh) - 1
        assert warm == QueryEngine().evaluate(
            query, db, length=3, engine="auto"
        )
