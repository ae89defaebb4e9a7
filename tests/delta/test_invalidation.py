"""Dependency-scoped cache invalidation: evict only what an update touched."""

from repro.core import shorthands as sh
from repro.core.alphabet import AB
from repro.core.query import Query
from repro.core.syntax import And, lift, rel
from repro.delta import Delta
from repro.engine import QueryEngine
from repro.engine.caches import KeyedCache
from repro.observability import Tracer
from repro.workloads.generators import example_database


class TestKeyedCacheDependencies:
    def test_tagged_entries_evict_on_matching_relation(self):
        cache = KeyedCache("demo")
        cache.get_or_compute("a", lambda: 1, depends=(("R", 3),))
        cache.get_or_compute("b", lambda: 2, depends=(("S", 1),))
        evicted = cache.invalidate_relations(["R"])
        assert evicted == 1
        assert cache.stats.invalidated == 1
        # The R-tagged entry recomputes; the S-tagged one is served.
        calls = []
        cache.get_or_compute("a", lambda: calls.append("a") or 1)
        cache.get_or_compute("b", lambda: calls.append("b") or 2)
        assert calls == ["a"]

    def test_untagged_entries_are_never_invalidated(self):
        cache = KeyedCache("demo")
        cache.get_or_compute("pure", lambda: 42)
        assert cache.invalidate_relations(["R", "S"]) == 0
        assert cache.get_or_compute("pure", lambda: -1) == 42

    def test_store_accepts_dependencies(self):
        cache = KeyedCache("demo")
        cache.store("k", "v", depends=(("R", 1),))
        assert cache.invalidate_relations(["R"]) == 1

    def test_unrelated_names_evict_nothing(self):
        cache = KeyedCache("demo")
        cache.store("k", "v", depends=(("R", 1),))
        assert cache.invalidate_relations(["S"]) == 0
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
        caches = session.trace_report().caches
        # The R1-dependent plan entries were evicted ...
        assert caches["ir"]["invalidated"] >= 1
        # ... while the pure machine cache was never touched: replaying
        # both queries against the new version compiles nothing new.
        assert caches["compile"].get("invalidated", 0) == 0
        # --stats shows the evictions on the evicted caches' lines.
        lines = {
            line.split()[1]: line
            for line in session.trace_report().summary().splitlines()
            if line.startswith("cache ")
        }
        assert "invalidated=" in lines["ir"]
        assert "invalidated=" not in lines["compile"]
        session.evaluate(_join_query(), db2, length=2, engine="auto")
        session.evaluate(_single_query(), db2, length=2, engine="auto")
        assert (
            session.trace_report().caches["compile"]["misses"]
            == compile_misses
        ), "compiled machines should survive every update"

    def test_invalidation_counters_reach_the_tracer(self):
        db = example_database(AB, seed=5, size=4, max_length=2)
        session = QueryEngine(tracer=Tracer())
        session.evaluate(_join_query(), db, length=2, engine="auto")
        session.apply_delta(db, Delta.of(inserts={"R1": [("b", "bb")]}))
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
