"""Tests for QueryEngine sessions: cache keying, stats, batching.

Tests that evaluate run at explicit worker counts, so their cache
counts cannot depend on the host's CPU count.  The cache counts must
not depend on the worker count either: ``TestStatsAcrossWorkers``
checks that under the ``pooled`` fixture, which sends every ``auto``
branch at two workers to the process pool.
"""

import pytest

from repro.core import shorthands as sh
from repro.core.alphabet import AB, Alphabet
from repro.core.database import Database
from repro.core.query import Query
from repro.core.syntax import And, exists, lift, rel
from repro.engine import QueryEngine
from repro.errors import SafetyError

#: The worker counts every evaluating test runs at.
WORKERS = (1, 2)


def db() -> Database:
    return Database(
        AB,
        {
            "R1": [("a", "b"), ("ab", "ab"), ("b", "b")],
            "R2": [("ab",), ("b",), ("aab",)],
        },
    )


def generation_query() -> Query:
    return Query(
        ("x",),
        exists(
            ["y", "z"],
            And(
                And(rel("R2", "y"), rel("R2", "z")),
                lift(sh.concatenation("x", "y", "z")),
            ),
        ),
        AB,
    )


def _cache_counts(session):
    return {
        name: (stats.hits, stats.misses)
        for name, stats in session.stats.caches.items()
    }


class TestCacheKeying:
    def test_structurally_equal_formulae_hit(self):
        session = QueryEngine()
        first = session.compile(sh.equals("x", "y"), AB)
        # An independently constructed but structurally equal formula.
        second = session.compile(sh.equals("x", "y"), AB)
        assert first is second
        stats = session.stats.caches["compile"]
        assert stats.hits == 1 and stats.misses == 1

    def test_different_alphabets_miss(self):
        session = QueryEngine()
        session.compile(sh.equals("x", "y"), AB)
        session.compile(sh.equals("x", "y"), Alphabet("cd"))
        stats = session.stats.caches["compile"]
        assert stats.hits == 0 and stats.misses == 2

    def test_explicit_default_layout_shares_entry(self):
        session = QueryEngine()
        implicit = session.compile(sh.equals("x", "y"), AB)
        explicit = session.compile(sh.equals("x", "y"), AB, ("x", "y"))
        assert implicit is explicit
        assert session.stats.caches["compile"].hits == 1

    def test_different_layouts_are_distinct(self):
        session = QueryEngine()
        xy = session.compile(sh.equals("x", "y"), AB, ("x", "y"))
        yx = session.compile(sh.equals("x", "y"), AB, ("y", "x"))
        assert xy.variables != yx.variables
        assert session.stats.caches["compile"].misses == 2

    def test_structurally_equal_machines_share_kernel(self):
        session = QueryEngine()
        first = session.compile(sh.equals("x", "y"), AB).fsa
        # An independently constructed but structurally equal machine.
        other = QueryEngine().compile(sh.equals("x", "y"), AB).fsa
        assert first is not other and first == other
        assert session.kernel(first) is session.kernel(other)
        stats = session.stats.caches["kernel"]
        assert stats.hits == 1 and stats.misses == 1

    def test_different_machines_get_distinct_kernels(self):
        session = QueryEngine()
        eq = session.compile(sh.equals("x", "y"), AB).fsa
        prefix = session.compile(sh.prefix_of("x", "y"), AB).fsa
        assert session.kernel(eq) is not session.kernel(prefix)
        stats = session.stats.caches["kernel"]
        assert stats.hits == 0 and stats.misses == 2

    def test_algebra_route_populates_kernel_cache(self):
        query = Query(
            ("x", "y"),
            And(rel("R1", "x", "y"), lift(sh.prefix_of("x", "y"))),
            AB,
        )
        session = QueryEngine()
        first = session.evaluate(query, db(), length=4, engine="algebra")
        second = session.evaluate(query, db(), length=4, engine="algebra")
        assert first == second
        stats = session.stats.caches["kernel"]
        assert stats.lookups == 2
        # The algebra engine selects in-process at every worker count,
        # so a single evaluation always reads one kernel lookup.
        for workers in (None, *WORKERS):
            fresh = QueryEngine()
            assert first == fresh.evaluate(
                query, db(), length=4, engine="algebra", workers=workers
            )
            assert fresh.stats.caches["kernel"].lookups == 1
            assert fresh.stats.parallel == {}

    def test_limit_reports_cached_including_negative(self):
        session = QueryEngine()
        safe = rel("R2", "x")
        unsafe = Query(
            ("y",),
            exists("x", And(rel("R2", "x"), lift(sh.manifold("y", "x")))),
            AB,
        ).formula
        assert session.limit_report(safe, AB) is session.limit_report(safe, AB)
        assert session.limit_report(unsafe, AB) is None
        assert session.limit_report(unsafe, AB) is None
        stats = session.stats.caches["limit"]
        assert stats.hits == 2 and stats.misses == 2

    def test_uncertified_query_still_raises(self):
        session = QueryEngine()
        unsafe = Query(
            ("y",),
            exists("x", And(rel("R2", "x"), lift(sh.manifold("y", "x")))),
            AB,
        )
        for workers in WORKERS:
            with pytest.raises(SafetyError):
                session.evaluate(unsafe, db(), workers=workers)


class TestWarmEvaluation:
    def test_warm_run_hits_compile_specialize_limit(self):
        # workers=2 sends the generator branch through the shard
        # executor; the cache counts must not depend on that.
        counts = {}
        for workers in WORKERS:
            session = QueryEngine()
            q = generation_query()
            cold = session.evaluate(q, db(), workers=workers)
            warm = session.evaluate(q, db(), workers=workers)
            assert cold == warm
            counts[workers] = _cache_counts(session)
        assert counts[1] == counts[2]
        caches = counts[1]
        assert caches["compile"][0] > 0
        # Specialization runs only on generate misses: the cold run
        # specializes, the warm run is served from the generate cache.
        assert caches["specialize"] == (0, caches["generate"][1])
        assert caches["generate"][0] > 0
        assert caches["limit"][0] > 0
        assert caches["ir"][0] > 0

    def test_sessions_are_isolated(self):
        q = generation_query()
        for workers in WORKERS:
            first = QueryEngine()
            first.evaluate(q, db(), workers=workers)
            first.evaluate(q, db(), workers=workers)
            second = QueryEngine()
            second.evaluate(q, db(), workers=workers)
            # The second session inherits nothing: it repeats the first
            # session's cold misses instead of hitting its entries.
            assert (
                second.stats.caches["compile"].misses
                == first.stats.caches["compile"].misses
            )
            assert (
                second.stats.caches["compile"].hits
                < first.stats.caches["compile"].hits
            )

    def test_warm_algebra_hits_translation(self):
        q = generation_query()
        for workers in WORKERS:
            session = QueryEngine()
            options = dict(length=6, engine="algebra", workers=workers)
            a = session.evaluate(q, db(), **options)
            b = session.evaluate(q, db(), **options)
            assert a == b
            assert session.stats.caches["optimize"].hits >= 1


class TestDomainPool:
    def test_prefix_sharing(self):
        session = QueryEngine()
        long = session.domain_for(AB, 3)
        short = session.domain_for(AB, 1)
        assert long == tuple(AB.strings(3))
        assert short == tuple(AB.strings(1))
        stats = session.stats.caches["domain"]
        assert stats.hits == 1 and stats.misses == 1

    def test_reserve_enumerates_once(self):
        session = QueryEngine()
        session.reserve_domain(AB, 4)
        assert session.domain_for(AB, 2) == tuple(AB.strings(2))
        assert session.domain_for(AB, 4) == tuple(AB.strings(4))
        stats = session.stats.caches["domain"]
        assert stats.misses == 1 and stats.hits == 1

    def test_negative_length_is_empty(self):
        assert QueryEngine().domain_for(AB, -1) == ()


class TestBatchEvaluation:
    def test_evaluate_many_matches_individual(self):
        queries = [
            Query(
                ("x", "y"),
                And(rel("R1", "x", "y"), lift(sh.equals("x", "y"))),
                AB,
            ),
            Query(("x",), rel("R2", "x"), AB),
            generation_query(),
        ]
        individual = [q.evaluate(db()) for q in queries]
        for workers in WORKERS:
            batch = QueryEngine().evaluate_many(queries, db(), workers=workers)
            assert batch == individual

    def test_batch_shares_compiled_artifacts(self):
        q = generation_query()
        for workers in WORKERS:
            session = QueryEngine()
            results = session.evaluate_many([q, q, q], db(), workers=workers)
            assert results[0] == results[1] == results[2]
            assert session.stats.caches["compile"].misses == 1
            assert session.stats.caches["compile"].hits > 0

    def test_batch_with_explicit_length(self):
        queries = [Query(("x",), rel("R2", "x"), AB)] * 2
        for workers in WORKERS:
            results = QueryEngine().evaluate_many(
                queries, db(), length=3, engine="naive", workers=workers
            )
            assert results[0] == results[1] == {("ab",), ("b",), ("aab",)}

    def test_batch_reserves_max_bound(self):
        narrow = Query(  # certified bound 2
            ("x", "y"),
            And(rel("R1", "x", "y"), lift(sh.equals("x", "y"))),
            AB,
        )
        wide = Query(("x",), rel("R2", "x"), AB)  # certified bound 3
        for workers in WORKERS:
            session = QueryEngine()
            session.evaluate_many(
                [narrow, wide], db(), engine="naive", workers=workers
            )
            # One enumeration at the batch maximum (3) serves both
            # queries: the narrow query's domain is a prefix slice of it.
            stats = session.stats.caches["domain"]
            assert stats.misses == 1 and stats.hits == 1


class TestStats:
    def test_snapshot_shape(self):
        q = Query(("x",), rel("R2", "x"), AB)
        for workers in WORKERS:
            session = QueryEngine()
            session.evaluate(q, db(), workers=workers)
            snapshot = session.stats.snapshot()
            assert "compile" in snapshot["caches"]
            assert snapshot["evaluations"]["auto"] == 1
            assert snapshot["engine_seconds"]["auto"] >= 0.0

    def test_describe_mentions_caches_and_engines(self):
        for workers in WORKERS:
            session = QueryEngine()
            session.evaluate(
                Query(("x",), rel("R2", "x"), AB), db(), workers=workers
            )
            text = session.trace_report().summary()
            assert "cache compile" in text and "engine auto" in text


class TestStatsAcrossWorkers:
    """``--stats`` reads the same at every worker count."""

    def test_pooled_generate_counts_match_in_process(self, pooled):
        # The generate step's bound tape y repeats (ab, ab, b): the
        # session looks each distinct binding up once, pooled or not.
        repeated = Database(
            AB, {"R1": [("ab", "b"), ("ab", "a"), ("b", "a")]}
        )
        query = Query(
            ("x",),
            exists(
                ["y", "z"],
                And(rel("R1", "y", "z"), lift(sh.prefix_of("x", "y"))),
            ),
            AB,
        )
        counts = {}
        for workers in WORKERS:
            session = QueryEngine()
            cold = session.evaluate(query, repeated, workers=workers)
            warm = session.evaluate(query, repeated, workers=workers)
            assert cold == warm == {("",), ("a",), ("ab",), ("b",)}
            counts[workers] = _cache_counts(session)
            # At two workers the cold misses run on the pool; the warm
            # run is served from the cache.
            pooled_runs = session.stats.parallel.get("pooled_runs", 0)
            assert pooled_runs == (1 if workers > 1 else 0)
        assert counts[1] == counts[2]
        assert counts[1]["generate"] == (2, 2)
