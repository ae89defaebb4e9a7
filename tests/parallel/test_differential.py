"""Differential harness: pooled evaluation vs the sequential engines.

The parallel layer's contract is exact answer equality: for every
workload generator, every worker count and every shard count, the
sharded ``auto`` evaluation must return the same answer set — compared
as sorted tuples — as the ``naive`` and ``algebra`` engines and
in-process ``auto``.  The program derives the shard count from the
worker count; the tests fix it through the ``pooled`` fixture's
``shards`` entry.  Both parallel regimes are exercised:

* plan-shaped queries (explicit ``length``) shard their generator
  runs;
* explicit-``domain`` evaluations shard the naive candidate space
  ``domain^k`` by mixed-radix index ranges.

The ``pooled`` fixture sends every branch and candidate space to the
pool even for the tiny test workloads, so worker counts above one
genuinely cross process boundaries.
"""

import pytest

from repro.core import shorthands as sh
from repro.core.alphabet import AB, Alphabet
from repro.core.query import Query
from repro.core.syntax import And, Not, exists, lift, rel
from repro.engine import QueryEngine
from repro.workloads.generators import (
    copy_language_strings,
    example_database,
    manifold_strings,
    near_duplicates,
    uniform_strings,
    with_planted_motif,
)

DNA = Alphabet("acgt")

#: The worker/shard matrix required of the differential harness.
WORKER_COUNTS = (1, 2, 4)
SHARD_COUNTS = (1, 3, 7)

#: Sequential reference engines the parallel answers are compared to
#: (``auto`` runs in-process at one worker).
REFERENCE_ENGINES = ("naive", "auto", "algebra")


def _databases():
    yield "uniform", example_database(AB, seed=3, size=4, max_length=3)
    yield "motif", example_database(
        AB,
        singles=with_planted_motif(AB, "ab", count=5, max_length=3, seed=5),
        seed=7,
        size=3,
        max_length=2,
    )
    yield "near-dup", example_database(
        AB,
        singles=near_duplicates(AB, "aba", count=4, max_edits=1, seed=11),
        seed=13,
        size=3,
        max_length=3,
    )
    yield "copy-lang", example_database(
        AB,
        singles=copy_language_strings(count=5, max_half_length=2, seed=9),
        seed=15,
        size=3,
        max_length=2,
    )
    yield "manifold", example_database(
        AB,
        pairs=manifold_strings(AB, count=4, max_base_length=2, max_repeats=2, seed=21),
        seed=17,
        size=3,
        max_length=2,
    )
    yield "dna", example_database(
        DNA,
        singles=uniform_strings(DNA, 3, 2, seed=17),
        seed=19,
        size=2,
        max_length=2,
    )


def _queries(alphabet):
    yield "select-prefix", Query(
        ("x", "y"),
        And(rel("R1", "x", "y"), lift(sh.prefix_of("x", "y"))),
        alphabet,
    )
    yield "join", Query(
        ("x",),
        exists("y", And(rel("R1", "x", "y"), rel("R2", "y"))),
        alphabet,
    )
    yield "generate-concat", Query(
        ("x",),
        exists(
            ["y", "z"],
            And(
                And(rel("R2", "y"), rel("R2", "z")),
                lift(sh.concatenation("x", "y", "z")),
            ),
        ),
        alphabet,
    )
    yield "negated-filter", Query(
        ("x", "y"),
        And(rel("R1", "x", "y"), Not(rel("R2", "y"))),
        alphabet,
    )


DATABASES = list(_databases())
DB_PARAMS = [pytest.param(name, db, id=name) for name, db in DATABASES]

_SESSION = QueryEngine()
_REFERENCES: dict = {}


def _references(dbname, qname, query, db, bound):
    """Sequential answers, computed once per (db, query) and cached."""
    key = (dbname, qname)
    if key not in _REFERENCES:
        _REFERENCES[key] = {
            name: sorted(
                _SESSION.evaluate(
                    query, db, length=bound, engine=name,
                    workers=1 if name == "auto" else None,
                )
            )
            for name in REFERENCE_ENGINES
        }
    return _REFERENCES[key]


def _parallel_totals(session):
    return dict(session.stats.snapshot()["parallel"])


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("dbname,db", DB_PARAMS)
def test_parallel_matches_every_sequential_engine(
    dbname, db, workers, shards, pooled
):
    pooled["shards"] = shards
    bound = db.max_string_length() + 1
    before = _parallel_totals(_SESSION)
    queries = list(_queries(db.alphabet))
    for qname, query in queries:
        refs = _references(dbname, qname, query, db, bound)
        got = sorted(
            _SESSION.evaluate(query, db, length=bound, workers=workers)
        )
        for name in REFERENCE_ENGINES:
            assert got == refs[name], (
                f"{dbname}/{qname}: auto(workers={workers}, "
                f"shards={shards}) disagrees with {name}"
            )
    after = _parallel_totals(_SESSION)
    pooled_runs = after.get("runs", 0) - before.get("runs", 0)
    assert pooled_runs == (len(queries) if workers > 1 else 0)
    assert after.get("shards_completed") == after.get("shards_planned")


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_naive_shard_path_matches_reference(workers, shards, pooled):
    """Explicit domains force candidate-space sharding; answers must
    still match the naive reference over the same domain."""
    pooled["shards"] = shards
    _, db = DATABASES[0]
    bound = 3
    domain = _SESSION.domain_for(AB, bound)
    for qname, query in _queries(AB):
        if qname in ("join", "generate-concat"):
            continue  # ∃-quantified heads need the plan route
        reference = sorted(
            _SESSION.evaluate(query, db, domain=domain, engine="naive")
        )
        session = QueryEngine()
        got = sorted(session.evaluate(query, db, domain=domain, workers=workers))
        assert got == reference, (
            f"{qname}: naive-shard auto(workers={workers}, "
            f"shards={shards}) disagrees with naive"
        )
        report = _parallel_totals(session)
        if workers == 1:
            assert report == {}, "one worker must not build a pool"
        else:
            assert report["pooled_runs"] == 1
            assert report["shards_planned"] == shards


def test_cold_parallel_session_matches_warm(pooled):
    """A fresh session (empty caches) agrees with the warmed-up module
    session — sharding must not depend on cache state."""
    pooled["shards"] = 3
    dbname, db = DATABASES[1]
    bound = db.max_string_length() + 1
    for qname, query in _queries(db.alphabet):
        refs = _references(dbname, qname, query, db, bound)
        cold = QueryEngine()
        got = sorted(cold.evaluate(query, db, length=bound, workers=2))
        assert got == refs["naive"], f"{qname}: cold session disagrees"


def test_parallel_certified_bound_matches_auto(pooled):
    """With no explicit truncation, pooled auto derives the certified
    bound and must agree with in-process auto."""
    pooled["shards"] = 3
    _, db = DATABASES[0]
    for qname, query in _queries(AB):
        if qname == "negated-filter":
            continue  # unsafe without a bound: certification rejects it
        sequential = sorted(
            _SESSION.evaluate(query, db, engine="auto", workers=1)
        )
        got = sorted(_SESSION.evaluate(query, db, workers=2))
        assert got == sequential, f"{qname}: certified-bound disagreement"


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_algebra_engine_with_workers_matches_sequential(workers):
    """The algebra engine ignores the worker hint: at every worker
    count it computes the same db(E ↓ l) in-process."""
    dbname, db = DATABASES[2]
    bound = db.max_string_length() + 1
    for qname, query in _queries(db.alphabet):
        refs = _references(dbname, qname, query, db, bound)
        before = _parallel_totals(_SESSION)
        got = sorted(
            _SESSION.evaluate(
                query, db, length=bound, engine="algebra", workers=workers
            )
        )
        assert got == refs["algebra"], (
            f"{qname}: algebra workers={workers} disagrees"
        )
        assert _parallel_totals(_SESSION) == before, "algebra built a pool"


@pytest.mark.parametrize("workers", (2, 4))
def test_auto_with_workers_matches_sequential_auto(workers):
    """auto pools branches above the size threshold; the pool must be
    invisible in the answer set."""
    dbname, db = DATABASES[0]
    bound = db.max_string_length() + 1
    for qname, query in _queries(db.alphabet):
        sequential = sorted(
            _SESSION.evaluate(
                query, db, length=bound, engine="auto", workers=1
            )
        )
        got = sorted(
            _SESSION.evaluate(
                query, db, length=bound, engine="auto", workers=workers
            )
        )
        assert got == sequential, f"{qname}: auto workers={workers} disagrees"
