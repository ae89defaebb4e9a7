"""Cross-engine equivalence on the synthetic workload generators.

Every registered strategy implements the same truncation semantics
``⟦φ⟧^l_db``, so on any database and any bound covering the stored
strings the naive, algebra and auto engines must return identical
answers — and a warm (cached) session must agree with a cold one.
Below the stored strings' lengths ``auto`` must still agree with
``naive`` at every worker count and with ``materialize=True``.
"""

import pytest

from repro.core import shorthands as sh
from repro.core.alphabet import AB, Alphabet
from repro.core.database import Database
from repro.core.query import Query
from repro.core.syntax import And, exists, lift, rel
from repro.delta import Delta
from repro.engine import QueryEngine
from repro.workloads.generators import (
    example_database,
    near_duplicates,
    uniform_strings,
    with_planted_motif,
)

DNA = Alphabet("acgt")


def _databases():
    yield "uniform-ab", example_database(AB, seed=3, size=4, max_length=3)
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
    yield "dna", example_database(
        DNA,
        singles=uniform_strings(DNA, 3, 2, seed=17),
        seed=19,
        size=2,
        max_length=2,
    )


def _queries(alphabet):
    yield "select-equal", Query(
        ("x", "y"),
        And(rel("R1", "x", "y"), lift(sh.equals("x", "y"))),
        alphabet,
    )
    yield "select-prefix", Query(
        ("x", "y"),
        And(rel("R1", "x", "y"), lift(sh.prefix_of("x", "y"))),
        alphabet,
    )
    yield "project", Query(
        ("x",), exists("y", rel("R1", "x", "y")), alphabet
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


CASES = [
    pytest.param(db, query, id=f"{dbname}-{qname}")
    for dbname, db in _databases()
    for qname, query in _queries(db.alphabet)
]


@pytest.mark.parametrize("db,query", CASES)
def test_all_engines_agree(db, query):
    # A bound covering every stored string makes the algebra's
    # truncation of Σ* alone coincide with the truncation semantics;
    # all engines then compute the same ⟦φ⟧^l_db.
    bound = db.max_string_length() + 1
    session = QueryEngine()
    answers = {
        name: session.evaluate(query, db, length=bound, engine=name)
        for name in ("naive", "algebra", "auto")
    }
    assert answers["naive"] == answers["algebra"] == answers["auto"]


@pytest.mark.parametrize("db,query", CASES)
def test_cached_run_matches_cold(db, query):
    bound = db.max_string_length() + 1
    warm = QueryEngine()
    first = warm.evaluate(query, db, length=bound, engine="auto")
    second = warm.evaluate(query, db, length=bound, engine="auto")
    cold = QueryEngine().evaluate(query, db, length=bound, engine="auto")
    assert first == second == cold


# -- bounds shorter than the stored strings ------------------------------
#
# Every relation is truncated too: a variable ranges over Σ^{≤l} only,
# so a stored string longer than l (or over other symbols) never binds.
# The algebra engine is left out on purpose: Section 4's db(E↓l)
# truncates only Σ*, not the relations, so below the stored strings'
# lengths it computes a different set by design.


def _routes_agree_with_naive(query, db, length):
    want = QueryEngine().evaluate(query, db, length=length, engine="naive")
    for workers in (1, 2):
        session = QueryEngine()
        got = session.evaluate(query, db, length=length, workers=workers)
        assert got == want, f"auto workers={workers}"
        materialized = session.evaluate(
            query, db, length=length, workers=workers, materialize=True
        )
        assert materialized == want, f"materialized workers={workers}"
    return want


@pytest.mark.parametrize("db,query", CASES)
def test_short_bound_matches_naive(db, query, pooled):
    _routes_agree_with_naive(query, db, db.max_string_length() - 1)


def _prefix_query():
    return Query(
        ("x", "y"),
        And(rel("R1", "x", "y"), lift(sh.prefix_of("x", "y"))),
        AB,
    )


def test_short_bound_skips_long_rows_at_every_worker_count():
    # Σ^{≤5} holds "ab" but not "abababa": only (a, ab) is an answer.
    db = Database(AB, {"R1": [("ab", "abababa"), ("a", "ab")]})
    got = _routes_agree_with_naive(_prefix_query(), db, 5)
    assert got == {("a", "ab")}


def test_foreign_symbols_never_bind():
    # "ab" is no string over {c, d}, whatever the bound.
    db = Database(AB, {"R": [("ab",)]})
    query = Query(("x",), rel("R", "x"), Alphabet("cd"))
    session = QueryEngine()
    assert session.certified_length(query, db) == 2
    assert session.evaluate(query, db) == frozenset()
    assert session.evaluate(query, db, length=2) == frozenset()


@pytest.mark.parametrize(
    "row", [("ab", "abab"), ("a", "ac")], ids=["too-long", "foreign"]
)
def test_materialized_answer_drops_rows_inserted_outside_the_domain(row):
    db = Database(Alphabet("abc"), {"R1": [("a", "ab")]})
    query = _prefix_query()
    session = QueryEngine()
    assert session.evaluate(query, db, length=3, materialize=True) == {
        ("a", "ab")
    }
    updated = session.apply_delta(db, Delta.of(inserts={"R1": [row]}))
    want = QueryEngine().evaluate(query, updated, length=3, engine="naive")
    assert want == {("a", "ab")}
    assert session.evaluate(query, updated, length=3, materialize=True) == want


def test_auto_without_length_matches_naive_at_certified_bound():
    db = example_database(AB, seed=23, size=4, max_length=3)
    query = Query(
        ("x", "y"),
        And(rel("R1", "x", "y"), lift(sh.prefix_of("x", "y"))),
        AB,
    )
    session = QueryEngine()
    bound = session.certified_length(query, db)
    assert session.evaluate(query, db) == session.evaluate(
        query, db, length=bound, engine="naive"
    )
