"""Experiment X2: engine ablation — naive vs auto vs algebra.

The same Example 2 and Example 3 queries evaluated by the three
engines.  Shape claim: all agree; ``auto``'s plan route dominates once
queries generate strings, because it never materializes ``Σ^{<=l}``.
"""

import pytest

from repro.core import shorthands as sh
from repro.core.alphabet import AB
from repro.core.query import Query
from repro.core.syntax import And, exists, lift, rel

LENGTH = 4


@pytest.fixture(scope="module")
def selection_query():
    return Query(
        ("x", "y"), And(rel("R1", "x", "y"), lift(sh.equals("x", "y"))), AB
    )


@pytest.fixture(scope="module")
def generation_query():
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


def test_engines_agree(ab_database, selection_query, generation_query):
    for query, length in ((selection_query, LENGTH), (generation_query, 5)):
        naive = query.evaluate(ab_database, length=length, engine="naive")
        auto = query.evaluate(ab_database, length=length, engine="auto")
        algebra = query.evaluate(ab_database, length=length, engine="algebra")
        assert naive == auto == algebra


@pytest.mark.parametrize("engine", ["naive", "auto", "algebra"])
def test_selection_engines(benchmark, ab_database, selection_query, engine):
    result = benchmark.pedantic(
        selection_query.evaluate,
        args=(ab_database,),
        kwargs={"length": LENGTH, "engine": engine},
        rounds=3,
        iterations=1,
    )
    assert result == selection_query.evaluate(
        ab_database, length=LENGTH, engine="auto"
    )


@pytest.mark.parametrize("engine", ["naive", "auto", "algebra"])
def test_generation_engines(benchmark, ab_database, generation_query, engine):
    # The naive engine enumerates Σ^{<=l} per quantifier; keep l small
    # enough that the losing engine still terminates (the ablation's
    # point is the gap, visible already at l=5).
    length = 5 if engine == "naive" else 8
    result = benchmark.pedantic(
        generation_query.evaluate,
        args=(ab_database,),
        kwargs={"length": length, "engine": engine},
        rounds=2,
        iterations=1,
    )
    assert result == generation_query.evaluate(
        ab_database, length=length, engine="auto"
    )
