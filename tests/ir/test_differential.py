"""Differential proof: optimized plans never change answers.

Two regimes, both compared against :func:`evaluate_naive` run on the
**original, unnormalized** formula — the one engine path that bypasses
every :mod:`repro.ir` rewrite:

* hypothesis-driven: random databases from every
  ``workloads/generators.py`` generator, random caps, every query
  shape — the plan route (``build_query_plan`` + ``execute_plan``) and
  the optimized algebra route must both match the oracle;
* worker matrix: the same shapes through ``auto`` at workers ∈
  {1, 2, 4}, the ``pooled`` fixture forcing real pool dispatch.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.evaluate import evaluate_expression
from repro.core import shorthands as sh
from repro.core.alphabet import AB, Alphabet
from repro.core.query import Query
from repro.core.semantics import evaluate_naive
from repro.core.syntax import And, Not, exists, f_or, lift, rel
from repro.engine import QueryEngine
from repro.ir import CostModel, build_query_plan
from repro.ir.execute import execute_plan
from repro.workloads.generators import (
    copy_language_strings,
    example_database,
    manifold_strings,
    near_duplicates,
    uniform_strings,
    with_planted_motif,
)

DNA = Alphabet("acgt")

#: Every generator in workloads/generators.py, as a seeded factory.
GENERATORS = {
    "uniform": lambda seed: example_database(
        AB,
        singles=uniform_strings(AB, 4, 2, seed=seed),
        seed=seed,
        size=3,
        max_length=2,
    ),
    # All factories keep strings within length 2 so the truncation
    # domain Σ^≤cap (cap ≥ 2) always covers the database — exactly the
    # regime where the naive oracle and the join-based plans must agree.
    "motif": lambda seed: example_database(
        AB,
        singles=with_planted_motif(AB, "b", count=4, max_length=1, seed=seed),
        seed=seed,
        size=3,
        max_length=2,
    ),
    "near-dup": lambda seed: example_database(
        AB,
        singles=near_duplicates(AB, "a", count=4, max_edits=1, seed=seed),
        seed=seed,
        size=3,
        max_length=2,
    ),
    "copy-lang": lambda seed: example_database(
        AB,
        singles=copy_language_strings(count=4, max_half_length=1, seed=seed),
        seed=seed,
        size=3,
        max_length=2,
    ),
    "manifold": lambda seed: example_database(
        AB,
        pairs=manifold_strings(
            AB, count=3, max_base_length=1, max_repeats=2, seed=seed
        ),
        seed=seed,
        size=3,
        max_length=2,
    ),
    "example": lambda seed: example_database(
        AB, seed=seed, size=3, max_length=2
    ),
}


def _queries(alphabet):
    """The query shapes the IR layer claims to optimize."""
    yield "disjunction", Query(
        ("x",), f_or(rel("R2", "x"), rel("R1", "x", "x")), alphabet
    )
    yield "disjunction-partial-heads", Query(
        ("x", "y"),
        f_or(rel("R1", "x", "y"), And(rel("R2", "x"), rel("R2", "y"))),
        alphabet,
    )
    yield "nested-exists", Query(
        ("x",),
        exists(
            "y",
            And(
                rel("R1", "x", "y"),
                exists("z", And(rel("R2", "z"), rel("R1", "z", "y"))),
            ),
        ),
        alphabet,
    )
    yield "exists-over-disjunction", Query(
        ("x",),
        exists("y", f_or(rel("R1", "x", "y"), rel("R1", "y", "x"))),
        alphabet,
    )
    yield "conjunctive-selection", Query(
        ("x", "y"),
        And(
            lift(sh.prefix_of("x", "y")),
            And(rel("R1", "x", "y"), Not(rel("R2", "y"))),
        ),
        alphabet,
    )
    # Positional bindings: heads, filters and generated columns whose
    # variable order differs from the order the plan binds them in.
    yield "permuted-head", Query(("y", "x"), rel("R1", "x", "y"), alphabet)
    yield "permuted-relational-filter", Query(
        ("x", "y"), And(rel("R1", "x", "y"), rel("R1", "y", "x")), alphabet
    )
    yield "generate-then-negated-filter", Query(
        ("x",),
        exists(
            "y",
            And(
                rel("R2", "y"),
                And(lift(sh.suffix_of("x", "y")), Not(rel("R2", "x"))),
            ),
        ),
        alphabet,
    )
    yield "two-variable-generate-then-filter", Query(
        ("x", "y"),
        exists(
            "z",
            And(
                rel("R2", "z"),
                And(
                    lift(sh.concatenation("z", "x", "y")),
                    lift(sh.prefix_of("y", "x")),
                ),
            ),
        ),
        alphabet,
    )


QUERIES = list(_queries(AB))
_SESSION = QueryEngine()


def _oracle(query, db, cap):
    domain = tuple(db.alphabet.strings(cap))
    return evaluate_naive(query.formula, query.head, db, domain)


@settings(max_examples=8, deadline=None)
@pytest.mark.parametrize(
    "generator", sorted(GENERATORS), ids=sorted(GENERATORS)
)
@given(seed=st.integers(min_value=0, max_value=10_000), cap=st.integers(2, 3))
def test_plan_route_matches_unoptimized_naive(generator, seed, cap):
    db = GENERATORS[generator](seed)
    model = CostModel.for_database(db, db.alphabet, cap)
    domain = tuple(db.alphabet.strings(cap))
    for name, query in _queries(db.alphabet):
        plan = build_query_plan(query.formula, query.head, model)
        assert plan.fallback_reason is None, (
            f"{generator}/{name}: expected an executable plan"
        )
        got = execute_plan(
            plan, db, db.alphabet, cap, QueryEngine(), domain=domain
        )
        assert got == _oracle(query, db, cap), (
            f"{generator}/{name}: plan route diverged (seed={seed})"
        )


@settings(max_examples=8, deadline=None)
@pytest.mark.parametrize(
    "generator", sorted(GENERATORS), ids=sorted(GENERATORS)
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_optimized_algebra_matches_unoptimized_naive(generator, seed):
    from repro.errors import EvaluationError

    cap = 2
    db = GENERATORS[generator](seed)
    session = QueryEngine()
    for name, query in _queries(db.alphabet):
        try:
            expression, _ = session.optimized_translation(query)
        except EvaluationError:
            continue  # head ≠ free variables: not algebra-translatable
        got = evaluate_expression(expression, db, cap, session)
        assert got == _oracle(query, db, cap), (
            f"{generator}/{name}: optimized algebra diverged (seed={seed})"
        )


@pytest.mark.parametrize("workers", (1, 2, 4))
@pytest.mark.parametrize(
    "generator", sorted(GENERATORS), ids=sorted(GENERATORS)
)
def test_engines_match_oracle_across_worker_counts(
    generator, workers, pooled
):
    """The plan-consuming engines agree with the oracle at every
    worker count; the ``pooled`` fixture forces real pool dispatch."""
    pooled["shards"] = 3
    db = GENERATORS[generator](seed=42)
    cap = 2
    for name, query in QUERIES:
        expected = sorted(_oracle(query, db, cap))
        for engine in ("naive", "auto"):
            got = sorted(
                _SESSION.evaluate(
                    query, db, length=cap, engine=engine, workers=workers
                )
            )
            assert got == expected, (
                f"{generator}/{name}: engine={engine} "
                f"workers={workers} diverged"
            )


def test_rejected_shapes_still_match_oracle():
    """Naive-fallback plans (with a rejection reason) keep every
    engine exact: ``auto`` records the rejection and checks the
    candidates with the reference semantics."""
    from repro.observability import Tracer

    db = GENERATORS["example"](seed=7)
    cap = 2
    query = Query(("x",), Not(exists("y", rel("R1", "x", "y"))), AB)
    expected = sorted(_oracle(query, db, cap))
    session = QueryEngine(tracer=Tracer())
    assert sorted(session.evaluate(query, db, length=cap)) == expected
    assert session.stats.rejects == {"unsupported-literal": 1}
    # The rejection is observable three ways: the stats counter above,
    # a plan.reject.<reason> tracer counter, and a span attribute on
    # the normalize.plan span.
    assert session.tracer.counters.get("plan.reject.unsupported-literal", 0) >= 1
    normalize_spans = [
        record
        for record in session.tracer.records()
        if record.name == "normalize.plan"
    ]
    assert any(
        dict(record.attributes).get("fallback") == "unsupported-literal"
        for record in normalize_spans
    )
