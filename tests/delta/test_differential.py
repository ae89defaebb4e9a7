"""Differential proof: incremental evaluation never changes answers.

Random interleavings of inserts, deletes and queries (hypothesis-driven,
across every workload generator) must leave a warm session — deltas
applied via ``apply_delta``, answers maintained via ``materialize=True``
— byte-identical to from-scratch evaluation on a fresh session, for
every engine; a fixed interleaving then sweeps the full engine ×
worker matrix, plus a forced-v1 column (the ``forced_v1`` fixture makes
the determinizer decline in-process, so it runs at one worker).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import shorthands as sh
from repro.core.alphabet import AB
from repro.core.query import Query
from repro.core.syntax import And, Not, exists, f_or, lift, rel
from repro.delta import Delta
from repro.engine import QueryEngine
from tests.storage.test_differential import GENERATORS

ENGINES = ("naive", "algebra", "auto")
WORKER_COUNTS = (1, 2, 4)

#: Matrix columns ``(kernels, workers)``: ``auto`` lets each machine
#: pick its kernel, ``v1`` forces the worklist kernel in-process.
COLUMNS = [("auto", workers) for workers in WORKER_COUNTS] + [("v1", 1)]
CAP = 2


def _queries():
    yield "join-filter", Query(
        ("x", "y"),
        And(
            lift(sh.prefix_of("x", "y")),
            And(rel("R1", "x", "y"), Not(rel("R2", "y"))),
        ),
        AB,
    )
    yield "disjunction", Query(
        ("x",), f_or(rel("R2", "x"), rel("R1", "x", "x")), AB
    )
    yield "nested-exists", Query(
        ("x",),
        exists("y", And(rel("R1", "x", "y"), rel("R2", "y"))),
        AB,
    )


QUERIES = list(_queries())


def _to_delta(db, op):
    """One drawn operation as a concrete delta against ``db``."""
    kind, name, payload = op
    if kind == "insert":
        return Delta.of(inserts={name: [payload]})
    rows = sorted(db.relation(name))
    if not rows:
        return Delta()
    return Delta.of(deletes={name: [rows[payload % len(rows)]]})


def _check(warm, oracle, db, engines, **evaluate_kwargs):
    for qname, query in QUERIES:
        expected = oracle.evaluate(query, db, length=CAP, engine="auto")
        maintained = warm.evaluate(query, db, length=CAP, materialize=True)
        assert maintained == expected, (
            f"{qname}: materialized answer diverged from from-scratch"
        )
        for engine in engines:
            got = warm.evaluate(
                query, db, length=CAP, engine=engine, **evaluate_kwargs
            )
            assert got == expected, (
                f"{qname}: engine={engine} diverged after updates"
            )


_VALUE = st.text(alphabet="ab", min_size=0, max_size=2)

#: One mutation step: an insert of a drawn row, or a delete of the
#: k-th currently-present row (resolved at application time, so
#: deletes actually hit data).
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.just("R1"), st.tuples(_VALUE, _VALUE)),
        st.tuples(st.just("insert"), st.just("R2"), st.tuples(_VALUE)),
        st.tuples(
            st.just("delete"),
            st.sampled_from(["R1", "R2"]),
            st.integers(min_value=0, max_value=7),
        ),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=5, deadline=None)
@pytest.mark.parametrize(
    "generator", sorted(GENERATORS), ids=sorted(GENERATORS)
)
@given(seed=st.integers(min_value=0, max_value=10_000), ops=_OPS)
def test_interleavings_agree_on_every_workload_generator(
    generator, seed, ops
):
    db = GENERATORS[generator](seed)
    warm = QueryEngine()
    oracle = QueryEngine()
    # Materialize every query up front so the interleaving exercises
    # maintenance, not just recomputation.
    for _, query in QUERIES:
        warm.evaluate(query, db, length=CAP, materialize=True)
    for op in ops:
        delta = _to_delta(db, op)
        db = warm.apply_delta(db, delta)
        _check(warm, oracle, db, engines=("auto",))
    _check(warm, oracle, db, engines=ENGINES)


#: A fixed interleaving mixing inserts, deletes and a resurrect, used
#: for the exhaustive engine × worker matrix below.
_FIXED_OPS = (
    ("insert", "R1", ("a", "ab")),
    ("delete", "R2", 0),
    ("insert", "R2", ("ba",)),
    ("delete", "R1", 1),
    ("insert", "R2", ("ba",)),
)


@pytest.mark.parametrize(
    "kernels,workers", COLUMNS, ids=[f"{k}-{w}" for k, w in COLUMNS]
)
def test_fixed_interleaving_full_matrix(kernels, workers, request):
    if kernels == "v1":
        request.getfixturevalue("forced_v1")
    db = GENERATORS["example"](3)
    warm = QueryEngine()
    oracle = QueryEngine()
    for _, query in QUERIES:
        warm.evaluate(query, db, length=CAP, materialize=True)
    for op in _FIXED_OPS:
        db = warm.apply_delta(db, _to_delta(db, op))
        _check(warm, oracle, db, engines=ENGINES, workers=workers)
