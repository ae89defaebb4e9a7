"""Byte-identical answers: the daemon vs direct session evaluation.

The acceptance criterion for the service layer: for every engine, the
rows a client reads off the wire are exactly
``sorted(QueryEngine().evaluate(query, db, ...))`` — same strings,
same order, same types after decoding.  The ``planner`` row holds the
served ``auto`` engine to the session's plan executed directly.  The
comparison goes through the JSON wire form on both sides, so any
encoding drift (tuple/list, unicode, empty string) fails loudly.
"""

import json

import pytest

from repro.core.alphabet import AB
from repro.core.parser import parse_formula
from repro.core.query import Query
from repro.engine import QueryEngine
from repro.ir.execute import execute_plan
from repro.service import ServiceClient, serve_in_thread
from repro.service.protocol import rows_to_wire

#: The served engines, plus ``planner``: served ``auto`` against the
#: plan executed directly.
ENGINES = ("naive", "planner", "algebra", "auto")

#: ``(formula, head, length)`` — relational scans, joins, existential
#: quantification, lifted string constraints with generation.
WORKLOAD = [
    ("R2(x)", ("x",), 3),
    ("R1(x, y)", ("x", "y"), 3),
    ("exists y: R1(x, y) & R2(x)", ("x",), 3),
    (
        "exists y, z: R2(y) & R2(z) & "
        "([x,y]l(x = y))* . ([x,z]l(x = z))* . [x,y,z]l(x = y = z = eps)",
        ("x",),
        4,
    ),
]


@pytest.fixture(scope="module")
def served(request):
    from repro.core.database import Database

    db = Database(
        AB,
        {
            "R1": [("a", "ab"), ("b", "ba")],
            "R2": [("a",), ("ab",), ("b",)],
        },
    )
    handle = serve_in_thread(db)
    client = ServiceClient(*handle.address)
    yield db, client
    client.close()
    handle.stop()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "formula,head,length",
    WORKLOAD,
    ids=[entry[0][:32] for entry in WORKLOAD],
)
def test_served_rows_match_direct_evaluation(
    served, engine, formula, head, length
):
    db, client = served
    query = Query(tuple(head), parse_formula(formula), AB)
    session = QueryEngine()
    if engine == "planner":
        plan = session.query_plan(query, db, length)
        direct = execute_plan(plan, db, AB, length, session=session)
        engine = "auto"
    else:
        direct = session.evaluate(query, db, length=length, engine=engine)
    remote = client.query(
        formula, list(head), length=length, engine=engine
    )
    # Compare through the canonical wire encoding: byte-identical.
    assert json.dumps(rows_to_wire(direct)) == json.dumps(
        [list(row) for row in remote]
    )


def test_batch_matches_member_by_member(served):
    db, client = served
    batched = client.batch(
        [(formula, list(head)) for formula, head, _ in WORKLOAD[:3]],
        length=3,
    )
    for (formula, head, _), remote in zip(WORKLOAD[:3], batched):
        query = Query(tuple(head), parse_formula(formula), AB)
        direct = QueryEngine().evaluate(query, db, length=3)
        assert rows_to_wire(direct) == [tuple(row) for row in remote]


def test_empty_answer_sets_round_trip(served):
    db, client = served
    # No R1 pair has equal components at these lengths.
    formula = "R1(x, x)"
    remote = client.query(formula, ["x"], length=3)
    query = Query(("x",), parse_formula(formula), AB)
    direct = QueryEngine().evaluate(query, db, length=3)
    assert remote == sorted(direct) == []


def test_empty_string_columns_survive_the_wire(served):
    db, client = served
    # ε is a legitimate answer string; JSON must not mangle it.
    formula = "[x]l(x = eps)"
    remote = client.query(formula, ["x"], length=2)
    query = Query(("x",), parse_formula(formula), AB)
    direct = QueryEngine().evaluate(query, db, length=2)
    assert rows_to_wire(direct) == [tuple(row) for row in remote]
    assert ("",) in {tuple(row) for row in remote}
