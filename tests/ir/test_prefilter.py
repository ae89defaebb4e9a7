"""Mandatory-factor derivation and the index-prefilter pushdown pass."""

import pytest

from repro.core import shorthands as sh
from repro.core.alphabet import Alphabet
from repro.core.syntax import (
    And,
    IsChar,
    Not,
    SStar,
    WTrue,
    atom,
    concat,
    left,
    lift,
    rel,
    union,
)
from repro.fsa.compile import compile_string_formula
from repro.ir import (
    CostModel,
    attach_index_prefilters,
    build_query_plan,
    render_plan,
    required_factors,
)

DNA = Alphabet("acgt")


def _contains(var, motif):
    """``motif`` occurs somewhere in ``var`` (prefix-skip then match)."""
    return concat(
        SStar(atom(left(var), WTrue())),
        *[atom(left(var), IsChar(var, char)) for char in motif],
    )


def _machine(formula):
    compiled = compile_string_formula(formula, DNA)
    return compiled.fsa, compiled.tape_of(compiled.variables[0])


def test_required_factors_finds_the_motif_chain():
    fsa, tape = _machine(_contains("y", "gcgcgc"))
    assert required_factors(fsa, tape) == ("gcgcgc",)


def test_required_factors_drops_substrings_of_longer_factors():
    fsa, tape = _machine(
        concat(_contains("y", "gcg"), _contains("y", "acgt"))
    )
    factors = required_factors(fsa, tape)
    assert "acgt" in factors
    # No factor is a substring of another (it would prune nothing more).
    for one in factors:
        assert not any(
            one != other and one in other for other in factors
        )


def test_required_factors_empty_for_alternative_paths():
    # Either motif path accepts, so no edge is mandatory.
    fsa, tape = _machine(
        union(_contains("y", "gcgc"), _contains("y", "acac"))
    )
    assert required_factors(fsa, tape) == ()


def test_required_factors_empty_when_empty_string_accepted():
    # equals has a trivial accepting path for (ε, ε): nothing mandatory.
    compiled = compile_string_formula(sh.equals("x", "y"), DNA)
    for variable in compiled.variables:
        assert required_factors(compiled.fsa, compiled.tape_of(variable)) == ()


def _plan(formula, head=("y",)):
    # The cap covers the six-character rows: a shorter one leaves them
    # outside Σ^{≤cap}, and the plan degrades to a naive root.
    model = CostModel.for_database(_db(), DNA, 6)
    return build_query_plan(formula, head, model), model


def _db():
    from repro.core.database import Database

    return Database(
        DNA, {"R2": [("gcgcgc",), ("acgtac",), ("aaaa",)]}
    )


def test_attach_index_prefilters_marks_join_steps():
    plan, model = _plan(
        And(rel("R2", "y"), lift(_contains("y", "gcgcgc")))
    )
    attached = attach_index_prefilters(plan, DNA, model=model)
    (branch,) = attached.branches()
    joins = [step for step in branch.steps if step.action == "join"]
    assert joins[0].prefilter == ((0, ("gcgcgc",)),)
    assert ("pushdown.index-prefilter", 1) in attached.rules
    # The prefilter discounts the join estimate.
    (old_branch,) = plan.branches()
    old_join = [s for s in old_branch.steps if s.action == "join"][0]
    assert joins[0].est_cost < old_join.est_cost
    assert joins[0].est_rows < old_join.est_rows
    assert "prefilter[col0∋'gcgcgc']" in render_plan(attached)


def test_attach_index_prefilters_skips_negated_atoms():
    plan, model = _plan(
        And(rel("R2", "y"), Not(lift(_contains("y", "gcgcgc"))))
    )
    attached = attach_index_prefilters(plan, DNA, model=model)
    for branch in attached.branches():
        for step in branch.steps:
            assert step.prefilter == ()
    assert all(rule != "pushdown.index-prefilter" for rule, _ in attached.rules)


def test_attach_index_prefilters_is_identity_without_factors():
    plan, model = _plan(
        And(rel("R2", "y"), lift(sh.gc_plus_a_star("y")))
    )
    assert attach_index_prefilters(plan, DNA, model=model) is plan


def test_prefiltered_plans_execute_identically():
    from repro.core.query import Query
    from repro.engine import QueryEngine
    from repro.observability import Tracer

    db = _db().with_storage("ngram")
    query = Query(
        ("y",), And(rel("R2", "y"), lift(_contains("y", "gcgcgc"))), DNA
    )
    tracer = Tracer()
    session = QueryEngine(tracer=tracer)
    got = session.evaluate(query, db, length=6, engine="auto")
    assert got == frozenset({("gcgcgc",)})
    assert tracer.counters.get("index.probe", 0) >= 1
    assert tracer.counters.get("index.pruned", 0) >= 2


def test_required_factors_are_memoized_on_the_machine(monkeypatch):
    import pickle

    fsa, tape = _machine(_contains("y", "gcgcgc"))
    first = required_factors(fsa, tape)

    def refuse(machine, tape, limit):
        raise AssertionError("factors derived twice")

    monkeypatch.setattr("repro.ir.rewrite._derive_factors", refuse)
    assert required_factors(fsa, tape) is first
    with pytest.raises(AssertionError, match="twice"):
        required_factors(fsa, tape, limit=4)
    # The memo is per instance and stays out of pickles.
    clone = pickle.loads(pickle.dumps(fsa))
    assert clone == fsa
    with pytest.raises(AssertionError, match="twice"):
        required_factors(clone, tape)


def test_replan_after_an_update_reuses_the_factors(monkeypatch):
    from repro.core.query import Query
    from repro.delta import Delta
    from repro.engine import QueryEngine
    from repro.ir import rewrite
    from repro.observability import Tracer

    db = _db().with_storage("ngram")
    query = Query(
        ("y",), And(rel("R2", "y"), lift(_contains("y", "gcgcgc"))), DNA
    )
    tracer = Tracer()
    session = QueryEngine(tracer=tracer)
    session.evaluate(query, db, length=10)
    derived = []
    original = rewrite._derive_factors
    monkeypatch.setattr(
        rewrite,
        "_derive_factors",
        lambda *args: derived.append(args) or original(*args),
    )
    updated = session.apply_delta(
        db, Delta.of(inserts={"R2": [("ttgcgcgcaa",)]})
    )
    got = session.evaluate(query, updated, length=10)
    assert got == frozenset({("gcgcgc",), ("ttgcgcgcaa",)})
    assert tracer.counters["cache.invalidate.ir"] == 1
    assert derived == []
