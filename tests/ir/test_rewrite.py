"""Unit tests for the algebra rewriter and the sequencing product."""

from hypothesis import given, settings, strategies as st

from repro.algebra.evaluate import evaluate_expression
from repro.algebra.expressions import (
    Product,
    Project,
    Rel,
    Select,
    SigmaStar,
    Union,
)
from repro.core import shorthands as sh
from repro.core.alphabet import AB
from repro.core.database import Database
from repro.core.syntax import (
    SStar,
    atom,
    concat,
    f_or,
    left,
    not_empty,
    rel,
    union,
)
from repro.core.syntax import IsChar, IsEmpty, SameChar, WTrue
from repro.engine import QueryEngine
from repro.fsa.compile import compile_string_formula
from repro.fsa.product import fusion_supported, sequence_machines
from repro.fsa.simulate import language
from repro.ir import optimize_expression, translate_branches


def db() -> Database:
    return Database(
        AB,
        {
            "R1": [("a", "b"), ("ab", "ab"), ("b", "b")],
            "R2": [("ab",), ("b",), ("ba",)],
        },
    )


def machine(formula, variables=("x", "y")):
    return compile_string_formula(formula, AB, variables=variables).fsa


def answers(expression, length=3):
    return evaluate_expression(expression, db(), length, QueryEngine())


class TestSequencingProduct:
    """seq(A, B) accepts exactly L(A) ∩ L(B) — the fusion soundness."""

    def test_language_is_intersection(self):
        first = machine(sh.equals("x", "y"))
        second = machine(sh.prefix_of("x", "y"))
        assert fusion_supported(first, second)
        fused = sequence_machines(first, second)
        assert language(fused, 2) == language(first, 2) & language(
            second, 2
        )

    def test_order_does_not_change_the_language(self):
        first = machine(sh.equals("x", "y"))
        second = machine(sh.constant("x", "ab"), ("x", "y"))
        assert language(sequence_machines(first, second), 3) == language(
            sequence_machines(second, first), 3
        )

    def test_mismatched_arity_not_supported(self):
        unary = machine(sh.constant("x", "a"), ("x",))
        binary = machine(sh.equals("x", "y"))
        assert not fusion_supported(unary, binary)


# Random string formulae for the property-based fusion check, mirroring
# tests/property/test_engine_equivalence.py.
_window_tests = st.sampled_from(
    [
        WTrue(),
        IsChar("x", "a"),
        IsChar("y", "b"),
        IsEmpty("x"),
        SameChar("x", "y"),
        not_empty("x"),
    ]
)
_transposes = st.sampled_from(
    [left("x"), left("y"), left("x", "y"), left()]
)
_atoms = st.builds(atom, _transposes, _window_tests)
_formulas = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.builds(lambda a, b: concat(a, b), children, children),
        st.builds(lambda a, b: union(a, b), children, children),
        st.builds(SStar, children),
    ),
    max_leaves=3,
)


@settings(max_examples=40, deadline=None)
@given(first=_formulas, second=_formulas)
def test_sequencing_product_matches_intersection_oracle(first, second):
    a = machine(first)
    b = machine(second)
    if not fusion_supported(a, b):
        return
    assert language(sequence_machines(a, b), 2) == language(
        a, 2
    ) & language(b, 2)


class TestRewritePasses:
    def test_select_pushes_through_union(self):
        fsa = machine(sh.equals("x", "y"))
        expr = Select(Union(Rel("R1", 2), Rel("R1", 2)), fsa)
        optimized, rules = optimize_expression(expr, QueryEngine())
        assert isinstance(optimized, Union)
        assert dict(rules)["select-pushdown-union"] == 1
        assert answers(optimized) == answers(expr)

    def test_stacked_selects_fuse(self):
        first = machine(sh.equals("x", "y"))
        second = machine(sh.constant("x", "ab"), ("x", "y"))
        expr = Select(Select(Rel("R1", 2), first), second)
        optimized, rules = optimize_expression(expr, QueryEngine())
        assert isinstance(optimized, Select)
        assert isinstance(optimized.inner, Rel)
        assert dict(rules)["select-fuse"] == 1
        assert answers(optimized) == answers(expr)

    def test_identity_projection_vanishes(self):
        expr = Project(Rel("R1", 2), (0, 1))
        optimized, rules = optimize_expression(expr, QueryEngine())
        assert optimized == Rel("R1", 2)
        assert dict(rules)["project-identity"] == 1

    def test_stacked_projections_fuse(self):
        expr = Project(Project(Rel("R1", 2), (1, 0)), (1,))
        optimized, rules = optimize_expression(expr, QueryEngine())
        assert optimized == Project(Rel("R1", 2), (0,))
        assert dict(rules)["project-fuse"] == 1
        assert answers(optimized) == answers(expr)

    def test_projection_pushes_into_sigma_product(self):
        # π over a never-empty Σ* padding factor drops the factor.
        expr = Project(Product(Rel("R2", 1), SigmaStar()), (0,))
        optimized, rules = optimize_expression(expr, QueryEngine())
        assert optimized == Rel("R2", 1)
        assert dict(rules)["project-pushdown-product"] == 1
        assert answers(optimized) == answers(expr)

    def test_minimization_shrinks_machines(self):
        fsa = machine(union(sh.equals("x", "y"), sh.equals("x", "y")))
        expr = Select(Rel("R1", 2), fsa)
        optimized, rules = optimize_expression(expr, QueryEngine())
        assert len(optimized.machine.states) < len(fsa.states)
        assert dict(rules)["select-minimize"] == 1
        assert answers(optimized) == answers(expr)

    def test_generative_factor_lifts_into_selection(self):
        # σ_concat over R2 × σ_pattern(Σ*): the Σ* factor's constraint
        # fuses into the outer generator instead of cross-producting.
        pattern = machine(sh.constant("x", "ab"), ("x",))
        generator = machine(
            sh.concatenation("x", "y", "y"), ("y", "x")
        )
        expr = Select(
            Product(Rel("R2", 1), Select(SigmaStar(), pattern)), generator
        )
        optimized, rules = optimize_expression(expr, QueryEngine())
        assert dict(rules)["generative-fuse"] == 1
        assert answers(optimized, length=4) == answers(expr, length=4)

    def test_session_caches_fused_and_minimized_machines(self):
        session = QueryEngine()
        first = machine(sh.equals("x", "y"))
        second = machine(sh.constant("x", "ab"), ("x", "y"))
        expr = Select(Select(Rel("R1", 2), first), second)
        optimize_expression(expr, session=session)
        optimize_expression(expr, session=session)
        assert session.stats.caches["optimize"].hits >= 1
        assert session.stats.caches["minimize"].hits >= 1

    def test_noop_expression_reports_no_rules(self):
        expr = Rel("R2", 1)
        optimized, rules = optimize_expression(expr, QueryEngine())
        assert optimized == expr and rules == ()


class TestTranslateBranches:
    def test_single_branch_returns_none(self):
        formula = rel("R2", "x")
        assert translate_branches(formula, ("x",), AB) is None

    def test_union_translation_matches_direct(self):
        from repro.algebra.translate import calculus_to_algebra

        formula = f_or(rel("R2", "x"), rel("R1", "x", "x"))
        direct = calculus_to_algebra(formula, ("x",), AB)
        branched = translate_branches(formula, ("x",), AB)
        assert isinstance(branched, Union)
        assert answers(branched) == answers(direct)

    def test_partial_branches_pad_missing_head_variables(self):
        # The second branch never mentions y: it must be padded to the
        # full head with a Σ* column, in head order.
        formula = f_or(rel("R1", "x", "y"), rel("R2", "x"))
        branched = translate_branches(formula, ("x", "y"), AB)
        assert branched is not None
        expected = {("a", "b"), ("ab", "ab"), ("b", "b")} | {
            (s,) + (pad,)
            for (s,) in db().relation("R2")
            for pad in AB.strings(2)
        }
        assert (
            evaluate_expression(branched, db(), 2, QueryEngine())
            == frozenset(expected)
        )
