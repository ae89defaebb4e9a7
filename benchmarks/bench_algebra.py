"""Experiments T41/T42: the calculus ⇄ algebra translations.

Times both translation directions and checks the translated artefacts
produce the same answers — the executable content of Theorems 4.1 and
4.2.
"""

import pytest

from repro.algebra.evaluate import evaluate_expression
from repro.algebra.expressions import Project, Rel, Select
from repro.algebra.translate import (
    algebra_to_calculus,
    calculus_to_algebra,
    partition_machine,
)
from repro.core import shorthands as sh
from repro.core.alphabet import AB
from repro.core.semantics import evaluate_naive
from repro.core.syntax import And, exists, lift, rel
from repro.engine import QueryEngine
from repro.fsa.compile import compile_string_formula


@pytest.fixture(scope="module")
def formula():
    return exists(
        "y", And(rel("R1", "x", "y"), lift(sh.prefix_of("y", "x")))
    )


def test_calculus_to_algebra_translation(benchmark, formula):
    expression = benchmark(calculus_to_algebra, formula, ("x",), AB)
    assert expression.arity == 1


def test_translated_expression_agrees(ab_database, formula):
    expression = calculus_to_algebra(formula, ("x",), AB)
    expected = evaluate_naive(
        formula, ("x",), ab_database, tuple(AB.strings(4))
    )
    got = evaluate_expression(expression, ab_database, 4, QueryEngine())
    assert got == expected


def test_algebra_to_calculus_translation(benchmark):
    machine = compile_string_formula(sh.equals("x", "y"), AB).fsa
    expression = Project(Select(Rel("R1", 2), machine), (0,))
    back = benchmark(algebra_to_calculus, expression)
    from repro.core.syntax import free_variables

    assert free_variables(back) == {"x1"}


def test_partition_machine_construction(benchmark):
    machine = benchmark(partition_machine, 6, [[0, 3], [1, 4], [2, 5]], AB)
    # factorized enumeration: far below (|Σ|+2)^6 transitions
    assert machine.size < (len(AB.symbols) + 2) ** 6


def test_partition_machine_vs_compiled_formula(ab_database):
    """The direct machine equals the compiled partition formula."""
    from repro.algebra.translate import partition_formula
    from repro.fsa.simulate import accepts

    width, parts = 4, [[0, 2], [1, 3]]
    direct = partition_machine(width, parts, AB)
    compiled = compile_string_formula(
        partition_formula(width, parts),
        AB,
        variables=tuple(f"c{i}" for i in range(width)),
    ).fsa
    from itertools import product

    pool = list(AB.strings(2))
    for row in product(pool, repeat=width):
        assert accepts(direct, row) == accepts(compiled, row), row
