"""Kernel conformance: the kernel is never observable in answers.

The machine picks its acceptance kernel (the determinized scan inside
the Theorem 5.2 fragment, the v1 worklist kernel otherwise), and that
choice must never show in answers: for every workload generator, every
registered engine (and the plan and pooled routes of ``auto``) and
every worker count, the evaluated answer sets must be byte-identical
(compared as sorted tuple lists) to the naive reference.  A forced-v1
column (the ``forced_v1`` fixture makes the determinizer decline
in-process) runs the same matrix with every machine on the worklist
kernel, and a forced-scan column (the ``forced_scan`` fixture) with
every determinized kernel on its table scan, so the occurrence
selection's substring search is held to the scan it replaces.  The
file also checks that the machine picks the session's kernel and that
both fixtures reach kernels built before them.
"""

import pytest

from repro.core import shorthands as sh
from repro.core.alphabet import AB, Alphabet
from repro.core.query import Query
from repro.core.syntax import (
    And,
    IsChar,
    Not,
    SStar,
    Var,
    WTrue,
    atom,
    concat,
    exists,
    left,
    lift,
    rel,
)
from repro.engine import QueryEngine
from repro.fsa.compile import compile_string_formula
from repro.fsa.determinize import DeterministicKernel
from repro.fsa.kernel import CompiledKernel, kernel_for
from repro.ir.execute import execute_plan
from repro.observability import Tracer
from repro.workloads.generators import (
    copy_language_strings,
    example_database,
    manifold_strings,
    near_duplicates,
    uniform_strings,
    with_planted_motif,
)

DNA = Alphabet("acgt")

#: The worker counts the conformance matrix must cover.
WORKER_COUNTS = (1, 2, 4)

#: Matrix columns ``(kernels, workers)``: ``auto`` lets each machine
#: pick its kernel; ``v1`` forces the worklist kernel through the
#: ``forced_v1`` fixture and ``scan`` the table scan through the
#: ``forced_scan`` fixture.  Both only patch this process, so they run
#: at one worker.
COLUMNS = [("auto", workers) for workers in WORKER_COUNTS] + [
    ("v1", 1),
    ("scan", 1),
]

#: Every registered engine.
ENGINES = ("naive", "algebra", "auto")

#: Matrix rows: the engines plus two routes of ``auto``.  ``planner``
#: executes the session's plan directly (the executor every ``auto``
#: branch runs); ``parallel`` runs ``auto`` under the ``pooled``
#: fixture, so tiny workloads still cross real process boundaries.
ROUTES = ENGINES + ("planner", "parallel")


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
        pairs=manifold_strings(
            AB, count=4, max_base_length=2, max_repeats=2, seed=21
        ),
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
    # select-prefix exercises the in-fragment (right-restricted) v2
    # path; generate-concat and the manifold rows keep out-of-fragment
    # machines (v1 fallback) in the same matrix.
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
    # A one-tape occurrence selection: its kernel answers plain batches
    # by substring search, except in the forced-scan column.
    yield "select-motif", Query(
        ("y",), And(rel("R2", "y"), lift(_occurs(alphabet.symbols[:2]))),
        alphabet,
    )


def _occurs(motif):
    """``Σ*·motif`` on ``y``, as the end-to-end motif selections build it."""
    return concat(
        SStar(atom(left("y"), WTrue())),
        *[atom(left("y"), IsChar("y", char)) for char in motif],
    )


DATABASES = list(_databases())
DB_PARAMS = [pytest.param(name, db, id=name) for name, db in DATABASES]

#: One long-lived session for the ``auto`` columns, so the matrix also
#: exercises cache reuse across its cells.
_SESSION = QueryEngine()
_REFERENCES: dict = {}


def _reference(dbname, qname, query, db, bound):
    """The naive answer, computed once per (db, query)."""
    key = (dbname, qname)
    if key not in _REFERENCES:
        _REFERENCES[key] = sorted(
            QueryEngine().evaluate(query, db, length=bound, engine="naive")
        )
    return _REFERENCES[key]


@pytest.mark.parametrize(
    "kernels,workers", COLUMNS, ids=[f"{k}-{w}" for k, w in COLUMNS]
)
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("dbname,db", DB_PARAMS)
def test_conformance_matrix(dbname, db, route, kernels, workers, request):
    """generator × route × workers (+ forced v1, forced scan): identical
    answers."""
    if kernels != "auto":
        request.getfixturevalue(f"forced_{kernels}")
        session = QueryEngine()
    else:
        session = _SESSION
    if route == "parallel":
        request.getfixturevalue("pooled")["shards"] = 3
    bound = db.max_string_length() + 1
    for qname, query in _queries(db.alphabet):
        reference = _reference(dbname, qname, query, db, bound)
        if route == "planner":
            plan = session.query_plan(query, db, bound)
            answers = execute_plan(plan, db, query.alphabet, bound, session)
        else:
            answers = session.evaluate(
                query,
                db,
                length=bound,
                engine="auto" if route == "parallel" else route,
                workers=workers,
            )
        assert sorted(answers) == reference, (
            f"{dbname}/{qname}: route={route} kernels={kernels} "
            f"workers={workers} diverges from the naive reference"
        )


# -- kernel choice -----------------------------------------------------


def _equals_machine():
    return compile_string_formula(sh.equals(Var("x"), Var("y")), AB).fsa


def _manifold_machine():
    return compile_string_formula(sh.manifold(Var("x"), Var("y")), AB).fsa


def test_session_kernel_is_picked_by_the_machine():
    session = QueryEngine()
    assert isinstance(session.kernel(_equals_machine()), DeterministicKernel)
    assert isinstance(session.kernel(_manifold_machine()), CompiledKernel)


def test_forced_v1_fixture_declines_in_process(request):
    fsa = _equals_machine()
    assert isinstance(kernel_for(fsa), DeterministicKernel)
    request.getfixturevalue("forced_v1")
    # A machine already carrying a determinized kernel is answered by
    # the worklist kernel too.
    assert isinstance(kernel_for(fsa), CompiledKernel)
    assert isinstance(QueryEngine().kernel(fsa), CompiledKernel)


def test_forced_scan_fixture_hides_the_factor(request):
    motif = compile_string_formula(_occurs("ab"), AB).fsa
    kernel = kernel_for(motif)
    assert kernel.factor == "ab"
    request.getfixturevalue("forced_scan")
    # A kernel built before the fixture keeps its table scan too.
    assert kernel.factor is None
    assert QueryEngine().kernel(motif).factor is None


def test_occurrence_selection_counts_its_factor():
    query = Query(("y",), And(rel("R2", "y"), lift(_occurs("ab"))), AB)
    db = example_database(AB, seed=3, size=4, max_length=3)
    tracer = Tracer()
    answers = QueryEngine(tracer=tracer).evaluate(query, db, length=4)
    assert answers == {row for row in db.relation("R2") if "ab" in row[0]}
    assert tracer.counters["kernel.factor"] == 1
