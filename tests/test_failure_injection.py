"""Failure-injection tests: every error path raises the right error.

The library's contract is that deliberate failures surface as
:class:`ReproError` subclasses with actionable messages — never as
silent wrong answers or anonymous ``KeyError``/``ValueError`` leaks.
This module drives malformed inputs through each public surface.
"""

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core.alphabet import AB, DNA, LEFT_END, Alphabet
from repro.core.database import Database
from repro.core.query import Query
from repro.core.syntax import Exists, Not, atom, exists, left, lift, rel
from repro.errors import (
    AlphabetError,
    ArityError,
    AssignmentError,
    EvaluationError,
    LimitationError,
    ParseError,
    ReproError,
    SafetyError,
    TransitionError,
    UnboundedQueryError,
)
from repro.parallel import NaiveShardTask


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for error in (
            AlphabetError,
            ArityError,
            AssignmentError,
            EvaluationError,
            LimitationError,
            ParseError,
            SafetyError,
            TransitionError,
            UnboundedQueryError,
        ):
            assert issubclass(error, ReproError)
        assert issubclass(UnboundedQueryError, EvaluationError)


class TestDataBoundary:
    def test_foreign_characters_stopped_at_database(self):
        with pytest.raises(AlphabetError):
            Database(DNA, {"R": [("hello",)]})

    def test_foreign_characters_stopped_at_simulation(self):
        from repro.core import shorthands as sh
        from repro.fsa.compile import compile_string_formula
        from repro.fsa.simulate import accepts

        fsa = compile_string_formula(sh.equals("x", "y"), AB).fsa
        with pytest.raises(AlphabetError):
            accepts(fsa, ("xy", "xy"))

    def test_wrong_tuple_width_stopped_at_simulation(self):
        from repro.core import shorthands as sh
        from repro.fsa.compile import compile_string_formula
        from repro.fsa.simulate import accepts

        fsa = compile_string_formula(sh.equals("x", "y"), AB).fsa
        with pytest.raises(ArityError):
            accepts(fsa, ("ab",))

    def test_mismatched_alphabet_between_query_and_db(self):
        # The database boundary catches values outside ITS alphabet;
        # a query over a different alphabet then simply finds no
        # matching strings — no silent crash.
        db = Database(AB, {"R": [("ab",)]})
        q = Query(("x",), rel("R", "x"), Alphabet("cd"))
        assert q.evaluate(db, length=2) == frozenset()


class TestUnsafeQueries:
    def test_uncertified_query_refuses_auto_evaluation(self):
        from repro.core import shorthands as sh

        db = Database(AB, {"R": [("ab",)]})
        q = Query(
            ("y",),
            exists("x", rel("R", "x") & lift(sh.manifold("y", "x"))),
            AB,
        )
        with pytest.raises(SafetyError):
            q.evaluate(db)

    def test_unbounded_generation_raises_not_hangs(self):
        from repro.core.syntax import IsChar, SStar, WTrue, concat
        from repro.fsa.compile import compile_string_formula
        from repro.fsa.generate import accepted_tuples

        # [x]_l x='a' pins one character and accepts all extensions:
        # with an absurd cap, materializing them must fail loudly.
        phi = atom(left("x"), IsChar("x", "a"))
        fsa = compile_string_formula(phi, AB).fsa
        with pytest.raises(UnboundedQueryError):
            accepted_tuples(fsa, max_length=200)

    def test_crossing_state_explosion_capped(self):
        from repro.core import shorthands as sh
        from repro.fsa.compile import compile_string_formula
        from repro.safety.crossing import build_crossing_automaton

        fsa = compile_string_formula(sh.manifold("x", "y"), AB).fsa
        with pytest.raises(LimitationError):
            build_crossing_automaton(fsa, 1, {0}, {1}, max_states=1)


class TestStructuralValidation:
    def test_transition_off_tape_area(self):
        from repro.fsa.machine import Transition

        with pytest.raises(TransitionError):
            Transition("p", (LEFT_END,), "q", (-1,))

    def test_query_head_validation(self):
        with pytest.raises(EvaluationError):
            Query(("x", "y"), rel("R", "x"), AB)

    def test_quantifier_capture_detected(self):
        from repro.core.syntax import rename_free

        with pytest.raises(AssignmentError):
            rename_free(Exists("y", rel("R", "x", "y")), {"x": "y"})

    def test_parser_rejects_garbage(self):
        from repro.core.parser import parse_formula

        for garbage in ("", "R(", "exists : R(x)", "[x]l &", "R(x) &&"):
            with pytest.raises(ParseError):
                parse_formula(garbage)

    def test_planner_rejects_unsupported_shapes_loudly(self):
        """The plan degrades to a naive root; ``auto`` records the
        rejection and returns the naive answer."""
        from repro.engine import QueryEngine
        from repro.observability import Tracer

        db = Database(AB, {"R": [("a",)]})
        q = Query(("x",), Not(Exists("y", rel("R", "y"))) & rel("R", "x"), AB)
        session = QueryEngine(tracer=Tracer())
        assert session.evaluate(q, db, length=2) == session.evaluate(
            q, db, length=2, engine="naive"
        )
        counters = session.tracer.counters
        assert counters["plan.reject.unsupported-literal"] == 2
        assert session.stats.rejects == {"unsupported-literal": 2}


def _r2_of_five_letter_strings():
    """``R2`` holding the 32 five-letter strings over ``ab``."""
    from itertools import product

    return Database(
        AB, {"R2": [("".join(p),) for p in product("ab", repeat=5)]}
    )


#: Generate queries whose accepted tapes are unconstrained beyond a
#: prefix, the database each runs over, and whether it reaches the
#: pool at two workers: the first has one generator binding (below the
#: pooling floor), the second 32.
UNBOUNDED_AT_LENGTH_30 = (
    ("[x]l(x = 'a')", lambda: Database(AB, {}), False),
    ("exists y: R2(y) & [x,y]l(x = y)", _r2_of_five_letter_strings, True),
)

#: The error both :data:`UNBOUNDED_AT_LENGTH_30` queries raise: the
#: failing generator run is the first in sorted key order.
UNBOUNDED_BEYOND_A = (
    "an accepted tape is unconstrained beyond 'a'; materializing "
    "Σ^<=29 extensions is infeasible — the query does not limit this "
    "output"
)

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


@dataclass(frozen=True)
class CrashingTask(NaiveShardTask):
    """Kills its worker on each of its first ``crashes`` runs.

    Workers share no memory with the test, so each run claims the next
    free marker file in the directory ``markers``; once all ``crashes``
    markers exist, the task answers like the :class:`NaiveShardTask`
    it is.
    """

    markers: str = ""
    crashes: int = 1

    def run(self):
        for attempt in range(self.crashes):
            marker = os.path.join(self.markers, f"crash{attempt}")
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                continue
            os._exit(13)  # a hard worker death, not an exception
        return super().run()


@dataclass(frozen=True)
class FailingTask(NaiveShardTask):
    """Appends one line to ``log`` per run, then raises a typed error."""

    log: str = ""

    def run(self):
        with open(self.log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        raise UnboundedQueryError(f"shard {self.shard} cannot be bounded")


class TestParallelFaultInjection:
    """The pool's one failure policy: a task's exception reaches the
    caller unchanged and the task runs once; a dead worker is recovered
    by rebuilding the pool, up to a fixed budget, after which a typed
    :class:`WorkerCrashError` is raised — never a wrong answer.

    The fault-injecting tasks are the test-owned subclasses above,
    shipped to a :class:`ParallelExecutor` next to ordinary shards of
    the prefix query's candidate space.
    """

    @staticmethod
    def _setup():
        from repro.core import shorthands as sh
        from repro.engine import QueryEngine
        from repro.parallel import ParallelExecutor
        from repro.workloads.generators import example_database

        db = example_database(AB, seed=3, size=4, max_length=3)
        query = Query(
            ("x", "y"),
            rel("R1", "x", "y") & lift(sh.prefix_of("x", "y")),
            AB,
        )
        session = QueryEngine()
        domain = session.domain_for(AB, 3)
        reference = session.evaluate(query, db, domain=domain, workers=1)
        executor = ParallelExecutor(workers=2)
        tasks = [
            NaiveShardTask(shard, query.formula, query.head, db, domain)
            for shard in executor.plan(len(domain) ** len(query.head))
        ]
        return executor, tasks, reference

    @staticmethod
    def _as(kind, task, **extra):
        """``task`` rebuilt as the fault-injecting subclass ``kind``."""
        return kind(**vars(task), **extra)

    def test_task_error_passes_through_unchanged_and_runs_once(
        self, tmp_path
    ):
        executor, tasks, _ = self._setup()
        log = tmp_path / "runs.log"
        tasks[0] = self._as(FailingTask, tasks[0], log=str(log))
        with pytest.raises(UnboundedQueryError) as caught:
            executor.run(tasks)
        assert str(caught.value) == (
            f"shard {tasks[0].shard} cannot be bounded"
        )
        assert len(log.read_text(encoding="utf-8").splitlines()) == 1
        assert executor.report.restarts == 0

    def test_unbounded_generation_error_is_the_same_at_every_worker_count(
        self, monkeypatch
    ):
        from repro.core.parser import parse_formula
        from repro.engine import QueryEngine
        from repro.fsa import generate

        runs = []
        generator = generate.accepted_tuples

        def counted(*args, **kwargs):
            runs.append(args)
            return generator(*args, **kwargs)

        monkeypatch.setattr(generate, "accepted_tuples", counted)
        for text, make_db, pooled in UNBOUNDED_AT_LENGTH_30:
            query = Query(("x",), parse_formula(text), AB)
            messages = {}
            for workers in (1, 2):
                session = QueryEngine()
                runs.clear()
                with pytest.raises(UnboundedQueryError) as caught:
                    session.evaluate(
                        query, make_db(), length=30, workers=workers
                    )
                messages[workers] = str(caught.value)
            assert messages[2] == messages[1], text
            assert messages[1] == UNBOUNDED_BEYOND_A, text
            # The last session ran at two workers: an in-process run
            # below the pooling floor happens once, a pooled one in a
            # worker, and no worker died.
            totals = session.stats.snapshot()["parallel"]
            assert totals["pooled_runs"] == int(pooled), text
            assert totals["restarts"] == 0
            assert len(runs) == (0 if pooled else 1), text

    def test_worker_crash_breaks_pool_but_not_the_answer(self, tmp_path):
        executor, tasks, reference = self._setup()
        tasks[0] = self._as(CrashingTask, tasks[0], markers=str(tmp_path))
        assert frozenset().union(*executor.run(tasks)) == reference
        assert executor.report.restarts == 1
        assert executor.report.shards_completed == len(tasks)

    def test_exhausted_retries_raise_typed_error(self, tmp_path):
        from repro.errors import ParallelExecutionError, WorkerCrashError
        from repro.parallel.executor import MAX_POOL_RESTARTS

        executor, tasks, _ = self._setup()
        tasks[0] = self._as(
            CrashingTask,
            tasks[0],
            markers=str(tmp_path),
            crashes=MAX_POOL_RESTARTS + 2,
        )
        with pytest.raises(WorkerCrashError):
            executor.run(tasks)
        assert issubclass(WorkerCrashError, ParallelExecutionError)
        assert executor.report.restarts == MAX_POOL_RESTARTS
        # One crash per pool: the first and every rebuilt one.
        assert len(list(tmp_path.iterdir())) == MAX_POOL_RESTARTS + 1

    def test_parallel_error_hierarchy(self):
        from repro.errors import ParallelExecutionError, WorkerCrashError

        assert issubclass(ParallelExecutionError, EvaluationError)
        assert issubclass(WorkerCrashError, ParallelExecutionError)


class TestCLIFailures:
    def test_unbounded_generation_reports_the_same_error_at_every_worker_count(
        self, tmp_path, capsys
    ):
        import json

        from repro.cli import main

        for text, make_db, _ in UNBOUNDED_AT_LENGTH_30:
            path = tmp_path / "db.json"
            path.write_text(json.dumps(make_db().to_json()))
            errors = {}
            for workers in ("1", "2"):
                code = main(
                    [
                        "query",
                        "--alphabet",
                        "ab",
                        "--db",
                        str(path),
                        "--head=x",
                        "--length",
                        "30",
                        "--workers",
                        workers,
                        text,
                    ]
                )
                assert code == 2
                errors[workers] = capsys.readouterr().err
            assert errors["2"] == errors["1"], text
            assert errors["1"] == f"error: {UNBOUNDED_BEYOND_A}\n", text

    def test_generator_failure_message_is_the_same_under_every_hash_seed(
        self, tmp_path
    ):
        # The 32 bindings come out of a frozenset in string-hash order;
        # the failing run reported must not depend on it.
        import json

        path = tmp_path / "db.json"
        path.write_text(json.dumps(_r2_of_five_letter_strings().to_json()))
        errors = set()
        for seed in ("0", "1", "2"):
            for workers in ("1", "2"):
                done = subprocess.run(
                    [
                        sys.executable, "-m", "repro.cli", "query",
                        "--alphabet", "ab", "--db", str(path),
                        "--head=x", "--length", "30",
                        "--workers", workers,
                        "exists y: R2(y) & [x,y]l(x = y)",
                    ],
                    env={
                        "PYTHONPATH": REPO_SRC,
                        "PATH": "/usr/bin:/bin",
                        "PYTHONHASHSEED": seed,
                        "PYTHONIOENCODING": "utf-8",
                    },
                    capture_output=True,
                    text=True,
                    encoding="utf-8",
                    timeout=120,
                )
                assert done.returncode == 2, done.stderr
                errors.add(done.stderr)
        assert errors == {f"error: {UNBOUNDED_BEYOND_A}\n"}

    def test_unknown_relation_is_empty_not_crash(self, tmp_path):
        import json

        from repro.cli import main

        path = tmp_path / "db.json"
        path.write_text(json.dumps({"R": [["a"]]}))
        code = main(
            [
                "query",
                "--alphabet",
                "ab",
                "--db",
                str(path),
                "--head=x",
                "--length",
                "1",
                "Missing(x)",
            ]
        )
        assert code == 0  # empty answer, clean exit

    def test_malformed_formula_reports_error(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "db.json"
        path.write_text(json.dumps({"R": [["a"]]}))
        code = main(
            [
                "query",
                "--alphabet",
                "ab",
                "--db",
                str(path),
                "--head=x",
                "R(x",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
