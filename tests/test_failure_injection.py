"""Failure-injection tests: every error path raises the right error.

The library's contract is that deliberate failures surface as
:class:`ReproError` subclasses with actionable messages — never as
silent wrong answers or anonymous ``KeyError``/``ValueError`` leaks.
This module drives malformed inputs through each public surface.
"""

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


class TestParallelFaultInjection:
    """Chaos-injected shard failures: the executor must retry with
    re-split shards and still produce the exact sequential answer, or
    surface a typed :class:`ParallelExecutionError` when the retry
    budget is exhausted — never a wrong answer or a raw traceback.

    The query is evaluated with an explicit ``domain`` so the naive
    candidate space is sharded (plan-shaped evaluation would bind
    every variable relationally and leave nothing to inject into).
    The ``pooled`` fixture hands the chaos policy and retry settings
    to the executor ``auto`` builds.  Chaos policies key on shard
    generation: re-split children carry ``generation + 1`` and execute
    cleanly, which is exactly the transient-fault shape the retry loop
    is built for.
    """

    @staticmethod
    def _setup():
        from repro.core import shorthands as sh
        from repro.engine import QueryEngine
        from repro.workloads.generators import example_database

        db = example_database(AB, seed=3, size=4, max_length=3)
        query = Query(
            ("x", "y"),
            rel("R1", "x", "y") & lift(sh.prefix_of("x", "y")),
            AB,
        )
        session = QueryEngine()
        domain = session.domain_for(AB, 3)
        reference = session.evaluate(query, db, domain=domain, engine="naive")
        return session, query, db, domain, reference

    @staticmethod
    def _report(session):
        return session.stats.snapshot()["parallel"]

    def test_failing_shards_are_retried_to_the_correct_answer(self, pooled):
        from repro.parallel import ChaosPolicy

        session, query, db, domain, reference = self._setup()
        pooled.update(shards=3, chaos=ChaosPolicy(fail_generations=(0,)))
        answers = session.evaluate(query, db, domain=domain, workers=2)
        assert answers == reference
        report = self._report(session)
        assert report["retries"] == 3 and report["resplits"] == 3
        assert report["failures"] >= 3
        # Every failed shard was re-split in two, so more shards
        # completed than were originally planned.
        assert report["shards_completed"] > report["shards_planned"]

    def test_hanging_shard_times_out_and_recovers(self, pooled):
        from repro.parallel import ChaosPolicy

        session, query, db, domain, reference = self._setup()
        pooled.update(
            shards=2,
            timeout=0.2,
            chaos=ChaosPolicy(
                hang_generations=(0,), only_indices=(0,), hang_seconds=5.0
            ),
        )
        answers = session.evaluate(query, db, domain=domain, workers=2)
        assert answers == reference
        report = self._report(session)
        assert report["timeouts"] >= 1
        assert report["resplits"] >= 1

    def test_worker_crash_breaks_pool_but_not_the_answer(self, pooled):
        from repro.parallel import ChaosPolicy

        session, query, db, domain, reference = self._setup()
        pooled.update(
            shards=3,
            chaos=ChaosPolicy(crash_generations=(0,), only_indices=(0,)),
        )
        answers = session.evaluate(query, db, domain=domain, workers=2)
        assert answers == reference
        assert self._report(session)["resplits"] >= 1

    def test_exhausted_retries_raise_typed_error(self, pooled):
        from repro.errors import ParallelExecutionError
        from repro.parallel import ChaosPolicy

        session, query, db, domain, _ = self._setup()
        pooled.update(
            shards=2,
            max_retries=1,
            chaos=ChaosPolicy(fail_generations=(0, 1, 2, 3)),
        )
        with pytest.raises(ParallelExecutionError):
            session.evaluate(query, db, domain=domain, workers=2)

    def test_exhausted_timeouts_raise_shard_timeout_error(self, pooled):
        from repro.errors import ParallelExecutionError, ShardTimeoutError
        from repro.parallel import ChaosPolicy

        session, query, db, domain, _ = self._setup()
        pooled.update(
            shards=1,
            timeout=0.15,
            max_retries=0,
            chaos=ChaosPolicy(hang_generations=(0,), hang_seconds=5.0),
        )
        with pytest.raises(ShardTimeoutError):
            session.evaluate(query, db, domain=domain, workers=2)
        assert issubclass(ShardTimeoutError, ParallelExecutionError)

    def test_sequential_chaos_stays_in_process(self):
        """With one worker the chaos hooks degrade gracefully: a crash
        injection must not take down the test process, and the typed
        error still surfaces."""
        from repro.errors import ParallelExecutionError
        from repro.parallel import (
            ChaosPolicy,
            NaiveShardTask,
            ParallelExecutor,
            ShardPlanner,
        )

        _, query, db, domain, _ = self._setup()
        executor = ParallelExecutor(
            workers=1,
            planner=ShardPlanner(2),
            min_parallel_items=1,
            max_retries=0,
            chaos=ChaosPolicy(crash_generations=(0,)),
        )
        tasks = [
            NaiveShardTask(shard, query.formula, query.head, db, domain)
            for shard in executor.plan(len(domain) ** len(query.head))
        ]
        with pytest.raises(ParallelExecutionError):
            executor.run(tasks)
        assert executor.report.mode == "sequential"

    def test_parallel_error_hierarchy(self):
        from repro.errors import (
            ParallelExecutionError,
            ShardTimeoutError,
            WorkerCrashError,
        )

        assert issubclass(ParallelExecutionError, EvaluationError)
        assert issubclass(ShardTimeoutError, ParallelExecutionError)
        assert issubclass(WorkerCrashError, ParallelExecutionError)


class TestCLIFailures:
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
