"""Incremental maintenance vs. from-scratch re-evaluation under updates.

One update-then-query loop over a 100k-row DNA relation: each
iteration inserts a handful of fresh rows (some carrying the planted
``gcgcgc`` motif) and re-asks the same selection query.  The warm
session applies the delta through ``apply_delta`` — semi-naive
maintenance of the materialized answer restricted to the inserted
rows, with every session cache kept warm — while the from-scratch baseline
rebuilds the answer with a cold session on the same database version.
Byte-equality is asserted every iteration; the ≥3× speedup assertion
makes this file the harness row for the incremental-evaluation
acceptance criterion.

Run directly (``PYTHONPATH=src python benchmarks/bench_incremental.py``)
for a quick report that records ``BENCH_incremental.json`` at the repo
root, or through pytest-benchmark for calibrated timings (pytest runs
write their numbers under ``bench-results/``).
"""

import random
import time

from repro.core.alphabet import DNA
from repro.core.database import Database
from repro.core.query import Query
from repro.core.syntax import (
    And,
    IsChar,
    SStar,
    WTrue,
    atom,
    concat,
    left,
    lift,
    rel,
)
from repro.delta import Delta
from repro.engine import QueryEngine
from repro.workloads.generators import with_planted_motif

try:
    from benchmarks.conftest import write_results
except ImportError:  # direct script runs from inside benchmarks/
    from conftest import write_results

#: The acceptance-criterion floor: incremental ≥3× over from-scratch.
SPEEDUP_FLOOR = 3.0

ROWS = 100_000
MOTIF = "gcgcgc"
MAX_LENGTH = 24
#: Truncation bound covering every row (fragment + planted motif).
CAP = MAX_LENGTH + len(MOTIF) + 1
#: Rows per update; small against ROWS, as in an OLTP trickle.
DELTA_ROWS = 6
ITERATIONS = 3

RESULTS_FILE = "BENCH_incremental.json"


def _contains_motif():
    """``MOTIF`` occurs somewhere in ``y`` (skip a prefix, then match)."""
    return concat(
        SStar(atom(left("y"), WTrue())),
        *[atom(left("y"), IsChar("y", char)) for char in MOTIF],
    )


_QUERY = Query(("y",), And(rel("R2", "y"), lift(_contains_motif())), DNA)

_STATE: dict = {}


def _base_database():
    if "db" not in _STATE:
        singles = with_planted_motif(
            DNA, MOTIF, count=ROWS, max_length=MAX_LENGTH,
            fraction=0.01, seed=11,
        )
        _STATE["db"] = Database(DNA, {"R2": [(s,) for s in singles]})
    return _STATE["db"]


def _delta(step, rng):
    """A small insert-only delta; one row per batch carries the motif."""
    rows = [
        (
            "".join(rng.choice("acgt") for _ in range(MAX_LENGTH))
            + f"{step:02d}".translate(str.maketrans("0123456789", "acgtacgtac")),
        )
        for _ in range(DELTA_ROWS - 1)
    ]
    rows.append((MOTIF + "".join(rng.choice("acgt") for _ in range(8)),))
    return Delta.of(inserts={"R2": rows})


def _scratch(db):
    """One cold-session evaluation (no shared caches)."""
    return QueryEngine().evaluate(_QUERY, db, length=CAP, engine="auto")


def _loop():
    """Run the update-then-query loop; time both paths per iteration.

    Returns ``(incremental_seconds, scratch_seconds, answers)`` summed
    over all iterations, after asserting byte-equality on each one.
    """
    db = _base_database()
    session = QueryEngine()
    # Steady-state warm session: the first materialization is the
    # one-time cost incremental evaluation amortizes away.
    session.evaluate(_QUERY, db, length=CAP, materialize=True)
    rng = random.Random(7)
    incremental = scratch = 0.0
    answers = frozenset()
    for step in range(ITERATIONS):
        delta = _delta(step, rng)
        started = time.perf_counter()
        db = session.apply_delta(db, delta)
        maintained = session.evaluate(
            _QUERY, db, length=CAP, materialize=True
        )
        incremental += time.perf_counter() - started
        started = time.perf_counter()
        answers = _scratch(db)
        scratch += time.perf_counter() - started
        assert maintained == answers, f"divergence at iteration {step}"
    return incremental, scratch, answers


def test_incremental_matches_from_scratch():
    """Byte-identical answers on every iteration of the update loop."""
    incremental, scratch, answers = _results()
    assert answers
    assert incremental > 0 and scratch > 0


def test_update_then_query_step(benchmark):
    """One incremental step: apply a small delta, re-ask the query."""
    db = _base_database()
    session = QueryEngine()
    session.evaluate(_QUERY, db, length=CAP, materialize=True)
    rng = random.Random(13)
    state = {"db": db, "step": 100}

    def step():
        state["step"] += 1
        state["db"] = session.apply_delta(
            state["db"], _delta(state["step"], rng)
        )
        return session.evaluate(
            _QUERY, state["db"], length=CAP, materialize=True
        )

    assert benchmark(step)


def _results():
    if "loop" not in _STATE:
        _STATE["loop"] = _loop()
    return _STATE["loop"]


def _report() -> dict:
    incremental, scratch, answers = _results()
    return {
        "workload": f"update-then-query-{MOTIF}-motif",
        "rows": ROWS,
        "delta_rows": DELTA_ROWS,
        "iterations": ITERATIONS,
        "answers": len(answers),
        "incremental_seconds": round(incremental, 4),
        "scratch_seconds": round(scratch, 4),
        "speedup": round(scratch / incremental, 2),
        "floor": SPEEDUP_FLOOR,
    }


def test_incremental_speedup_floor():
    """Acceptance criterion: the incremental path is ≥3× faster than
    from-scratch re-evaluation."""
    incremental, scratch, _ = _results()
    write_results(RESULTS_FILE, _report())
    assert scratch >= SPEEDUP_FLOOR * incremental, (
        f"incremental path ({incremental * 1e3:.1f} ms) not "
        f"≥{SPEEDUP_FLOOR}× faster than from-scratch "
        f"({scratch * 1e3:.1f} ms)"
    )


def main() -> None:
    incremental, scratch, answers = _results()
    write_results(RESULTS_FILE, _report(), tracked=True)
    print(
        f"rows: {ROWS}   iterations: {ITERATIONS}   "
        f"delta rows: {DELTA_ROWS}   answers: {len(answers)}"
    )
    print(
        f"incremental: {incremental * 1e3:8.1f} ms   "
        f"scratch: {scratch * 1e3:8.1f} ms   "
        f"speedup: {scratch / incremental:5.1f}x"
    )


if __name__ == "__main__":
    main()
