"""update-mix: small deltas beside materialized answers.

Writes beside reads on the storage and delta layers: each step applies
one seeded delta through ``QueryEngine.apply_delta`` and then re-reads
every materialized answer.  Two steps in three only insert; the third
also deletes live rows, which the maintenance layer cannot repair
semi-naively, so ``delete_p50_ms`` and ``insert_p50_ms`` are reported
apart (a pooled median would hide the gap).

The read latency a reader of this workload sees is read-your-writes:
from handing over a delta until every materialized answer reflects it.
So ``query_p50_ms``/``query_p90_ms`` are taken over whole steps (the
delta plus the re-reads); with one delete step in three, p50 falls in
the middle of the insert steps and p90 in the middle of the delete
steps.  A re-read alone is a lookup of about 20 us, whose time moves by
15% between processes on the same input, so it is only printed
(``lookup_p50_us``).

The relation is held in memory and is 10k rows rather than 100k so a
10-second run holds over a hundred steps.
"""

from __future__ import annotations

import random

from perfbench import dna, harness, stats
from perfbench.harness import Loop, Result, latency_ms

ROWS = 10_000
INSERTS = 6
DELETES = 3
#: Every third step also deletes.
DELETE_EVERY = 3
MATERIALIZED = ("gcgcgc", "tatt", "Q6")
#: Operations in one step: the delta, then one read per answer.
STEP_OPS = 1 + len(MATERIALIZED)
#: Read percentiles are medians over blocks of this many cycles of
#: :data:`DELETE_EVERY` steps (about 2.5 s each).
BLOCK_CYCLES = 10


def build(seed: int):
    """The in-memory relation and a session holding materialized answers."""
    from repro.core.alphabet import DNA
    from repro.core.database import Database
    from repro.engine import QueryEngine

    rows = dna.fragments(seed, ROWS)
    db = Database(DNA, {"R2": [(row,) for row in rows]})
    session = QueryEngine()
    for spec in MATERIALIZED:
        session.evaluate(
            dna.query("R2", spec), db, workers=1, materialize=True
        )
    return rows, db, session


def run(seed: int, seconds: float, trace: bool) -> Result:
    """One run: setup, then the closed update-then-read loop."""
    from repro.delta import Delta

    setup_s, (rows, db, session), build_s = harness.setup(
        lambda: build(seed), trace
    )
    live = set(rows)
    queries = {spec: dna.query("R2", spec) for spec in MATERIALIZED}
    want = {spec: dna.expected(live, spec) for spec in MATERIALIZED}
    rng = random.Random(seed)
    loop = Loop(session, trace)
    state = {"db": db, "step": 0}

    def check_live(updated):
        if updated.relation("R2") != frozenset((row,) for row in live):
            return "live row set differs from the applied deltas"
        return None

    def step():
        deletes = DELETES if state["step"] % DELETE_EVERY == 0 else 0
        state["step"] += 1
        added, removed = dna.delta_rows(rng, live, INSERTS, deletes)
        delta = Delta.of(
            inserts={"R2": [(row,) for row in added]},
            deletes={"R2": [(row,) for row in removed]},
        )
        live.difference_update(removed)
        live.update(added)
        gone = frozenset((row,) for row in removed)
        for spec in MATERIALIZED:
            want[spec] = (want[spec] - gone) | dna.expected(added, spec)
        updated = loop.op(
            "delete" if deletes else "insert",
            lambda: session.apply_delta(state["db"], delta),
            check_live,
        )
        if updated is None:  # the update failed; reads would be stale
            return
        state["db"] = updated
        for spec in MATERIALIZED:
            loop.op(
                "query",
                lambda: session.evaluate(
                    queries[spec], updated, workers=1, materialize=True
                ),
                lambda got: None if got == want[spec] else (
                    f"{spec}: {len(got)} rows, oracle has {len(want[spec])}"
                ),
            )

    harness.run_for(seconds, loop, step)
    result = Result(loop.attempted, loop.failed, failures=loop.failures)
    writes = loop.latencies["insert"] + loop.latencies["delete"]
    steps = [
        sum(loop.sequence[start:start + STEP_OPS])
        for start in range(0, len(loop.sequence) - STEP_OPS + 1, STEP_OPS)
    ]
    result.end_to_end = harness.end_to_end(
        setup_s, loop.cycle_rate(DELETE_EVERY * STEP_OPS), steps,
        harness.peak_rss_mb(), block=BLOCK_CYCLES * DELETE_EVERY,
    )
    lookups = loop.latencies["query"]
    result.notes = harness.read_notes(steps) + [
        ("lookup_p50_us", stats.median(lookups) * 1e6, "us"),
        ("update_p50_ms", latency_ms(writes, 0.5), "ms"),
        ("update_p90_ms", latency_ms(writes, 0.9), "ms"),
        ("insert_p50_ms", latency_ms(loop.latencies["insert"], 0.5), "ms"),
        ("delete_p50_ms", latency_ms(loop.latencies["delete"], 0.5), "ms"),
        ("updates", len(writes), "count"),
    ]
    if trace:
        result.per_layer = harness.layer_metrics(loop, session, build_s)
    return result
