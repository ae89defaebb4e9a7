"""motif-scan: read-only selections over n-gram and SLP storage.

Storage probes and the acceptance kernels do nearly all the work here;
compilation happens once, during warm-up.  The loop cycles through
three classes of selection:

* ``indexed`` - motifs with a mandatory factor of at least 3 chars, so
  the planner's n-gram prefilter prunes rows before the kernel runs;
* ``scan`` - the Q6 pattern and 2-char motifs, which no index can
  prune, so every row reaches the kernel;
* ``slp`` - motifs over a relation of long repetitive sequences held
  compressed in ``SLPStorage``.

The relation is 10k rows rather than 100k, and the SLP sequences are
0.5-1k characters, so that a 10-second run holds a few hundred reads
(a full scan costs about 0.07 s at 10k rows).

The loop repeats :func:`schedule`: five reads a round, two indexed, the
prefiltered SLP motif, one SLP motif every row must decode, one scan,
with each slot rotating through its class.  Those four classes are 40,
20, 20 and 20% of the reads and their latencies lie about 2x apart, so
``query_p50_ms`` is the middle of the prefiltered SLP reads and
``query_p90_ms`` the middle of the scans; a pooled quantile that fell
on the border of two classes would jump between them from run to run.
"""

from __future__ import annotations

import random

from perfbench import dna, harness
from perfbench.harness import Loop, Result, latency_ms

ROWS = 10_000
SLP_ROWS = 64
#: Read percentiles are medians over blocks of this many passes through
#: :func:`schedule` (about 2 s each).
BLOCK_CYCLES = 3
#: The SLP sequences repeat this block; ``gattaca`` never occurs in any
#: repetition of it, and neither does ``tt``.
BLOCK = "acgtacgt"
SLP_MOTIF = "gattaca"

SELECTIONS = (
    ("indexed", "R2", "gcgcgc"),
    ("indexed", "R2", "tacga"),
    ("indexed", "R2", "catt"),
    ("scan", "R2", "Q6"),
    ("scan", "R2", "ag"),
    ("scan", "R2", "tc"),
    ("slp", "S", SLP_MOTIF),
    ("slp", "S", "cgtacg"),
    ("slp", "S", "tt"),
)

#: Rounds in one pass of :func:`schedule`: every rotation comes full
#: circle after this many (3 indexed and 3 scan motifs, 2 decoding SLP).
ROUNDS = 6


def schedule() -> list[tuple[str, str, str]]:
    """One pass of the read loop: :data:`ROUNDS` rounds of five reads."""
    indexed = [entry for entry in SELECTIONS if entry[0] == "indexed"]
    scans = [entry for entry in SELECTIONS if entry[0] == "scan"]
    prefiltered, *decoding = [
        entry for entry in SELECTIONS if entry[0] == "slp"
    ]
    reads = []
    for turn in range(ROUNDS):
        reads += [
            indexed[2 * turn % len(indexed)],
            indexed[(2 * turn + 1) % len(indexed)],
            prefiltered,
            decoding[turn % len(decoding)],
            scans[turn % len(scans)],
        ]
    return reads


def slp_plan(seed: int) -> list[tuple[int, bool]]:
    """Per SLP row: (filler blocks per half, whether the motif is planted).

    The sizes are the same for every seed, and every other size carries
    the motif, so every seed asks the same amount of work of the
    program; the seed only decides the order of the rows.
    """
    plan = [
        (32 + index * 32 // (SLP_ROWS - 1), index % 2 == 0)
        for index in range(SLP_ROWS)
    ]
    random.Random(seed ^ 0x5A17).shuffle(plan)
    return plan


def slp_text(half: int, planted: bool) -> str:
    """The expanded string of one SLP row, built without the grammar."""
    filler = BLOCK * half
    return filler + (SLP_MOTIF if planted else "") + filler


def build(seed: int):
    """Generate both relations and warm the session on every selection."""
    from repro.core.alphabet import DNA
    from repro.core.database import Database
    from repro.engine import QueryEngine
    from repro.slp import compress, concat, literal, repeat
    from repro.storage import NGramIndexStorage, SLPStorage

    rows = dna.fragments(seed, ROWS)
    block = compress(BLOCK)
    motif = literal(SLP_MOTIF)
    cells = []
    for half, planted in slp_plan(seed):
        filler = repeat(block, half)
        middle = concat(motif, filler) if planted else filler
        cells.append((concat(filler, middle),))
    db = Database(
        DNA,
        {
            "R2": NGramIndexStorage.build([(row,) for row in rows]),
            "S": SLPStorage.from_cells(cells),
        },
    )
    session = QueryEngine()
    for _, relation, spec in SELECTIONS:
        session.evaluate(dna.query(relation, spec), db, workers=1)
    return rows, db, session


def run(seed: int, seconds: float, trace: bool) -> Result:
    """One run: setup, oracle answers, then the closed read loop."""
    setup_s, (rows, db, session), build_s = harness.setup(
        lambda: build(seed), trace
    )
    slp_rows = [slp_text(half, planted) for half, planted in slp_plan(seed)]
    source = {"R2": rows, "S": slp_rows}
    cycle = schedule()
    random.Random(seed).shuffle(cycle)
    plans = [
        (kind, dna.query(relation, spec), dna.expected(source[relation], spec))
        for kind, relation, spec in cycle
    ]
    loop = Loop(session, trace)
    position = [0]

    def step():
        kind, query, want = plans[position[0] % len(plans)]
        position[0] += 1
        loop.op(
            kind,
            lambda: session.evaluate(query, db, workers=1),
            lambda got: None if got == want else (
                f"{len(got)} rows, oracle has {len(want)}"
            ),
        )

    harness.run_for(seconds, loop, step)
    result = Result(loop.attempted, loop.failed, failures=loop.failures)
    reads = loop.sequence
    result.end_to_end = harness.end_to_end(
        setup_s, loop.cycle_rate(len(plans)), reads, harness.peak_rss_mb(),
        block=BLOCK_CYCLES * len(plans),
    )
    result.notes = harness.read_notes(reads) + [
        (f"{kind}_p50_ms", latency_ms(loop.latencies[kind], 0.5), "ms")
        for kind in ("indexed", "scan", "slp")
    ]
    if trace:
        result.per_layer = harness.layer_metrics(loop, session, build_s)
    return result

