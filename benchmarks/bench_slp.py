"""The grammar fold ("v3") vs. the scan of expanded strings ("v2").

One scan kernel (``kernel_for`` on an in-fragment machine) serves both
columns: fed SLP cells it folds per-rule summaries in
``O(rules · states)``, fed the expanded strings it reads every
character.  The SLP acceptance criterion: on a planted-motif workload
of highly compressible strings the grammar fold answers the *same*
membership questions ≥5× faster than the scan at **equal expanded
length**.  A second, scale tier plants the motif in strings whose
expanded length is ≥100× the uncompressed budget: only the fold
finishes there (the scan would have to materialize hundreds of
millions of characters), recorded in ``BENCH_slp.json`` alongside the
expanded-vs-stored byte accounting from ``benchmarks/conftest.py``.

Run directly (``PYTHONPATH=src python benchmarks/bench_slp.py``) for a
quick report that records ``BENCH_slp.json`` at the repo root, or
through pytest-benchmark for calibrated timings (pytest runs write
their numbers under ``bench-results/``).
"""

import time

import pytest

from repro.core.alphabet import DNA, LEFT_END, RIGHT_END
from repro.fsa.determinize import DeterministicKernel
from repro.fsa.kernel import kernel_for
from repro.fsa.machine import make_fsa
from repro.slp import compress, concat, literal, repeat
from repro.storage import SLPStorage

try:
    from benchmarks.conftest import byte_accounting, write_results
except ImportError:  # direct script runs from inside benchmarks/
    from conftest import byte_accounting, write_results

#: The acceptance-criterion floor: v3 ≥5× over v2 at equal expanded
#: length on the planted-motif workload.
V3_SPEEDUP_FLOOR = 5.0

#: The largest expanded size the uncompressed tier is allowed to
#: materialize; the scale tier plants motifs in strings ≥100× this.
UNCOMPRESSED_BUDGET = 1 << 21

#: Scale-tier multiplier over the budget (the "only v3 finishes" bar).
SCALE_FACTOR = 100

#: Where the v2-vs-v3 trajectory is recorded for the ROADMAP.
RESULTS_FILE = "BENCH_slp.json"

#: The filler block scale strings repeat; the motif never occurs in
#: any repetition of it ("tt" appears nowhere in block²).
BLOCK = "acgtacgt"
MOTIF = "gattaca"


def _motif_machine():
    """A nondeterministic unidirectional matcher for ``MOTIF``."""
    transitions = [("s", (LEFT_END,), "scan", (+1,))]
    for char in DNA:
        transitions.append(("scan", (char,), "scan", (+1,)))
    previous = "scan"
    for position, char in enumerate(MOTIF):
        state = f"m{position + 1}"
        transitions.append((previous, (char,), state, (+1,)))
        previous = state
    for char in DNA:
        transitions.append((previous, (char,), previous, (+1,)))
    transitions.append((previous, (RIGHT_END,), "f", (0,)))
    return make_fsa(1, DNA, "s", ["f"], transitions)


def _motif_workload():
    """64 compressible rows, ~16–32k expanded chars, half with motif.

    Returns ``(grammar_rows, expanded_rows, expected)``: the same
    strings as SLP cells and as plain strings (equal expanded length
    by construction), plus the expected verdicts.
    """
    block = compress(BLOCK)
    motif = literal(MOTIF)
    grammar_rows = []
    expected = []
    for index in range(64):
        half = 1024 + 64 * index  # 16k–32k expanded chars per row
        filler = repeat(block, half)
        if index % 2:
            cell = concat(filler, concat(motif, filler))
            expected.append(True)
        else:
            cell = concat(filler, filler)
            expected.append(False)
        grammar_rows.append((cell,))
    expanded_rows = [(cell.expand(),) for (cell,) in grammar_rows]
    return grammar_rows, expanded_rows, tuple(expected)


def _scale_workload():
    """Two rows whose expansion is ≥100× the uncompressed budget."""
    reps = (SCALE_FACTOR * UNCOMPRESSED_BUDGET) // len(BLOCK) + 1
    filler = repeat(compress(BLOCK), reps)
    planted = concat(filler, concat(literal(MOTIF), filler))
    return [(planted,), (concat(filler, filler),)], (True, False)


def _best_of(runs, fn):
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _run_v3_cold(kernel, rows):
    # Clearing the memo each run times the full O(rules · states)
    # summary build, not a cache hit — the honest per-batch cost.
    kernel._summaries.clear()
    return kernel.accepts_batch(rows)


def test_v3_motif_workload(benchmark):
    fsa = _motif_machine()
    kernel = kernel_for(fsa)
    grammar_rows, _, expected = _motif_workload()
    verdicts = benchmark(lambda: _run_v3_cold(kernel, grammar_rows))
    assert verdicts == expected


def test_v2_motif_workload(benchmark):
    fsa = _motif_machine()
    kernel = kernel_for(fsa)  # same kernel; plain rows take the scan
    _, expanded_rows, expected = _motif_workload()
    verdicts = benchmark(lambda: kernel.accepts_batch(expanded_rows))
    assert verdicts == expected


def _measurements():
    """The motif-tier timings and the scale-tier record."""
    fsa = _motif_machine()
    kernel = kernel_for(fsa)
    assert isinstance(kernel, DeterministicKernel), (
        "motif machine left the scan-kernel fragment"
    )
    grammar_rows, expanded_rows, expected = _motif_workload()
    assert kernel.accepts_batch(expanded_rows) == expected
    assert _run_v3_cold(kernel, grammar_rows) == expected
    v2_seconds = _best_of(3, lambda: kernel.accepts_batch(expanded_rows))
    v3_seconds = _best_of(3, lambda: _run_v3_cold(kernel, grammar_rows))
    expanded_chars = sum(len(row[0]) for row in expanded_rows)
    motif_tier = {
        "rows": len(grammar_rows),
        "expanded_chars": expanded_chars,
        "v2_seconds": round(v2_seconds, 4),
        "v3_seconds": round(v3_seconds, 4),
        "speedup": round(v2_seconds / v3_seconds, 2),
        "bytes": byte_accounting(
            [("motif", SLPStorage.from_cells(grammar_rows))]
        ),
    }
    scale_rows, scale_expected = _scale_workload()
    scale_chars = sum(row[0].expanded_length() for row in scale_rows)
    assert scale_chars >= SCALE_FACTOR * UNCOMPRESSED_BUDGET
    started = time.perf_counter()
    scale_verdicts = _run_v3_cold(kernel, scale_rows)
    scale_seconds = time.perf_counter() - started
    assert scale_verdicts == scale_expected
    scale_tier = {
        "rows": len(scale_rows),
        "expanded_chars": scale_chars,
        "budget_chars": UNCOMPRESSED_BUDGET,
        "scale_factor": SCALE_FACTOR,
        "v2_seconds": None,  # not attempted: expansion exceeds budget
        "v3_seconds": round(scale_seconds, 4),
        "bytes": byte_accounting(
            [("scale", SLPStorage.from_cells(scale_rows))]
        ),
    }
    return motif_tier, scale_tier


def test_kernel_v3_speedup_floor():
    """SLP acceptance criterion: kernel v3 answers the planted-motif
    workload ≥5× faster than the v2 scan at equal expanded length, and
    alone finishes the ≥100×-budget scale tier; both trajectories are
    recorded in ``BENCH_slp.json``."""
    motif_tier, scale_tier = _measurements()
    write_results(
        RESULTS_FILE,
        {"floor": V3_SPEEDUP_FLOOR, "motif": motif_tier, "scale": scale_tier},
    )
    assert motif_tier["v2_seconds"] >= (
        V3_SPEEDUP_FLOOR * motif_tier["v3_seconds"]
    ), (
        f"motif workload: v3 ({motif_tier['v3_seconds'] * 1e3:.2f} ms) "
        f"not ≥{V3_SPEEDUP_FLOOR}× faster than v2 "
        f"({motif_tier['v2_seconds'] * 1e3:.2f} ms) at "
        f"{motif_tier['expanded_chars']} expanded chars"
    )
    assert scale_tier["expanded_chars"] >= SCALE_FACTOR * UNCOMPRESSED_BUDGET


def main() -> None:
    motif_tier, scale_tier = _measurements()
    write_results(
        RESULTS_FILE,
        {"floor": V3_SPEEDUP_FLOOR, "motif": motif_tier, "scale": scale_tier},
        tracked=True,
    )
    print(
        f"motif      v2: {motif_tier['v2_seconds'] * 1e3:8.2f} ms   "
        f"v3: {motif_tier['v3_seconds'] * 1e3:8.2f} ms   "
        f"speedup: {motif_tier['speedup']:6.1f}x   "
        f"({motif_tier['expanded_chars']} chars expanded, "
        f"{motif_tier['bytes']['stored_chars']} rules stored)"
    )
    print(
        f"scale      v2: not attempted   "
        f"v3: {scale_tier['v3_seconds'] * 1e3:8.2f} ms   "
        f"({scale_tier['expanded_chars']} chars expanded, "
        f"{scale_tier['bytes']['stored_chars']} rules stored)"
    )


if __name__ == "__main__":
    main()
