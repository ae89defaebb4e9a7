"""N-gram index storage vs. the in-memory scan on a 100k-row relation.

One selection workload — a planted ``gcgcgc`` motif in 100 000 random
DNA fragments, queried through the ``auto`` engine — runs over both
storage backends.  The memory backend scans and kernel-filters every
row; the n-gram backend answers the pushed-down mandatory-factor probe
first, so the kernel only sees candidate rows.  The equivalence
assertion and the ≥3× speedup assertion make this file the harness row
for the storage-pushdown acceptance criterion.

Run directly (``PYTHONPATH=src python benchmarks/bench_storage.py``)
for a quick report that records ``BENCH_storage.json`` at the repo
root, or through pytest-benchmark for calibrated timings (pytest runs
write their numbers under ``bench-results/``).
"""

import time

import pytest

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
from repro.engine import QueryEngine
from repro.storage import NGramIndexStorage, storage_factory
from repro.workloads.generators import with_planted_motif

try:
    from benchmarks.conftest import write_results
except ImportError:  # direct script runs from inside benchmarks/
    from conftest import write_results

#: The acceptance-criterion floor: indexed ≥3× over the full scan.
SPEEDUP_FLOOR = 3.0

ROWS = 100_000
MOTIF = "gcgcgc"
MAX_LENGTH = 24
#: Truncation bound covering every row (fragment + planted motif).
CAP = MAX_LENGTH + len(MOTIF) + 1

RESULTS_FILE = "BENCH_storage.json"


def _contains_motif():
    """``MOTIF`` occurs somewhere in ``y`` (skip a prefix, then match)."""
    return concat(
        SStar(atom(left("y"), WTrue())),
        *[atom(left("y"), IsChar("y", char)) for char in MOTIF],
    )


_QUERY = Query(("y",), And(rel("R2", "y"), lift(_contains_motif())), DNA)

_STATE: dict = {}


def _databases():
    """The memory- and ngram-backed copies of the 100k-row relation."""
    if not _STATE:
        singles = with_planted_motif(
            DNA, MOTIF, count=ROWS, max_length=MAX_LENGTH,
            fraction=0.01, seed=11,
        )
        plain = Database(DNA, {"R2": [(s,) for s in singles]})
        started = time.perf_counter()
        indexed = plain.with_storage(storage_factory("ngram"))
        _STATE["build_seconds"] = time.perf_counter() - started
        _STATE["plain"] = plain
        _STATE["indexed"] = indexed
    return _STATE["plain"], _STATE["indexed"]


def _run(db):
    """One cold-session evaluation (no shared compiled caches)."""
    return QueryEngine().evaluate(_QUERY, db, length=CAP, engine="auto")


def _best_of(runs, fn):
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_storage_backends_agree():
    """Byte-identical answers on the 100k-row motif workload."""
    plain, indexed = _databases()
    assert isinstance(indexed.storage("R2"), NGramIndexStorage)
    answers = _run(plain)
    assert _run(indexed) == answers
    assert answers  # the planted fraction guarantees matches
    assert all(MOTIF in (value,)[0] for (value,) in answers)


def test_memory_scan(benchmark):
    plain, _ = _databases()
    answers = benchmark(lambda: _run(plain))
    assert answers


def test_ngram_probe(benchmark):
    _, indexed = _databases()
    answers = benchmark(lambda: _run(indexed))
    assert answers


def _measure():
    """Best-of ``(memory, ngram)`` seconds and their JSON report, after
    checking that both backends agree."""
    plain, indexed = _databases()
    answers = _run(plain)
    assert _run(indexed) == answers
    memory = _best_of(2, lambda: _run(plain))
    ngram = _best_of(3, lambda: _run(indexed))
    return memory, ngram, {
        "workload": f"planted-{MOTIF}-motif",
        "rows": ROWS,
        "answers": len(answers),
        "index_build_seconds": round(_STATE["build_seconds"], 4),
        "memory_seconds": round(memory, 4),
        "ngram_seconds": round(ngram, 4),
        "speedup": round(memory / ngram, 2),
        "floor": SPEEDUP_FLOOR,
    }


def test_storage_speedup_floor():
    """Acceptance criterion: the indexed backend is ≥3× faster than the
    full scan on the 100k-row workload."""
    memory, ngram, results = _measure()
    write_results(RESULTS_FILE, results)
    assert memory >= SPEEDUP_FLOOR * ngram, (
        f"indexed storage ({ngram * 1e3:.1f} ms) not ≥{SPEEDUP_FLOOR}× "
        f"faster than the scan ({memory * 1e3:.1f} ms)"
    )


def main() -> None:
    memory, ngram, results = _measure()
    write_results(RESULTS_FILE, results, tracked=True)
    print(
        f"rows: {ROWS}   answers: {results['answers']}   "
        f"index build: {results['index_build_seconds'] * 1e3:8.1f} ms"
    )
    print(
        f"memory: {memory * 1e3:8.1f} ms   ngram: {ngram * 1e3:8.1f} ms   "
        f"speedup: {memory / ngram:5.1f}x"
    )


if __name__ == "__main__":
    main()
