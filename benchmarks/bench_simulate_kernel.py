"""Acceptance kernels vs. the reference Theorem 3.3 search — and v2 vs v1.

Two benchmark families share this file:

* the PR-5 criterion — one-way selection machines and a two-way
  manifold machine over synthetic generator rows, run through the seed
  dataclass worklist search (``reference_accepts``) and through the
  compiled integer kernel (``repro.fsa.kernel``), gated at ≥3×;
* the kernel-v2 criterion — per-fragment *batch* workloads
  (unidirectional and right-restricted machines on large row batches,
  a long-row tier of 0.5-1k-character DNA rows, a short-row tier of
  10k DNA rows of 0-24 characters, the Q6 pattern over the same rows,
  plus a two-way fallback control)
  run through the v1 worklist kernel
  (built with ``compile_kernel``) and the determinized v2 kernel
  (built with ``determinize``), gated at v2 ≥2× v1 on the
  unidirectional batch and recorded as the ``BENCH_kernel.json``
  trajectory.  The long-row and short-row tiers are motif machines,
  so their v2 column times the substring search a kernel takes once
  its table is proven to be the motif's KMP automaton; the Q6 tier
  keeps the table scan;
* the substring criterion — on the short-row tier, that search
  against the same kernel's table scan, gated at ≥2×.

Run directly
(``PYTHONPATH=src python benchmarks/bench_simulate_kernel.py``) for a
quick per-workload report that records ``BENCH_kernel.json`` at the
repo root, or through pytest-benchmark for calibrated timings (pytest
runs write their numbers under ``bench-results/``).
"""

import random
import time
from unittest.mock import patch

import pytest

from repro.core import shorthands as sh
from repro.core.alphabet import AB, DNA, LEFT_END, RIGHT_END
from repro.core.syntax import IsChar, SStar, WTrue, atom, concat, left
from repro.fsa.compile import compile_string_formula
from repro.fsa.determinize import (
    DeterministicKernel,
    classify_fragment,
    determinize,
)
from repro.fsa.kernel import compile_kernel, kernel_for
from repro.fsa.machine import make_fsa
from repro.fsa.simulate import reference_accepts
from repro.workloads.generators import (
    manifold_strings,
    uniform_strings,
    with_planted_motif,
)

try:
    from benchmarks.conftest import write_results
except ImportError:  # direct script runs from inside benchmarks/
    from conftest import write_results

#: The acceptance-criterion floor: kernel ≥3× over the reference BFS.
SPEEDUP_FLOOR = 3.0

#: The kernel-v2 criterion floor: the determinized scan ≥2× the v1
#: worklist kernel on the unidirectional batch workload.
V2_SPEEDUP_FLOOR = 2.0

#: The substring criterion floor: on the short-row tier, substring
#: search ≥2× the table scan of the same kernel.
SUBSTRING_SPEEDUP_FLOOR = 2.0

#: Where the v1-vs-v2 trajectory is recorded for the ROADMAP.
RESULTS_FILE = "BENCH_kernel.json"


def _workloads():
    """``(name, machine, rows)`` acceptance workloads, generator-fed."""
    eq = compile_string_formula(sh.equals("x", "y"), AB).fsa
    words = uniform_strings(AB, 24, 32, min_length=16, seed=3)
    yield "equality", eq, [
        (word, word if index % 2 else word[::-1])
        for index, word in enumerate(words)
    ]
    occurs = compile_string_formula(sh.occurs_in("x", "y"), DNA).fsa
    haystacks = with_planted_motif(DNA, "gcgc", count=24, max_length=24, seed=5)
    yield "motif", occurs, [("gcgc", haystack) for haystack in haystacks]
    manifold = compile_string_formula(sh.manifold("x", "y"), AB).fsa
    yield "manifold", manifold, [
        (base * 8, base)
        for _, base in manifold_strings(
            AB, count=12, max_base_length=3, max_repeats=1, seed=7
        )
    ]


def _run_reference(fsa, rows):
    return tuple(reference_accepts(fsa, row) for row in rows)


def _run_kernel(fsa, rows):
    return kernel_for(fsa).accepts_batch(rows)


def _best_of(runs, fn):
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize(
    "name,fsa,rows", list(_workloads()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_reference_workload(benchmark, name, fsa, rows):
    verdicts = benchmark(lambda: _run_reference(fsa, rows))
    assert any(verdicts)


@pytest.mark.parametrize(
    "name,fsa,rows", list(_workloads()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_kernel_workload(benchmark, name, fsa, rows):
    verdicts = benchmark(lambda: _run_kernel(fsa, rows))
    assert any(verdicts)


def test_kernel_speedup_floor():
    """Acceptance criterion: the kernel is ≥3× faster than the seed
    search on every acceptance workload, with identical verdicts."""
    for name, fsa, rows in _workloads():
        expected = _run_reference(fsa, rows)
        assert _run_kernel(fsa, rows) == expected, name
        reference = _best_of(3, lambda: _run_reference(fsa, rows))
        kernel = _best_of(3, lambda: _run_kernel(fsa, rows))
        assert reference >= SPEEDUP_FLOOR * kernel, (
            f"{name}: kernel ({kernel * 1e3:.2f} ms) not ≥{SPEEDUP_FLOOR}× "
            f"faster than reference ({reference * 1e3:.2f} ms)"
        )


# -- kernel v2: per-fragment batch workloads ---------------------------


def _contains_ab_machine():
    """A nondeterministic unidirectional matcher (contains ``ab``)."""
    return make_fsa(
        1,
        AB,
        "s",
        ["f"],
        [
            ("s", (LEFT_END,), "scan", (+1,)),
            ("scan", ("a",), "scan", (+1,)),
            ("scan", ("b",), "scan", (+1,)),
            ("scan", ("a",), "saw_a", (+1,)),
            ("saw_a", ("a",), "saw_a", (+1,)),
            ("saw_a", ("b",), "win", (+1,)),
            ("win", ("a",), "win", (+1,)),
            ("win", ("b",), "win", (+1,)),
            ("win", (RIGHT_END,), "f", (0,)),
        ],
    )


def _motif_machine(motif):
    """The one-tape machine of "``motif`` occurs in ``y``"."""
    occurs = concat(
        SStar(atom(left("y"), WTrue())),
        *[atom(left("y"), IsChar("y", char)) for char in motif],
    )
    return compile_string_formula(occurs, DNA).fsa


def _long_rows():
    """The 64 SLP rows of the end-to-end motif scan, expanded.

    ``acgtacgt`` filler of 0.5-1k characters, each row a different
    length, every other row carrying ``gattaca`` in its middle.
    """
    rows = []
    for index in range(64):
        filler = "acgtacgt" * (32 + index * 32 // 63)
        motif = "gattaca" if index % 2 == 0 else ""
        rows.append((filler + motif + filler,))
    return rows


def _short_rows(count=10_000, seed=11):
    """The shape of the end-to-end motif scan's n-gram relation.

    ``count`` distinct DNA strings of 0-24 characters: one batch of
    many short rows, where per-row overheads outweigh the scan itself.
    """
    rng = random.Random(seed)
    words: dict[str, None] = {}
    while len(words) < count:
        length = rng.randint(0, 24)
        words["".join(rng.choice("acgt") for _ in range(length))] = None
    return [(word,) for word in words]


def _batch_workloads():
    """``(name, fragment, machine, rows)`` per-fragment batch workloads.

    One workload per fragment tier — unidirectional (arity 1),
    right-restricted (lockstep arity 2) — a long-row tier whose scans
    accept halfway or read to the end, a short-row tier of 10k rows,
    the Q6 pattern ``(gc + a)*`` over the same rows (a table no motif's
    KMP automaton matches, so it keeps the scan), and a two-way machine
    as the fallback control: there v2 must transparently equal v1.
    """
    unidirectional = _contains_ab_machine()
    yield "unidirectional-batch", "unidirectional", unidirectional, [
        (word,)
        for word in uniform_strings(AB, 512, 64, min_length=32, seed=3)
    ]
    eq = compile_string_formula(sh.equals("x", "y"), AB).fsa
    words = list(uniform_strings(AB, 256, 48, min_length=24, seed=5))
    yield "right-restricted-batch", "right-restricted", eq, [
        (word, word if index % 2 else word[::-1])
        for index, word in enumerate(words)
    ]
    motif = _motif_machine("gattaca")
    yield "long-rows", "unidirectional", motif, _long_rows()
    short_rows = _short_rows()
    yield "short-rows", "unidirectional", _motif_machine("ag"), short_rows
    pattern = compile_string_formula(sh.gc_plus_a_star("y"), DNA).fsa
    yield "short-rows-pattern", "unidirectional", pattern, short_rows
    manifold = compile_string_formula(sh.manifold("x", "y"), AB).fsa
    yield "two-way-fallback", None, manifold, [
        (base * 8, base)
        for _, base in manifold_strings(
            AB, count=12, max_base_length=3, max_repeats=1, seed=7
        )
    ]


def _tiers(fsa):
    """``(v1, v2)`` kernels of ``fsa``, each built directly.

    Out of fragment ``determinize`` declines and the v2 column is the
    v1 kernel — the fallback ``kernel_for`` would pick.
    """
    v1 = compile_kernel(fsa)
    v2 = determinize(fsa)
    return v1, v2 if v2 is not None else v1


@pytest.mark.parametrize(
    "name,fragment,fsa,rows",
    list(_batch_workloads()),
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_v2_batch_workload(benchmark, name, fragment, fsa, rows):
    assert classify_fragment(fsa) == fragment
    _, v2 = _tiers(fsa)
    verdicts = benchmark(lambda: v2.accepts_batch(rows))
    assert any(verdicts)


def _v2_measurements():
    """The per-workload v1/v2 timings backing the gate and the report."""
    results = []
    for name, fragment, fsa, rows in _batch_workloads():
        v1_kernel, v2_kernel = _tiers(fsa)
        expected = v1_kernel.accepts_batch(rows)
        assert v2_kernel.accepts_batch(rows) == expected, name
        assert kernel_for(fsa).accepts_batch(rows) == expected, name
        v1 = _best_of(3, lambda: v1_kernel.accepts_batch(rows))
        v2 = _best_of(3, lambda: v2_kernel.accepts_batch(rows))
        results.append(
            {
                "workload": name,
                "fragment": fragment,
                "rows": len(rows),
                "v1_seconds": round(v1, 4),
                "v2_seconds": round(v2, 4),
                "speedup": round(v1 / v2, 2),
            }
        )
    return results


def _substring_measurement():
    """Substring search vs. the same kernel's table scan on short-rows.

    The scan is timed with the kernel's ``factor`` hidden, as the
    ``forced_scan`` test fixture does.
    """
    rows = _short_rows()
    kernel = determinize(_motif_machine("ag"))
    assert kernel.factor == "ag"
    with patch.object(DeterministicKernel, "factor", None):
        expected = kernel.accepts_batch(rows)
        scan = _best_of(5, lambda: kernel.accepts_batch(rows))
    assert kernel.accepts_batch(rows) == expected
    search = _best_of(5, lambda: kernel.accepts_batch(rows))
    return {
        "workload": "short-rows",
        "floor": SUBSTRING_SPEEDUP_FLOOR,
        "scan_seconds": round(scan, 4),
        "substring_seconds": round(search, 4),
        "speedup": round(scan / search, 2),
    }


def _report():
    """Everything ``BENCH_kernel.json`` records."""
    return {
        "floor": V2_SPEEDUP_FLOOR,
        "workloads": _v2_measurements(),
        "substring": _substring_measurement(),
    }


def test_kernel_v2_speedup_floor():
    """Kernel-v2 acceptance criterion: the determinized scan is ≥2×
    faster than the v1 worklist kernel on the unidirectional batch
    workload (identical verdicts everywhere, v1 fallback untaxed);
    the measured trajectory is recorded in ``BENCH_kernel.json``."""
    report = _report()
    write_results(RESULTS_FILE, report)
    results = report["workloads"]
    by_name = {entry["workload"]: entry for entry in results}
    gated = by_name["unidirectional-batch"]
    assert gated["v1_seconds"] >= V2_SPEEDUP_FLOOR * gated["v2_seconds"], (
        f"unidirectional batch: v2 ({gated['v2_seconds'] * 1e3:.2f} ms) "
        f"not ≥{V2_SPEEDUP_FLOOR}× faster than v1 "
        f"({gated['v1_seconds'] * 1e3:.2f} ms)"
    )


def test_substring_speedup_floor():
    """Substring criterion: on the short-row tier, substring search is
    ≥2× faster than the same kernel's table scan, with identical
    verdicts."""
    measured = _substring_measurement()
    assert measured["scan_seconds"] >= (
        SUBSTRING_SPEEDUP_FLOOR * measured["substring_seconds"]
    ), (
        f"short rows: substring search "
        f"({measured['substring_seconds'] * 1e3:.2f} ms) not "
        f"≥{SUBSTRING_SPEEDUP_FLOOR}× faster than the table scan "
        f"({measured['scan_seconds'] * 1e3:.2f} ms)"
    )


def main() -> None:
    for name, fsa, rows in _workloads():
        assert _run_kernel(fsa, rows) == _run_reference(fsa, rows)
        reference = _best_of(3, lambda: _run_reference(fsa, rows))
        kernel = _best_of(3, lambda: _run_kernel(fsa, rows))
        print(
            f"{name:<10} reference: {reference * 1e3:8.2f} ms   "
            f"kernel: {kernel * 1e3:8.2f} ms   "
            f"speedup: {reference / kernel:5.1f}x"
        )
    report = _report()
    write_results(RESULTS_FILE, report, tracked=True)
    for entry in report["workloads"]:
        print(
            f"{entry['workload']:<24} v1: {entry['v1_seconds'] * 1e3:8.2f} ms   "
            f"v2: {entry['v2_seconds'] * 1e3:8.2f} ms   "
            f"speedup: {entry['speedup']:5.1f}x"
        )
    substring = report["substring"]
    print(
        f"{'short-rows substring':<24} scan: "
        f"{substring['scan_seconds'] * 1e3:6.2f} ms   substring: "
        f"{substring['substring_seconds'] * 1e3:6.2f} ms   "
        f"speedup: {substring['speedup']:5.1f}x"
    )


if __name__ == "__main__":
    main()
