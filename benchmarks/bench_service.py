"""The query daemon under concurrent load: warm caches vs cold sessions.

Eight concurrent clients replay a mixed workload (relational scans, a
join, an existential join, and a compile-heavy copy query) two ways:

* **cold baseline** — what the pre-daemon world did: every request is
  a one-shot process that pays interpreter start, imports, a fresh
  ``QueryEngine()`` session, and a first-touch compile of its
  Theorem 3.1 machines.  (A fresh session *inside* one process is not
  honestly cold: ``repro.fsa.compile`` and the regex NFA cache are
  process-global, so only a new process starts from nothing.)
* **warm daemon** — the same requests through ``repro.service``,
  where the session pool multiplexes all clients onto one shared
  session and only the first touch of each shape compiles.

The equivalence assertion checks the daemon's wire rows are
byte-identical to direct evaluation; the latency gate asserts the
warm-daemon p50 beats the cold baseline p50 by ≥3× — the
cache-sharing acceptance criterion for the service layer.  Measured
numbers (QPS, p50/p99 per mode) go to ``BENCH_service.json``.

Run directly (``PYTHONPATH=src python benchmarks/bench_service.py``)
for a quick report that records ``BENCH_service.json`` at the repo
root, or through pytest for the gated assertions (pytest runs write
their numbers under ``bench-results/``).
"""

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core.alphabet import AB
from repro.core.database import Database
from repro.core.parser import parse_formula
from repro.core.query import Query
from repro.engine import QueryEngine
from repro.service import ServiceClient, serve_in_thread
from repro.service.protocol import rows_to_wire

try:
    from benchmarks.conftest import write_results
except ImportError:  # direct script runs from inside benchmarks/
    from conftest import write_results

#: The acceptance-criterion floor: warm daemon p50 ≥3× under cold p50.
SPEEDUP_FLOOR = 3.0

#: Concurrent clients, per the acceptance criterion.
CLIENTS = 8

#: Requests each client issues per mode (shapes cycled round-robin).
REQUESTS_PER_CLIENT = 6

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_FILE = "BENCH_service.json"

#: ``(formula, head, length)`` — relational scans, a join, and a
#: lifted copy query whose machine compile dominates its cold cost.
WORKLOAD = [
    ("R2(x)", ("x",), 3),
    ("R1(x, y)", ("x", "y"), 3),
    ("exists y: R1(x, y) & R2(x)", ("x",), 3),
    (
        "exists y: R2(y) & ([x,y]l(x = y))* . [x,y]l(x = y = eps)",
        ("x",),
        3,
    ),
]

#: The one-shot evaluation a pre-daemon caller pays per query.
_COLD_SCRIPT = """
import sys
from repro.core.alphabet import AB
from repro.core.database import Database
from repro.core.parser import parse_formula
from repro.core.query import Query
from repro.engine import QueryEngine

formula, length = sys.argv[1], int(sys.argv[2])
head = tuple(sys.argv[3].split(","))
db = Database(
    AB,
    {
        "R1": [("a", "ab"), ("b", "ba"), ("ab", "a")],
        "R2": [("a",), ("b",), ("ab",)],
    },
)
query = Query(head, parse_formula(formula), AB)
QueryEngine().evaluate(query, db, length=length)
"""

_STATE: dict = {}


def _database() -> Database:
    if "db" not in _STATE:
        _STATE["db"] = Database(
            AB,
            {
                "R1": [("a", "ab"), ("b", "ba"), ("ab", "a")],
                "R2": [("a",), ("b",), ("ab",)],
            },
        )
    return _STATE["db"]


def _queries():
    return [
        (Query(tuple(head), parse_formula(formula), AB), formula, head, length)
        for formula, head, length in WORKLOAD
    ]


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _drive(worker, clients=CLIENTS):
    """Run ``worker(client_index, record)`` on N threads; collect latencies."""
    latencies: list[float] = []
    lock = threading.Lock()
    errors: list[BaseException] = []

    def record(seconds: float) -> None:
        with lock:
            latencies.append(seconds)

    def run(index: int) -> None:
        try:
            worker(index, record)
        except BaseException as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=run, args=(index,)) for index in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return latencies, wall


def _run_cold_baseline():
    """One-shot process per request, 8 concurrent clients."""
    src = str(REPO_ROOT / "src")

    def worker(index, record):
        for step in range(REQUESTS_PER_CLIENT):
            formula, head, length = WORKLOAD[(index + step) % len(WORKLOAD)]
            started = time.perf_counter()
            subprocess.run(
                [
                    sys.executable, "-c", _COLD_SCRIPT,
                    formula, str(length), ",".join(head),
                ],
                check=True,
                env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
                capture_output=True,
            )
            record(time.perf_counter() - started)

    return _drive(worker)


def _run_warm_service(handle):
    """The daemon after one warmup pass over every shape."""
    with ServiceClient(*handle.address) as warmer:
        for formula, head, length in WORKLOAD:
            warmer.query(formula, list(head), length=length)

    def worker(index, record):
        with ServiceClient(*handle.address) as client:
            for step in range(REQUESTS_PER_CLIENT):
                formula, head, length = WORKLOAD[
                    (index + step) % len(WORKLOAD)
                ]
                started = time.perf_counter()
                client.query(formula, list(head), length=length)
                record(time.perf_counter() - started)

    return _drive(worker)


def _check_equivalence(handle):
    """Daemon rows must be byte-identical to direct evaluation."""
    db = _database()
    with ServiceClient(*handle.address) as client:
        for query, formula, head, length in _queries():
            direct = QueryEngine().evaluate(query, db, length=length)
            remote = client.query(formula, list(head), length=length)
            assert json.dumps(rows_to_wire(direct)) == json.dumps(
                [list(row) for row in remote]
            ), f"daemon and direct answers diverge on {formula!r}"


def _measure():
    if "results" in _STATE:
        return _STATE["results"]
    handle = serve_in_thread(_database(), pool_size=CLIENTS)
    try:
        _check_equivalence(handle)
        cold, cold_wall = _run_cold_baseline()
        warm, warm_wall = _run_warm_service(handle)
    finally:
        handle.stop()
    total = CLIENTS * REQUESTS_PER_CLIENT
    _STATE["results"] = {
        "workload": "mixed-scan-join-generation",
        "clients": CLIENTS,
        "requests_per_mode": total,
        "cold": {
            "p50_ms": round(_percentile(cold, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(cold, 0.99) * 1e3, 3),
            "qps": round(total / cold_wall, 1),
        },
        "warm": {
            "p50_ms": round(_percentile(warm, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(warm, 0.99) * 1e3, 3),
            "qps": round(total / warm_wall, 1),
        },
        "p50_speedup": round(
            _percentile(cold, 0.50) / _percentile(warm, 0.50), 2
        ),
        "floor": SPEEDUP_FLOOR,
    }
    return _STATE["results"]


def test_service_answers_are_byte_identical():
    """The daemon returns exactly what direct evaluation returns."""
    handle = serve_in_thread(_database())
    try:
        _check_equivalence(handle)
    finally:
        handle.stop()


def test_service_warm_latency_floor():
    """Acceptance criterion: warm p50 ≥3× better than the cold
    session-per-request baseline at 8 concurrent clients; the measured
    numbers go to BENCH_service.json."""
    results = _measure()
    write_results(RESULTS_FILE, results)
    assert results["p50_speedup"] >= SPEEDUP_FLOOR, (
        f"warm daemon p50 {results['warm']['p50_ms']} ms not "
        f"≥{SPEEDUP_FLOOR}× better than cold baseline p50 "
        f"{results['cold']['p50_ms']} ms"
    )


def main() -> None:
    results = _measure()
    write_results(RESULTS_FILE, results, tracked=True)
    cold, warm = results["cold"], results["warm"]
    print(
        f"clients: {results['clients']}   "
        f"requests/mode: {results['requests_per_mode']}"
    )
    print(
        f"cold:  p50 {cold['p50_ms']:8.2f} ms   p99 {cold['p99_ms']:8.2f} ms"
        f"   {cold['qps']:7.1f} qps"
    )
    print(
        f"warm:  p50 {warm['p50_ms']:8.2f} ms   p99 {warm['p99_ms']:8.2f} ms"
        f"   {warm['qps']:7.1f} qps"
    )
    print(f"p50 speedup: {results['p50_speedup']:.1f}x "
          f"(floor {results['floor']}x)")


if __name__ == "__main__":
    main()
