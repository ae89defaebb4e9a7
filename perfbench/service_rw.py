"""service-rw: ``repro serve`` under a read-mostly closed loop.

The only path through framing, admission pricing, pool slots, the
exclusive update lease and re-planning after invalidation.  The daemon
runs as its own process (``--storage ngram --workers 1``) over a 5k-row
DNA relation, on the same CPU as the one load process, which drives two
connections in a closed loop: connection 0 repeats *update, full read, three queries*;
connection 1 only queries.  About one operation in ten is an update,
each inserting four rows and deleting two.  ``query_p50_ms`` and
``query_p90_ms`` cover the selection queries; the full reads, which
return every row, are a class of their own (``full_read_p50_ms``), as
one in ten reads they would otherwise sit right at p90.

Oracles: connection 0 is the only writer, so it knows the live row set
of every version it creates; its full read right after each update must
return exactly that set.  A query on either connection must equal the
answer over one of the versions that could have been current while it
was in flight.

Traced runs cannot toggle wrappers inside the daemon, so they run two
daemons one after the other: half the time against a plain one and half
against one started under :mod:`perfbench.daemon`.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter, sleep

from perfbench import ROOT, SRC, dna, harness, hostspeed, stats
from perfbench.harness import Result, latency_ms
from perfbench.hostspeed import Speedometer
from perfbench.layers import STAGES, per_layer_metrics

ROWS = 5_000
QUERIES = ("gcgcgc", "tacga", "catt", "ag", "Q6")
INSERTS = 4
DELETES = 2
#: Longest pause of connection 1 before each query.  The seeded random
#: pause keeps the two closed loops from locking into one phase for a
#: whole run (which queries wait behind which would then differ from
#: run to run).
THINK_S = 0.004
#: Versions kept for the query oracle; older ones can no longer be the
#: snapshot of a query in flight.
KEEP_VERSIONS = 32
#: ``ops_per_s`` is the median rate over groups of this many operations
#: (about a second each).
RATE_GROUP = 50
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class Daemon:
    """One ``repro serve`` process and where it listens."""

    def __init__(self, workdir: Path, name: str, db_path: Path,
                 traced: bool) -> None:
        self.stderr_path = workdir / f"{name}.err"
        self.layers_path = workdir / f"{name}.layers.json"
        self.report_path = workdir / f"{name}.reports.jsonl"
        serve = [
            "serve", "--alphabet", dna.ALPHABET, "--db", str(db_path),
            "--storage", "ngram", "--workers", "1", "--port", "0",
        ]
        if traced:
            serve += ["--report-log", str(self.report_path)]
            argv = [sys.executable, str(ROOT / "perfbench" / "daemon.py"),
                    str(self.layers_path), *serve]
        else:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        # The daemon inherits the CPU this process is pinned to.
        with open(self.stderr_path, "wb") as stderr:
            self.process = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = perf_counter() + START_TIMEOUT
        pattern = re.compile(rb"serving .* on [^ ]+:(\d+)")
        while perf_counter() < deadline:
            found = pattern.search(self.stderr_path.read_bytes())
            if found:
                return int(found.group(1))
            if self.process.poll() is not None:
                break
            sleep(0.005)
        self.stop()
        raise RuntimeError(
            "daemon did not start: "
            + self.stderr_path.read_text(errors="replace")[-500:]
        )

    def client(self):
        """A new connection to the daemon."""
        from repro.service import ServiceClient

        return ServiceClient("127.0.0.1", self.port, timeout=STOP_TIMEOUT)

    def zero_layers(self) -> None:
        """Drop the layer totals recorded so far (traced daemons only).

        The health round trip makes the daemon's main thread run, and
        with it the signal handler, before this returns.
        """
        self.process.send_signal(signal.SIGUSR1)
        with self.client() as client:
            client.health()

    def layers(self) -> dict:
        """The totals a traced daemon wrote on exit."""
        return json.loads(self.layers_path.read_text())

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set size."""
        return harness.pid_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Drain and stop the daemon; kill it if it does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class Versions:
    """The live row set of every version connection 0 has created."""

    def __init__(self, rows) -> None:
        self.lock = threading.Lock()
        self.sent = 0
        self.acked = 0
        self.snapshots = {0: frozenset(rows)}
        self._answers: dict = {}

    def propose(self, live: frozenset) -> int:
        """Register the version the next update will create."""
        with self.lock:
            self.sent += 1
            self.snapshots[self.sent] = live
            self.snapshots.pop(self.sent - KEEP_VERSIONS, None)
            return self.sent

    def withdraw(self, version: int) -> None:
        """Forget a version whose update failed."""
        with self.lock:
            self.snapshots.pop(version, None)
            self.sent = version - 1

    def acknowledge(self, version: int) -> None:
        """Mark ``version`` as applied by the daemon."""
        with self.lock:
            self.acked = version

    def bounds(self) -> tuple[int, int]:
        """``(acked, sent)`` right now."""
        with self.lock:
            return self.acked, self.sent

    def answers(self, version: int, spec: str):
        """The oracle answer of ``spec`` at ``version`` (memoized)."""
        key = (version, spec)
        with self.lock:
            cached = self._answers.get(key)
            rows = self.snapshots.get(version)
        if cached is None and rows is not None:
            cached = dna.expected(rows, spec)
            with self.lock:
                self._answers[key] = cached
        return cached


def spec_text(spec: str) -> str:
    """The wire text of a selection."""
    from repro.core.parser import formula_to_text

    return formula_to_text(dna.selection("R2", spec))


class Load:
    """Latencies and oracle verdicts of one load phase."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies: dict[str, list[float]] = defaultdict(list)
        #: When each right answer was recorded (``perf_counter``
        #: seconds), by class and over all classes.
        self.ended: dict[str, list[float]] = defaultdict(list)
        self.finished: list[float] = []
        self.overhead: list[float] = []
        self.lease_wait: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.answer_rows = 0
        self.failures: list[str] = []

    def record(self, kind: str, rtt: float, server: float | None,
               problem: str | None, rows: int = 0) -> None:
        """One finished operation; ``problem`` is the oracle's verdict."""
        with self.lock:
            self.attempted += 1
            self.answer_rows += rows
            if problem is not None:
                self.failed += 1
                self.failures.append(f"{kind}: {problem}")
                return
            now = perf_counter()
            self.latencies[kind].append(rtt)
            self.ended[kind].append(now)
            self.finished.append(now)
            if server is not None:
                (self.lease_wait if kind == "update" else self.overhead
                 ).append(rtt - server)

    def scaled(self, kind: str, speed: Speedometer) -> list[float]:
        """The latencies of ``kind`` scaled to the nominal host speed."""
        return [
            rtt * speed.between(end - rtt, end)
            for rtt, end in zip(self.latencies[kind], self.ended[kind])
        ]

    @property
    def ops(self) -> int:
        """Operations that completed with a right answer."""
        return sum(len(values) for values in self.latencies.values())


def _query(client, text: str):
    from repro.service.protocol import rows_from_wire

    started = perf_counter()
    result = client.call("query", {"formula": text, "head": ["y"]})
    rtt = perf_counter() - started
    return rtt, result["elapsed"], frozenset(rows_from_wire(result["rows"]))


def _ask(client, spec: str, versions: Versions, load: Load, texts) -> None:
    """One selection query, checked against the versions it may have seen."""
    from repro.errors import ServiceError

    low, _ = versions.bounds()
    try:
        rtt, server, rows = _query(client, texts[spec])
    except (ServiceError, OSError) as error:
        load.record("query", 0.0, None, f"{type(error).__name__}: {error}")
        return
    _, high = versions.bounds()
    candidates = [versions.answers(v, spec) for v in range(low, high + 1)]
    problem = None if rows in candidates else (
        f"{spec}: {len(rows)} rows match no version in [{low}, {high}]"
    )
    load.record("query", rtt, server, problem, len(rows))


def _reader(client, versions: Versions, load: Load, texts, stop,
            rng: random.Random) -> None:
    position = 0
    while not stop.is_set():
        sleep(rng.uniform(0.0, THINK_S))
        _ask(client, QUERIES[position % len(QUERIES)], versions, load, texts)
        position += 1


def _writer(client, versions: Versions, load: Load, texts, stop, live,
            rng: random.Random) -> None:
    from repro.errors import ServiceError

    position = 0
    while not stop.is_set():
        added, removed = dna.delta_rows(rng, live, INSERTS, DELETES)
        proposed = (live - set(removed)) | set(added)
        version = versions.propose(frozenset(proposed))
        started = perf_counter()
        try:
            result = client.update(
                insert={"R2": [[row] for row in added]},
                delete={"R2": [[row] for row in removed]},
            )
        except (ServiceError, OSError) as error:
            versions.withdraw(version)
            load.record("update", 0.0, None,
                        f"{type(error).__name__}: {error}")
            continue
        load.record("update", perf_counter() - started, result["elapsed"],
                    None)
        versions.acknowledge(version)
        live.clear()
        live.update(proposed)
        try:
            rtt, server, rows = _query(client, "R2(y)")
        except (ServiceError, OSError) as error:
            load.record("full_read", 0.0, None,
                        f"{type(error).__name__}: {error}")
        else:
            served = frozenset(value for (value,) in rows)
            problem = None if served == versions.snapshots[version] else (
                f"live rows: {len(rows)} served, {len(proposed)} expected"
            )
            load.record("full_read", rtt, server, problem, len(rows))
        for _ in range(3):
            _ask(client, QUERIES[position % len(QUERIES)], versions, load,
                 texts)
            position += 1


def drive(daemon: Daemon, rows, seed: int, seconds: float,
          speed: Speedometer) -> tuple[Load, float]:
    """Two closed-loop connections for ``seconds``; returns (load, wall).

    Meanwhile this thread takes the host-speed probes into ``speed``.
    """
    texts = {spec: spec_text(spec) for spec in QUERIES}
    versions = Versions(rows)
    load = Load()
    stop = threading.Event()
    errors: list[BaseException] = []
    with daemon.client() as writer_client, daemon.client() as reader_client:

        def guarded(target, *args):
            try:
                target(*args)
            except BaseException as error:  # surfaced after the join
                errors.append(error)
                stop.set()

        threads = [
            threading.Thread(target=guarded, args=(
                _writer, writer_client, versions, load, texts, stop,
                set(rows), random.Random(seed))),
            threading.Thread(target=guarded, args=(
                _reader, reader_client, versions, load, texts, stop,
                random.Random(~seed))),
        ]
        started = perf_counter()
        deadline = started + seconds
        for thread in threads:
            thread.start()
        speed.take()
        while not stop.is_set() and perf_counter() < deadline:
            speed.maybe_take()
            left = deadline - perf_counter()
            sleep(min(hostspeed.INTERVAL, max(0.0, left)))
        stop.set()
        for thread in threads:
            thread.join(timeout=STOP_TIMEOUT)
        wall = perf_counter() - started
        speed.take()
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load connection did not finish")
    return load, wall


def start(seed: int, workdir: Path, name: str, traced: bool):
    """Write the database, start a daemon on it and warm every query."""
    rows = dna.fragments(seed, ROWS)
    db_path = workdir / "db.json"
    db_path.write_text(json.dumps({"R2": [[row] for row in rows]}))
    daemon = Daemon(workdir, name, db_path, traced)
    try:
        with daemon.client() as client:
            for spec in QUERIES:
                client.query(spec_text(spec), ["y"])
            client.query("R2(y)", ["y"])
    except BaseException:
        daemon.stop()
        raise
    return rows, daemon


def _timed_start(seed: int, workdir: Path):
    """``setup_s`` over repeated daemon starts; the last one is kept.

    Each start is scaled by host-speed probes taken right before and
    after it.
    """
    speed = Speedometer()
    durations = []
    for rep in range(harness.SETUP_REPS):
        speed.take()
        started = perf_counter()
        rows, daemon = start(seed, workdir, f"setup{rep}", traced=False)
        ended = perf_counter()
        speed.take()
        durations.append((ended - started) * speed.between(started, ended))
        if rep + 1 < harness.SETUP_REPS:
            daemon.stop()
    return stats.median(durations), rows, daemon


def _counters(daemon: Daemon) -> dict:
    with daemon.client() as client:
        return client.stats()["service"]


def _stage_seconds(daemon: Daemon, skip: int) -> dict:
    """Stage seconds summed over the request reports after line ``skip``."""
    totals = {stage: 0.0 for stage in STAGES}
    with open(daemon.report_path, encoding="utf-8") as handle:
        for index, line in enumerate(handle):
            if index < skip:
                continue
            for stage, bucket in json.loads(line)["report"]["stages"].items():
                totals[stage] = totals.get(stage, 0.0) + bucket["seconds"]
    return totals


def _line_count(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def run(seed: int, seconds: float, trace: bool) -> Result:
    """One run: daemon set-up, then the two-connection load."""
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    daemons: list[Daemon] = []
    try:
        if not trace:
            setup_s, rows, daemon = _timed_start(seed, workdir)
            daemons.append(daemon)
            speed = Speedometer()
            load, _ = drive(daemon, rows, seed, seconds, speed)
            result = _result(load)
            result.end_to_end = harness.end_to_end(
                setup_s,
                stats.group_rate(load.finished, RATE_GROUP, speed.between),
                load.scaled("query", speed), daemon.peak_rss_mb(),
            )
            return result
        rows, plain = start(seed, workdir, "plain", traced=False)
        daemons.append(plain)
        load_plain, wall_plain = drive(
            plain, rows, seed, seconds / 2, Speedometer()
        )
        plain.stop()
        rows, traced = start(seed, workdir, "traced", traced=True)
        daemons.append(traced)
        traced.zero_layers()
        before = _counters(traced)
        skip = _line_count(traced.report_path)
        load, wall = drive(traced, rows, seed, seconds / 2, Speedometer())
        after = _counters(traced)
        stages = _stage_seconds(traced, skip)
        traced.stop()
        totals = traced.layers()
        result = _result(load)
        delta = {
            name: value - before.get(name, 0)
            for name, value in after.items()
        }

        def counter_sum(prefix: str) -> float:
            return sum(
                value for name, value in delta.items()
                if name.startswith(prefix)
            )

        plain_rate = stats.rate(load_plain.ops, wall_plain)
        result.per_layer = per_layer_metrics(
            ops=load.attempted,
            seconds=totals["seconds"],
            counters=counter_sum,
            stages=stages,
            candidate_rows=totals["candidate_rows"],
            slp_expanded_chars=totals["slp_expanded_chars"],
            answer_rows=load.answer_rows,
            cache=tuple(totals["cache"]),
            build_s=totals["startup_seconds"].get("build", 0.0),
            overhead_ratio=plain_rate / stats.rate(load.ops, wall),
            service=(
                stats.median(load.overhead) * 1e3 if load.overhead else 0.0,
                stats.median(load.lease_wait) * 1e3
                if load.lease_wait else 0.0,
                counter_sum("service.rejected"),
            ),
        )
        result.attempted += load_plain.attempted
        result.failed += load_plain.failed
        result.failures += load_plain.failures
        return result
    finally:
        for daemon in daemons:
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def _result(load: Load) -> Result:
    updates = load.latencies["update"]
    result = Result(load.attempted, load.failed, failures=load.failures)
    result.notes = harness.read_notes(load.latencies["query"]) + [
        ("update_p50_ms", latency_ms(updates, 0.5), "ms"),
        ("update_p90_ms", latency_ms(updates, 0.9), "ms"),
        ("full_read_p50_ms", latency_ms(load.latencies["full_read"], 0.5),
         "ms"),
        ("update_share", stats.ratio(len(updates), load.ops), "ratio"),
        ("service_overhead_ms", stats.median(load.overhead) * 1e3, "ms"),
        ("lease_wait_ms", stats.median(load.lease_wait) * 1e3, "ms"),
    ]
    return result
