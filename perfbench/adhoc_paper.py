"""adhoc-paper: a seeded stream of the paper's Section 2 queries.

Compile, specialization, limit analysis, planning and generation do
nearly all the work here; the database is two tiny relations shaped
like the paper's examples.  Each query is drawn from a template with
random constants, motifs and edit bounds; about half the stream repeats
a query asked before, so first touches and warm repeats are both
measured.  Every query runs through ``QueryEngine.evaluate`` on one
long-lived session with certified bounds: pairing ``engine="auto"``
with an explicit length routes to naive ``Σ^{<=l}`` enumeration, which
is exponential in the length.  Three shapes are left out because one
evaluation takes far longer than a run: generating reversals (about
15 s on first touch), and concatenation or shuffle with a constant
operand (no answer within minutes).

The oracles are plain Python over the generated rows
(:mod:`perfbench.oracles`); no engine is consulted.
"""

from __future__ import annotations

import random
import subprocess
import sys
import threading
from time import perf_counter

from perfbench import ROOT, harness, oracles, stats
from perfbench.harness import Loop, Result, latency_ms
from perfbench.hostspeed import Speedometer

ALPHABET = "ab"
#: Row lengths; short lengths appear no more often than there are
#: distinct words of that length.
LENGTHS = (0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 5, 5, 5)
REPEAT_SHARE = 0.5
#: Seconds one cold set-up may take before its child is killed.
SETUP_TIMEOUT = 60.0
#: ``peak_rss_mb`` is read after this many operations, a fixed amount of
#: work: the session caches grow with every new query, so a peak read at
#: the end of the run would grow with the host's speed.  A 25-second run
#: makes over three times as many on this kind of host; a shorter run
#: reports the peak at its end.
RSS_AT_OPS = 4000

#: ``name -> parameter kind``; see :func:`formula` and
#: :func:`perfbench.oracles.paper_answer` for what each one asks.
TEMPLATES = {
    "q1_constant": "word",
    "q2_equality": None,
    "q3_concat": None,
    "q3_concat_pairs": None,
    "q4_manifold": None,
    "q4_manifold_constant": "short",
    "q5_shuffle": None,
    "q7_occurrence": "motif",
    "q8_edit_distance": "edit",
    "prefix_constant": "motif",
    "suffix": None,
    "join": None,
    "join_chain": None,
    "join_constant": "short",
}


def random_word(rng: random.Random, low: int, high: int) -> str:
    """A random word over the alphabet with length in ``[low, high]``."""
    return "".join(
        rng.choice(ALPHABET) for _ in range(rng.randint(low, high))
    )


def draw_parameter(rng: random.Random, kind: str | None):
    """A fresh parameter of the given kind.

    The ranges are wide enough that fresh draws rarely repeat within a
    run, so the share of first touches stays level from start to end.
    """
    if kind is None:
        return None
    if kind == "word":
        return random_word(rng, 1, 12)
    if kind == "short":
        return random_word(rng, 1, 6)
    if kind == "motif":
        return random_word(rng, 1, 10)
    if kind == "edit":
        return random_word(rng, 1, 5), rng.randint(1, 2)
    raise ValueError(f"unknown parameter kind {kind!r}")


def formula(name: str, param):
    """The ``(head, formula)`` of template ``name`` at ``param``."""
    from repro.core import shorthands as sh
    from repro.core.syntax import exists, f_and, lift, rel

    if name == "q1_constant":
        return ("x",), f_and(rel("R2", "x"), lift(sh.constant("x", param)))
    if name == "q2_equality":
        return ("y",), exists("x", f_and(
            rel("R2", "x"), lift(sh.equals("x", "y"))))
    if name == "q3_concat":
        return ("x",), exists(["y", "z"], f_and(
            rel("R2", "y"), rel("R2", "z"),
            lift(sh.concatenation("x", "y", "z"))))
    if name == "q3_concat_pairs":
        return ("x",), exists(["y", "z"], f_and(
            rel("R1", "y", "z"), lift(sh.concatenation("x", "y", "z"))))
    if name == "q4_manifold":
        return ("x", "y"), f_and(
            rel("R1", "x", "y"), lift(sh.manifold("x", "y")))
    if name == "q4_manifold_constant":
        return ("x",), exists("y", f_and(
            rel("R2", "x"), lift(sh.constant("y", param)),
            lift(sh.manifold("x", "y"))))
    if name == "q5_shuffle":
        return ("x",), exists(["y", "z"], f_and(
            rel("R1", "y", "z"), lift(sh.shuffle("x", "y", "z"))))
    if name == "q7_occurrence":
        return ("y",), exists("x", f_and(
            rel("R2", "y"), lift(sh.constant("x", param)),
            lift(sh.occurs_in("x", "y"))))
    if name == "q8_edit_distance":
        word, bound = param
        return ("y",), exists("x", f_and(
            rel("R2", "y"), lift(sh.constant("x", word)),
            lift(sh.edit_distance_at_most("x", "y", bound))))
    if name == "prefix_constant":
        return ("y",), exists("x", f_and(
            rel("R2", "y"), lift(sh.constant("x", param)),
            lift(sh.prefix_of("x", "y"))))
    if name == "suffix":
        return ("x",), exists("y", f_and(
            rel("R2", "y"), lift(sh.suffix_of("x", "y"))))
    if name == "join":
        return ("x",), exists("y", f_and(rel("R1", "x", "y"), rel("R2", "y")))
    if name == "join_chain":
        return ("x", "z"), exists("y", f_and(
            rel("R1", "x", "y"), rel("R1", "y", "z")))
    if name == "join_constant":
        return ("x",), exists("y", f_and(
            rel("R1", "x", "y"), lift(sh.constant("y", param))))
    raise ValueError(f"unknown template {name!r}")


def relations(seed: int) -> tuple[list[tuple[str, str]], list[str]]:
    """The generated rows: distinct ``R1`` pairs and ``R2`` singles.

    Lengths follow :data:`LENGTHS` and only the characters are drawn,
    so every seed asks about the same amount of work of the program.
    """
    rng = random.Random(seed)
    singles: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    for index, length in enumerate(LENGTHS):
        while len(singles) <= index:
            singles.add(random_word(rng, length, length))
        other = LENGTHS[(index * 7 + 3) % len(LENGTHS)]
        while len(pairs) <= index:
            pairs.add((
                random_word(rng, length, length),
                random_word(rng, other, other),
            ))
    return sorted(pairs), sorted(singles)


def build(seed: int):
    """The database and the long-lived session, before any query."""
    from repro.core.alphabet import Alphabet
    from repro.core.database import Database
    from repro.engine import QueryEngine

    pairs, singles = relations(seed)
    db = Database(
        Alphabet(ALPHABET),
        {"R1": pairs, "R2": [(value,) for value in singles]},
    )
    return db, QueryEngine()


def fresh_setup_seconds(seed: int) -> float:
    """Median wall time of a fresh interpreter importing and building.

    A user of this workload starts cold, so the set-up cost is an
    interpreter start, the imports and :func:`build`, in a child.  Each
    duration is scaled by host-speed probes taken right before and
    after it.
    """
    code = f"import perfbench.adhoc_paper as w; w.build({seed})"
    speed = Speedometer()
    durations = []
    for _ in range(harness.SETUP_REPS):
        speed.take()
        started = perf_counter()
        child = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT)
        # A blocking wait: waiting with a timeout polls in 50 ms steps,
        # which would round every measurement.
        killer = threading.Timer(SETUP_TIMEOUT, child.kill)
        killer.start()
        try:
            status = child.wait()
        finally:
            killer.cancel()
        ended = perf_counter()
        speed.take()
        durations.append((ended - started) * speed.between(started, ended))
        if status != 0:
            raise subprocess.CalledProcessError(status, code)
    return stats.median(durations)


def stream(seed: int):
    """The seeded query stream: ``(template, parameter)`` forever.

    Fresh draws visit the templates round-robin, so the template mix is
    the same for every seed; parameters and repeats are random.
    """
    rng = random.Random(seed)
    asked: list[tuple[str, object]] = []
    names = sorted(TEMPLATES)
    fresh = 0
    while True:
        if asked and rng.random() < REPEAT_SHARE:
            yield asked[rng.randrange(len(asked))]
            continue
        name = names[fresh % len(names)]
        fresh += 1
        item = (name, draw_parameter(rng, TEMPLATES[name]))
        asked.append(item)
        yield item


def run(seed: int, seconds: float, trace: bool) -> Result:
    """One run: cold set-up, then the closed query loop."""
    from repro.core.alphabet import Alphabet
    from repro.core.query import Query

    setup_s = fresh_setup_seconds(seed) if not trace else 0.0
    db, session = build(seed)
    pairs, singles = relations(seed)
    alphabet = Alphabet(ALPHABET)
    queries = stream(seed)
    seen: set = set()
    loop = Loop(session, trace)
    rss_mb: list[float] = []

    def step():
        if loop.attempted == RSS_AT_OPS:
            rss_mb.append(harness.peak_rss_mb())
        name, param = next(queries)
        head, phi = formula(name, param)
        query = Query(head, phi, alphabet)
        want = oracles.paper_answer(name, param, pairs, singles)
        loop.op(
            "repeat" if (name, param) in seen else "first",
            lambda: session.evaluate(query, db, engine="auto", workers=1),
            lambda got: None if got == want else (
                f"{name}({param!r}): {len(got)} rows, "
                f"oracle has {len(want)}"
            ),
        )
        seen.add((name, param))

    harness.run_for(seconds, loop, step)
    result = Result(loop.attempted, loop.failed, failures=loop.failures)
    first, repeat = loop.latencies["first"], loop.latencies["repeat"]
    reads = first + repeat
    result.end_to_end = harness.end_to_end(
        setup_s, loop.untraced_rate(), reads,
        rss_mb[0] if rss_mb else harness.peak_rss_mb(),
    )
    result.notes = harness.read_notes(reads) + [
        ("run_end_peak_rss_mb", harness.peak_rss_mb(), "MB"),
        ("first_touch_p50_ms", latency_ms(first, 0.5), "ms"),
        ("repeat_p50_ms", latency_ms(repeat, 0.5), "ms"),
        ("distinct_queries", len(seen), "count"),
    ]
    if trace:
        result.per_layer = harness.layer_metrics(loop, session, 0.0)
    return result
