"""Incremental evaluation under updates: one warm session, many versions.

A warm ``QueryEngine`` materializes two queries over a small
database, then absorbs a stream of inserts and deletes through
``apply_delta`` — semi-naive maintenance of the materialized
answers, with every session cache kept warm.  After every
update the maintained answer is checked against a cold from-scratch
evaluation, so the transcript doubles as a correctness demo.

Run with:  python examples/incremental_updates.py [--stats]

``--stats`` appends the session's update-path counters — how each
materialized answer was repaired (branches skipped, re-run
semi-naively, or recomputed) — and how many plans the session built
and replaced.
"""

import argparse

from repro.core import Database, Query
from repro.core import shorthands as sh
from repro.core.alphabet import AB
from repro.core.syntax import And, lift, rel
from repro.delta import Delta, DeltaLog
from repro.engine import QueryEngine
from repro.observability import Tracer

QUERIES = {
    "prefix-pairs  R1(x,y) & x<=y": Query(
        ("x", "y"),
        And(rel("R1", "x", "y"), lift(sh.prefix_of("x", "y"))),
        AB,
    ),
    "members       R2(x)": Query(("x",), rel("R2", "x"), AB),
}

#: The update stream: a trickle of inserts and deletes, plus one
#: coalesced batch built through DeltaLog.
UPDATES = [
    ("insert a matching pair", Delta.of(inserts={"R1": [("a", "ab")]})),
    ("delete one member", Delta.of(deletes={"R2": [("b",)]})),
    (
        "batched edits (last-op-wins)",
        DeltaLog()
        .insert("R2", ("bb",))
        .delete("R2", ("bb",))
        .insert("R2", ("ba",))
        .insert("R1", ("b", "ba"))
        .build(),
    ),
]


def show(label, answers):
    rows = ", ".join("/".join(row) for row in sorted(answers)) or "(empty)"
    print(f"  {label}: {rows}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--stats", action="store_true",
        help="print maintenance counters and plan replacements",
    )
    args = parser.parse_args()

    db = Database(
        AB,
        {"R1": [("a", "aa"), ("b", "ab")], "R2": [("a",), ("b",)]},
    )
    session = QueryEngine(tracer=Tracer())

    print("initial answers (materialized):")
    for label, query in QUERIES.items():
        show(label, session.evaluate(query, db, length=2, materialize=True))

    for step, (what, delta) in enumerate(UPDATES, start=1):
        db = session.apply_delta(db, delta)
        print(f"\nupdate {step}: {what}  (|delta| = {delta.size})")
        for label, query in QUERIES.items():
            warm = session.evaluate(query, db, length=2, materialize=True)
            cold = QueryEngine().evaluate(query, db, length=2)
            assert warm == cold, "incremental diverged from from-scratch"
            show(label, warm)

    if args.stats:
        counters = session.tracer.counters
        print("\nupdate-path counters:")
        families = ("delta.", "cache.invalidate.", "index.")
        for name in sorted(counters):
            if name.startswith(families):
                print(f"  {name} = {counters[name]}")
        # Maintained answers are re-pinned to each new version, so no
        # lookup re-plans them: the two plans built up front are kept.
        plans = session.trace_report().caches["ir"]
        print(
            f"plans: built={plans['misses']} "
            f"replaced under new statistics={plans['invalidated']}"
        )


if __name__ == "__main__":
    main()
