"""The compressed ≡ decompressed differential gate (ISSUE tentpole).

Byte-identical answer sets whether relations live in plain frozensets
or as SLP-compressed cells — across every engine on hypothesis-driven
databases from all workload generators, and across worker counts
{1, 2, 4} on a fixed database (worker processes re-intern grammars from
pickles, so cross-process structural identity is part of the
contract).  A forced-v1 column (the ``forced_v1`` fixture makes the
determinizer decline in-process, so it runs at one worker) repeats the
fixed-database check with every machine on the worklist kernel.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import shorthands as sh
from repro.core.alphabet import AB, Alphabet
from repro.core.database import Database
from repro.core.query import Query
from repro.core.syntax import And, Not, exists, f_or, lift, rel
from repro.engine import QueryEngine
from repro.workloads.generators import (
    copy_language_strings,
    example_database,
    manifold_strings,
    near_duplicates,
    uniform_strings,
    with_planted_motif,
)

DNA = Alphabet("acgt")
ENGINES = ("naive", "algebra", "auto")
WORKER_COUNTS = (1, 2, 4)

#: Matrix columns ``(kernels, workers)``: ``auto`` lets each machine
#: pick its kernel, ``v1`` forces the worklist kernel in-process.
COLUMNS = [("auto", workers) for workers in WORKER_COUNTS] + [("v1", 1)]

#: Every generator in workloads/generators.py, as a seeded factory —
#: string lengths stay ≤ 2 so the cap-2 truncation domain covers the
#: databases and all engines share one exact semantics.
GENERATORS = {
    "uniform": lambda seed: example_database(
        AB,
        singles=uniform_strings(AB, 4, 2, seed=seed),
        seed=seed,
        size=3,
        max_length=2,
    ),
    "motif": lambda seed: example_database(
        AB,
        singles=with_planted_motif(AB, "b", count=4, max_length=1, seed=seed),
        seed=seed,
        size=3,
        max_length=2,
    ),
    "near-dup": lambda seed: example_database(
        AB,
        singles=near_duplicates(AB, "a", count=4, max_edits=1, seed=seed),
        seed=seed,
        size=3,
        max_length=2,
    ),
    "copy-lang": lambda seed: example_database(
        AB,
        singles=copy_language_strings(count=4, max_half_length=1, seed=seed),
        seed=seed,
        size=3,
        max_length=2,
    ),
    "manifold": lambda seed: example_database(
        AB,
        pairs=manifold_strings(
            AB, count=3, max_base_length=1, max_repeats=2, seed=seed
        ),
        seed=seed,
        size=3,
        max_length=2,
    ),
    "example": lambda seed: example_database(
        AB, seed=seed, size=3, max_length=2
    ),
}


def _queries(alphabet):
    """Query shapes covering joins, string filters and disjunctions."""
    yield "join-filter", Query(
        ("x", "y"),
        And(
            lift(sh.prefix_of("x", "y")),
            And(rel("R1", "x", "y"), Not(rel("R2", "y"))),
        ),
        alphabet,
    )
    yield "disjunction", Query(
        ("x",), f_or(rel("R2", "x"), rel("R1", "x", "x")), alphabet
    )
    yield "nested-exists", Query(
        ("x",),
        exists("y", And(rel("R1", "x", "y"), rel("R2", "y"))),
        alphabet,
    )
    yield "substring", Query(
        ("x",),
        exists("y", And(rel("R1", "x", "y"), lift(sh.occurs_in("x", "y")))),
        alphabet,
    )


def _assert_compression_invisible(plain, cap):
    compressed = plain.with_storage("slp")
    session = QueryEngine()
    for name, query in _queries(plain.alphabet):
        for engine in ENGINES:
            want = session.evaluate(query, plain, length=cap, engine=engine)
            got = session.evaluate(
                query, compressed, length=cap, engine=engine
            )
            assert got == want, (
                f"{name}: engine={engine} diverged between memory and "
                f"slp storage"
            )


@settings(max_examples=4, deadline=None)
@pytest.mark.parametrize(
    "generator", sorted(GENERATORS), ids=sorted(GENERATORS)
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_compression_invisible_on_every_workload_generator(generator, seed):
    _assert_compression_invisible(GENERATORS[generator](seed), cap=2)


#: Highly repetitive relations — the regime SLP compression targets.
_REPETITIVE = st.lists(
    st.tuples(
        st.sampled_from(["gc", "at", "g", ""]),
        st.integers(min_value=0, max_value=3),
    ).map(lambda pair: pair[0] * pair[1]),
    min_size=1,
    max_size=6,
)


@settings(max_examples=15, deadline=None)
@given(singles=_REPETITIVE, pairs=st.lists(
    st.tuples(
        st.sampled_from(["gcgc", "g", "c", ""]),
        st.sampled_from(["gc", "cg", ""]),
    ),
    min_size=1,
    max_size=4,
))
def test_compression_invisible_on_repetitive_relations(singles, pairs):
    db = Database(DNA, {"R1": pairs, "R2": [(s,) for s in singles]})
    _assert_compression_invisible(db, cap=2)


@pytest.mark.parametrize(
    "kernels,workers", COLUMNS, ids=[f"{k}-{w}" for k, w in COLUMNS]
)
def test_workers_agree_over_compressed_storage(
    kernels, workers, request, pooled
):
    """Shard workers re-intern pickled grammars and still agree."""
    if kernels == "v1":
        request.getfixturevalue("forced_v1")
    pooled["shards"] = 2
    db = GENERATORS["example"](7)
    compressed = db.with_storage("slp")
    session = QueryEngine()
    for name, query in _queries(db.alphabet):
        want = session.evaluate(query, db, length=2, engine="naive")
        got = session.evaluate(query, compressed, length=2, workers=workers)
        assert got == want, (
            f"{name}: auto(workers={workers}, kernels={kernels}) "
            f"diverged over slp storage"
        )
