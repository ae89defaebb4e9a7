"""Differential proof: the storage backend never changes answers.

Every engine must return byte-identical answer sets whether relations
live in plain frozensets or behind the n-gram index — on
random databases from every workload generator (hypothesis-driven) and
on adversarial relations whose strings share all their n-grams, the
regime where a probe that only intersected grams would over-prune.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import shorthands as sh
from repro.core.alphabet import AB, Alphabet
from repro.core.database import Database
from repro.core.query import Query
from repro.core.syntax import And, Not, exists, f_or, lift, rel
from repro.engine import QueryEngine
from repro.storage import NGramIndexStorage, storage_factory
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


def _assert_backends_agree(plain, cap, n=2):
    indexed = plain.with_storage(
        lambda name, tuples, alphabet: NGramIndexStorage.build(tuples, n=n)
    )
    session = QueryEngine()
    for name, query in _queries(plain.alphabet):
        answers = {
            engine: session.evaluate(query, plain, length=cap, engine=engine)
            for engine in ENGINES
        }
        for engine in ENGINES:
            got = session.evaluate(query, indexed, length=cap, engine=engine)
            assert got == answers[engine], (
                f"{name}: engine={engine} diverged between memory and "
                f"ngram storage"
            )


@settings(max_examples=6, deadline=None)
@pytest.mark.parametrize(
    "generator", sorted(GENERATORS), ids=sorted(GENERATORS)
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_backends_agree_on_every_workload_generator(generator, seed):
    _assert_backends_agree(GENERATORS[generator](seed), cap=2)


#: Strings built from {"gc", "cg"} blocks share every 2-gram while
#: differing in gram order — adversarial for an n-gram index.
_SHARED_GRAM = st.lists(
    st.sampled_from(["gc", "cg", "g", "c"]), min_size=0, max_size=3
).map("".join)


@settings(max_examples=20, deadline=None)
@given(
    singles=st.lists(_SHARED_GRAM, min_size=1, max_size=6),
    pairs=st.lists(
        st.tuples(_SHARED_GRAM, _SHARED_GRAM), min_size=1, max_size=6
    ),
)
def test_backends_agree_on_adversarial_shared_gram_relations(singles, pairs):
    db = Database(
        DNA, {"R1": pairs, "R2": [(s,) for s in singles]}
    )
    _assert_backends_agree(db, cap=2)


def test_cli_storage_flag_matches_memory(tmp_path, capsys):
    """`--storage ngram --index-dir` end to end: same stdout tuples."""
    from repro.cli import main

    db_file = tmp_path / "db.json"
    db_file.write_text(
        '{"R2": [["gcgc"], ["cgcg"], ["acgt"], ["aa"]]}'
    )
    formula = (
        "exists y: R2(y) & ([y]l)* . ([x,y]l(x = y))* . [x]l(x = eps)"
    )
    argv = [
        "query",
        "--alphabet",
        "acgt",
        "--db",
        str(db_file),
        "--head=x",
        "--length",
        "4",
    ]
    assert main(argv + [formula]) == 0
    plain = capsys.readouterr().out
    assert plain  # the substring query has answers
    index_dir = tmp_path / "idx"
    ngram = ["--storage", "ngram", "--index-dir", str(index_dir)]
    assert main(argv + ngram + [formula]) == 0
    assert capsys.readouterr().out == plain
    assert (index_dir / "R2.ngx").exists()
    # Second run reuses the artifact and still agrees.
    assert main(argv + ngram + [formula]) == 0
    assert capsys.readouterr().out == plain
