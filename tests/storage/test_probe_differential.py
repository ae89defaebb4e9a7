"""Differential tests for the n-gram probe against a brute-force oracle.

``candidates(column, factor)`` must return exactly the ids of the live
rows whose value contains ``factor`` when the factor has at least ``n``
characters, and ``None`` below ``n``.  The oracle is a pass over the
live rows; it runs against four storages holding the same rows: an
in-memory build, the same rows reopened from an artifact, a version
derived by several deltas, and a mutated artifact-backed version whose
file was overwritten (the stale fallback).
"""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.observability import Tracer, activate
from repro.storage import NGramIndexStorage
from repro.storage.artifact import ArtifactReader, build_postings

#: Short cells over two letters: most repeat a gram, many are shorter
#: than the gram size.
_CELLS = st.text(alphabet="ab", max_size=7)
_ROWS = st.frozensets(st.tuples(_CELLS, _CELLS), max_size=12)


def _oracle(store, column, factor):
    """The live rows whose ``column`` value holds ``factor``."""
    if len(factor) < store.n:
        return None
    return frozenset(
        row for row in store.scan() if factor in row[column]
    )


def _assert_probes_exact(store, factors):
    for column in range(store.arity):
        for factor in factors:
            found = store.candidates(column, factor)
            expected = _oracle(store, column, factor)
            if expected is None:
                assert found is None, (column, factor)
                continue
            rows = tuple(store.rows_for(found))
            # Distinct ids decode to distinct live rows, so equal sizes
            # and equal row sets pin the id set itself.
            assert len(rows) == len(found), (column, factor)
            assert frozenset(rows) == expected, (column, factor, store)


def _factors(rows):
    """Every substring of the stored values up to 4 characters, plus
    factors no row holds."""
    found = {"", "b", "aaaa", "abba", "bbbbb"}
    for row in rows:
        for value in row:
            for start in range(len(value)):
                for stop in range(start + 1, min(len(value), start + 4) + 1):
                    found.add(value[start:stop])
    return sorted(found)


def _derived(rows, churn, gone, n):
    """``rows`` reached by five deltas from a build holding ``gone``.

    Every version on the way is probed too.  The deltas append rows,
    delete rows (``gone`` from the base, ``churn`` after it was
    appended) and insert ``churn`` again, which revives tombstoned ids.
    """
    ordered = sorted(rows)
    half = frozenset(ordered[: len(ordered) // 2])
    store = NGramIndexStorage.build(half | gone, n=n, arity=2)
    versions = [store]
    for inserts, deletes in (
        (rows - half, gone - rows),
        (frozenset(), churn),
        (churn, frozenset()),
        (frozenset({("aaaa", "abab")}) - rows, frozenset()),
        (frozenset(), frozenset({("aaaa", "abab")}) - rows),
    ):
        store = store.apply_delta(inserts, deletes)
        versions.append(store)
    return store, versions


#: A row no drawn relation holds (longer than any drawn cell).
_SENTINEL = ("abababab", "")


@settings(max_examples=60, deadline=None)
@given(
    rows=_ROWS,
    gone=_ROWS,
    picks=st.lists(st.booleans(), max_size=12),
    n=st.sampled_from([2, 3]),
)
@example(
    rows=frozenset({("aaaa", "ab"), ("abab", ""), ("b", "babab")}),
    gone=frozenset({("abab", "a"), ("bbb", "bb")}),
    picks=[True, False, True],
    n=3,
)
def test_probe_matches_brute_force_on_every_storage(rows, gone, picks, n):
    churn = frozenset(
        row for row, picked in zip(sorted(rows), picks) if picked
    )
    factors = _factors(rows | gone)
    built = NGramIndexStorage.build(rows, n=n, arity=2)
    derived, versions = _derived(rows, churn, gone, n)
    assert derived.tuples == built.tuples
    for version in versions:
        _assert_probes_exact(version, factors)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "R.ngx"
        built.write(path)
        opened = NGramIndexStorage.open(path)
        # A version derived from the artifact, whose file is then
        # replaced: probes must fall back to postings of its own rows.
        other = path.with_name("S.ngx")
        NGramIndexStorage.build(rows | gone | {_SENTINEL}, n=n).write(other)
        stale = NGramIndexStorage.open(other).apply_delta(
            churn, (gone - rows) | {_SENTINEL}
        )
        NGramIndexStorage.build([("bbbb", "bbbb")], n=n).write(other)
        tracer = Tracer()
        for store in (built, opened, derived, stale):
            with activate(tracer):
                _assert_probes_exact(store, factors)
        assert stale.tuples == built.tuples
        assert tracer.counters.get("index.stale_fallback", 0) == 1
        opened._reader.close()
        stale._reader.close()


@settings(max_examples=40, deadline=None)
@given(rows=_ROWS, n=st.sampled_from([1, 2, 3]))
def test_postings_hold_one_entry_per_row_and_distinct_gram(rows, n):
    ordered = tuple(sorted(rows))
    postings = build_postings(ordered, n, 2)
    for column, grams in enumerate(postings):
        expected = {
            (row_id, row[column][start : start + n])
            for row_id, row in enumerate(ordered)
            for start in range(len(row[column]) - n + 1)
        }
        entries = [
            (row_id, gram) for gram, ids in grams.items() for row_id in ids
        ]
        assert len(entries) == len(expected)
        assert set(entries) == expected
        for ids in grams.values():
            assert list(ids) == sorted(set(ids))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "R.ngx"
        NGramIndexStorage.build(ordered, n=n, arity=2).write(path)
        reader = ArtifactReader(path)
        try:
            for column, grams in enumerate(postings):
                assert reader.grams(column) == tuple(sorted(grams))
                for gram, ids in grams.items():
                    assert reader.postings(column, gram) == ids
                assert len(reader.postings(column, "zz")) == 0
        finally:
            reader.close()


def test_cell_longer_than_65535_characters_round_trips(tmp_path):
    long_cell = "ac" * 40_000 + "gtg"
    rows = [(long_cell,), ("acgt",), ("gtga",)]
    path = tmp_path / "R.ngx"
    NGramIndexStorage.build(rows, n=3).write(path)
    opened = NGramIndexStorage.open(path)
    try:
        assert opened.tuples == frozenset(rows)
        assert set(opened.rows_for(opened.candidates(0, "cgtg"))) == {
            (long_cell,)
        }
        assert set(opened.rows_for(opened.candidates(0, "gtg"))) == {
            (long_cell,),
            ("gtga",),
        }
    finally:
        opened._reader.close()
