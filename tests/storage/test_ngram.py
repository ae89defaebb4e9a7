"""The n-gram index: probes, the artifact format, sharing."""

import pickle

import pytest

from repro.core.alphabet import Alphabet
from repro.core.database import Database
from repro.errors import ArityError, ArtifactError
from repro.storage import NGramIndexStorage, probe_candidates, storage_factory
from repro.storage.artifact import MAGIC, content_fingerprint

DNA = Alphabet("acgt")

#: Adversarial strings sharing all their 2-grams but differing in order
#: — an exact probe must separate them, a bag-of-grams one cannot.
SHARED_GRAM_ROWS = (
    ("gcgc",),
    ("cgcg",),
    ("gcgcgc",),
    ("ggcc",),
    ("cc",),
)


def _build(rows=SHARED_GRAM_ROWS, n=2):
    return NGramIndexStorage.build(rows, n=n)


def test_candidates_respect_gram_positions():
    store = _build()
    rows = tuple(sorted(SHARED_GRAM_ROWS))
    def ids(factor):
        found = store.candidates(0, factor)
        return None if found is None else {rows[i][0] for i in found}

    assert ids("gcg") == {"gcgc", "cgcg", "gcgcgc"}
    assert ids("cgc") == {"gcgc", "cgcg", "gcgcgc"}
    assert ids("gcgcgc") == {"gcgcgc"}
    # "cgcg" holds every 2-gram of "gcgc" ("gc" and "cg") — only the
    # substring check after the gram intersection can exclude it.
    assert ids("gcgc") == {"gcgc", "gcgcgc"}
    assert ids("cgcg") == {"cgcg", "gcgcgc"}
    assert ids("gccg") == set()
    assert ids("zz") == set()


def test_candidates_below_gram_size_decline_to_prune():
    store = _build(n=3)
    assert store.candidates(0, "gc") is None
    assert probe_candidates(store, 0, ("gc",)) is None
    # A mix of short and long factors still prunes on the long one.
    found = probe_candidates(store, 0, ("gc", "gcgcgc"))
    assert found is not None and len(found) == 1


def test_rows_for_returns_sorted_unique_rows():
    store = _build()
    found = store.candidates(0, "gcgc")
    assert found is not None
    assert tuple(store.rows_for(found)) == (("gcgc",), ("gcgcgc",))
    doubled = tuple(found) + tuple(found)
    assert tuple(store.rows_for(doubled)) == (("gcgc",), ("gcgcgc",))


def test_build_canonicalizes_and_checks_arity():
    store = NGramIndexStorage.build([("b", "a"), ("b", "a"), ("a", "b")], n=2)
    assert store.size() == 2
    assert store.column(0) == ("a", "b")
    with pytest.raises(ArityError):
        NGramIndexStorage.build([("a",), ("a", "b")], n=2)
    with pytest.raises(ArityError):
        NGramIndexStorage.build([("a", "b")], n=2, arity=1)


def test_artifact_round_trip(tmp_path):
    path = tmp_path / "R.ngx"
    built = _build()
    built.write(path)
    opened = NGramIndexStorage.open(path)
    assert opened.path == path
    assert opened.tuples == built.tuples
    assert opened.stats() == built.stats()
    assert opened.column(0) == built.column(0)
    assert opened.contains(("ggcc",))
    for factor in ("gcg", "cgc", "gcgcgc", "zz"):
        assert opened.candidates(0, factor) == built.candidates(0, factor)


def test_ensure_builds_once_and_rebuilds_on_content_change(tmp_path):
    path = tmp_path / "R.ngx"
    first = NGramIndexStorage.ensure(path, SHARED_GRAM_ROWS, n=2)
    stamp = path.stat().st_mtime_ns
    again = NGramIndexStorage.ensure(path, SHARED_GRAM_ROWS, n=2)
    assert path.stat().st_mtime_ns == stamp  # reused, not rewritten
    assert again.tuples == first.tuples
    changed = NGramIndexStorage.ensure(
        path, SHARED_GRAM_ROWS + (("tttt",),), n=2
    )
    assert ("tttt",) in changed.tuples
    assert NGramIndexStorage.open(path).contains(("tttt",))
    # A different gram size is a different content fingerprint.
    assert content_fingerprint(tuple(sorted(SHARED_GRAM_ROWS)), 2) != (
        content_fingerprint(tuple(sorted(SHARED_GRAM_ROWS)), 3)
    )


def test_corrupt_artifacts_are_rejected(tmp_path):
    path = tmp_path / "R.ngx"
    _build().write(path)
    pristine = path.read_bytes()

    with pytest.raises(ArtifactError):
        NGramIndexStorage.open(tmp_path / "missing.ngx")

    path.write_bytes(pristine[: len(pristine) // 2])  # truncated
    with pytest.raises(ArtifactError):
        NGramIndexStorage.open(path)

    flipped = bytearray(pristine)
    flipped[len(flipped) - 3] ^= 0xFF  # payload bit rot → sha mismatch
    path.write_bytes(bytes(flipped))
    with pytest.raises(ArtifactError):
        NGramIndexStorage.open(path)

    path.write_bytes(b"XX" + pristine[2:])  # wrong magic
    with pytest.raises(ArtifactError):
        NGramIndexStorage.open(path)

    bumped = bytearray(pristine)
    bumped[len(MAGIC)] ^= 0xFF  # incompatible version
    path.write_bytes(bytes(bumped))
    with pytest.raises(ArtifactError):
        NGramIndexStorage.open(path)

    # ensure() heals every one of those by rebuilding.
    healed = NGramIndexStorage.ensure(path, SHARED_GRAM_ROWS, n=2)
    assert healed.tuples == frozenset(SHARED_GRAM_ROWS)


def test_artifact_backed_storage_pickles_by_path(tmp_path):
    path = tmp_path / "R.ngx"
    store = NGramIndexStorage.ensure(path, SHARED_GRAM_ROWS, n=2)
    payload = pickle.dumps(store)
    # The rows travel as a path, not as serialized strings.
    assert b"gcgcgc" not in payload
    clone = pickle.loads(payload)
    assert clone.path == path
    assert clone.tuples == store.tuples

    in_memory = _build()
    clone = pickle.loads(pickle.dumps(in_memory))
    assert clone.path is None
    assert clone.tuples == in_memory.tuples
    assert clone.candidates(0, "gcg") == in_memory.candidates(0, "gcg")


def test_parallel_workers_share_one_artifact(tmp_path, pooled):
    """A database over artifact-backed storage crosses the process
    boundary as paths; pooled answers stay identical."""
    from repro.core.query import Query
    from repro.core.syntax import rel
    from repro.engine import QueryEngine

    singles = [
        ("gcgcgc",), ("acgtac",), ("gcgc",), ("ttgcgt",), ("aaaa",),
    ]
    plain = Database(DNA, {"R2": singles})
    factory = storage_factory("ngram", index_dir=tmp_path)
    indexed = plain.with_storage(factory)
    assert indexed.storage("R2").path == tmp_path / "R2.ngx"

    payload = pickle.dumps(indexed)
    assert b"acgtac" not in payload  # rows did not ride the pickle
    worker_view = pickle.loads(payload)
    assert worker_view.storage("R2").path == tmp_path / "R2.ngx"
    assert worker_view == indexed

    query = Query(("x",), rel("R2", "x"), DNA)
    session = QueryEngine()
    expected = session.evaluate(query, plain, length=6)
    for db in (indexed, worker_view):
        got = session.evaluate(query, db, length=6, workers=2)
        assert got == expected
