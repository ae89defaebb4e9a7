"""Storage-level ``apply_delta``: in-memory, n-gram, staleness guard."""

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.alphabet import AB, Alphabet
from repro.core.database import Database
from repro.delta import Delta
from repro.errors import ArityError
from repro.observability import Tracer, activate
from repro.storage import (
    InMemoryStorage,
    NGramIndexStorage,
    compute_stats,
    is_storage,
)

ROWS = [("gcgc",), ("acgt",), ("ttag",)]

_CELLS = st.text(alphabet="ab", max_size=2)


def _rows(arity):
    return st.tuples(*[_CELLS] * arity)


_ANY_ROW = st.one_of(_rows(1), _rows(2))


@st.composite
def _stores(draw):
    """Relations of arity 1–2, possibly empty, or the undeclared arity 0."""
    arity = draw(st.sampled_from([0, 1, 2]))
    if arity == 0:
        return InMemoryStorage([])
    return InMemoryStorage(
        draw(st.frozensets(_rows(arity), max_size=6)), arity=arity
    )


@st.composite
def _cases(draw):
    """A store plus a delta mixing present, absent and shared rows."""
    store = draw(_stores())
    present = sorted(store.tuples)
    stored_row = st.sampled_from(present) if present else st.nothing()
    own_arity = _rows(store.arity) if store.arity else _ANY_ROW
    deletes = set(
        draw(st.frozensets(st.one_of(stored_row, _ANY_ROW), max_size=4))
    )
    if draw(st.booleans()):
        deletes |= store.tuples
    deleted_row = st.sampled_from(sorted(deletes)) if deletes else st.nothing()
    inserts = draw(
        st.frozensets(
            st.one_of(stored_row, deleted_row, own_arity, _ANY_ROW),
            max_size=4,
        )
    )
    return store, frozenset(inserts), frozenset(deletes)


def _everything_deleted_other_arity_inserted():
    store = InMemoryStorage([("a",), ("b",)])
    return store, frozenset({("a", "b")}), store.tuples


def _snapshot(store):
    return (
        store.tuples,
        store.arity,
        store.stats(),
        [store.column(k) for k in range(store.arity)],
    )


def _check_stats(store):
    """The version's statistics equal one pass over its live rows."""
    assert store.stats() == compute_stats(sorted(store.scan()), store.arity)
    return store


def _candidate_rows(store, column, factor):
    ids = store.candidates(column, factor)
    assert ids is not None
    return set(store.rows_for(ids))


class TestInMemoryApplyDelta:
    def test_applies_deletes_then_inserts(self):
        store = InMemoryStorage([("a",), ("b",)])
        updated = store.apply_delta(frozenset({("c",)}), frozenset({("a",)}))
        assert updated.tuples == {("b",), ("c",)}
        assert store.tuples == {("a",), ("b",)}

    def test_net_noop_returns_self(self):
        store = InMemoryStorage([("a",)])
        assert store.apply_delta(frozenset({("a",)}), frozenset()) is store
        assert store.apply_delta(frozenset(), frozenset({("zz",)})) is store

    @settings(max_examples=300, deadline=None)
    @given(_cases())
    @example(_everything_deleted_other_arity_inserted())
    @example((InMemoryStorage([]), frozenset({("a",), ("a", "b")}), frozenset()))
    @example(
        (InMemoryStorage([], arity=2), frozenset({("b",)}), frozenset({("b",)}))
    )
    def test_matches_the_rebuild(self, case):
        """Differential: the delta-only derivation against the rebuild
        ``InMemoryStorage((R - deletes) | inserts)`` it replaces."""
        store, inserts, deletes = case
        before = _snapshot(store)
        try:
            expected = InMemoryStorage(
                (store.tuples - deletes) | inserts,
                arity=store.arity or None,
            )
        except ArityError as error:
            with pytest.raises(ArityError) as raised:
                store.apply_delta(inserts, deletes)
            assert str(raised.value) == str(error)
        else:
            result = store.apply_delta(inserts, deletes)
            assert (result is store) == (expected.tuples == store.tuples)
            assert type(result.tuples) is frozenset
            assert result.tuples == expected.tuples
            assert result.arity == expected.arity
            assert result.size() == expected.size()
            assert result.stats() == expected.stats()
            for k in range(expected.arity):
                assert result.column(k) == expected.column(k)
            # A parent whose statistics were never computed.
            unread = InMemoryStorage(store.tuples, arity=store.arity or None)
            derived = unread.apply_delta(inserts, deletes)
            assert derived.tuples == expected.tuples
            assert derived.stats() == expected.stats()
        assert store.tuples is before[0]
        assert _snapshot(store) == before
        fresh = InMemoryStorage(store.tuples, arity=store.arity or None)
        assert _snapshot(fresh) == before


class _HooklessStorage:
    """A third-party backend: the read protocol, no ``apply_delta``."""

    def __init__(self, rows, arity):
        self._rows = frozenset(rows)
        self.arity = arity

    @property
    def tuples(self):
        return self._rows

    def scan(self):
        return iter(self._rows)

    def contains(self, row):
        return row in self._rows

    def column(self, index):
        return tuple(sorted({row[index] for row in self._rows}))

    def size(self):
        return len(self._rows)

    def stats(self):
        return InMemoryStorage(self._rows, arity=self.arity).stats()


class TestStorageWithoutHook:
    """``Database.apply`` derives hookless storages in memory."""

    def _database(self):
        duck = _HooklessStorage([("a", "b"), ("b", "b")], arity=2)
        assert is_storage(duck) and not hasattr(duck, "apply_delta")
        return duck, Database(AB, {"R": duck})

    def test_applies_deletes_then_inserts(self):
        duck, db = self._database()
        updated = db.apply(
            Delta.of(
                inserts={"R": [("ab", "a"), ("b", "b")]},
                deletes={"R": [("a", "b"), ("b", "b")]},
            )
        )
        assert updated.relation("R") == {("ab", "a"), ("b", "b")}
        assert isinstance(updated.storage("R"), InMemoryStorage)
        assert updated.arity("R") == 2
        assert updated.relation_version("R") > db.relation_version("R")
        assert duck.tuples == {("a", "b"), ("b", "b")}
        assert db.storage("R") is duck

    def test_net_noop_keeps_the_storage(self):
        duck, db = self._database()
        delta = Delta.of(
            inserts={"R": [("a", "b")]}, deletes={"R": [("aa", "aa")]}
        )
        assert db.apply(delta) is db
        assert db.storage("R") is duck

    def test_deleting_every_row_keeps_the_arity(self):
        duck, db = self._database()
        emptied = db.apply(Delta.of(deletes={"R": list(duck.tuples)}))
        assert len(emptied.relation("R")) == 0
        assert emptied.arity("R") == 2
        with pytest.raises(ArityError, match="cannot insert rows of arity 1"):
            emptied.apply(Delta.of(inserts={"R": [("a",)]}))

    def test_wrong_arity_insert_raises(self):
        _, db = self._database()
        with pytest.raises(ArityError, match="has arity 2"):
            db.apply(Delta.of(inserts={"R": [("a",)]}))


class TestNGramApplyDelta:
    def test_insert_updates_rows_and_candidates(self):
        store = NGramIndexStorage.build(ROWS, n=2)
        updated = store.apply_delta(frozenset({("gcaa",)}), frozenset())
        _check_stats(updated)
        assert updated.tuples == frozenset(ROWS) | {("gcaa",)}
        assert updated.size() == 4
        assert updated.contains(("gcaa",))
        assert _candidate_rows(updated, 0, "gc") >= {("gcgc",), ("gcaa",)}
        # The parent is untouched.
        assert store.size() == 3
        assert not store.contains(("gcaa",))

    def test_delete_tombstones_candidates(self):
        store = NGramIndexStorage.build(ROWS, n=2)
        updated = store.apply_delta(frozenset(), frozenset({("gcgc",)}))
        _check_stats(updated)
        assert updated.tuples == frozenset(ROWS) - {("gcgc",)}
        assert ("gcgc",) not in _candidate_rows(updated, 0, "cg")
        assert _candidate_rows(updated, 0, "cg") == {("acgt",)}

    def test_delete_then_reinsert_resurrects_the_row(self):
        store = NGramIndexStorage.build(ROWS, n=2)
        gone = _check_stats(
            store.apply_delta(frozenset(), frozenset({("acgt",)}))
        )
        back = _check_stats(
            gone.apply_delta(frozenset({("acgt",)}), frozenset())
        )
        assert back.tuples == frozenset(ROWS)
        assert ("acgt",) in _candidate_rows(back, 0, "cg")

    def test_chained_deltas_compose(self):
        store = NGramIndexStorage.build(ROWS, n=2)
        current = store
        for inserts, deletes in (
            ({("aacc",)}, set()),
            (set(), {("ttag",)}),
            ({("ttgg",)}, set()),
        ):
            current = current.apply_delta(
                frozenset(inserts), frozenset(deletes)
            )
            _check_stats(current)
        expect = (frozenset(ROWS) | {("aacc",), ("ttgg",)}) - {("ttag",)}
        assert current.tuples == expect
        assert sorted(current.scan()) == sorted(expect)
        assert current.size() == len(expect)

    def test_sibling_derivations_claiming_one_id(self):
        """Two children of one parent append different rows at the same
        id, then each appends the other's row.  The lineage's shared
        ``row -> id`` map then sends each child's own row to the id its
        sibling used, so only the search of the appended block finds
        it; every derivation must still match a fresh build."""

        def check(store, rows):
            fresh = NGramIndexStorage.build(rows, n=2)
            assert store.tuples == fresh.tuples
            assert store.stats() == fresh.stats()
            for factor in ("ca", "tg", "cat", "ttg", "ag"):
                assert _candidate_rows(store, 0, factor) == (
                    _candidate_rows(fresh, 0, factor)
                ), factor

        parent = NGramIndexStorage.build(ROWS, n=2)
        mine, theirs = ("acat",), ("cttg",)
        first = parent.apply_delta(frozenset({mine}), frozenset())
        second = parent.apply_delta(frozenset({theirs}), frozenset())
        check(first, ROWS + [mine])
        check(second, ROWS + [theirs])
        first = first.apply_delta(frozenset({theirs}), frozenset())
        second = second.apply_delta(frozenset({mine}), frozenset())
        for store, own, other in ((first, mine, theirs), (second, theirs, mine)):
            check(store, ROWS + [own, other])
            for row, kept in ((own, other), (other, own)):
                gone = store.apply_delta(frozenset(), frozenset({row}))
                check(gone, ROWS + [kept])
                back = gone.apply_delta(frozenset({row}), frozenset())
                check(back, ROWS + [own, other])

    def test_stats_follow_absent_deletes_and_emptying(self):
        store = NGramIndexStorage.build(ROWS, n=2)
        # Deleting an absent row beside an insert changes only the insert.
        mixed = _check_stats(
            store.apply_delta(
                frozenset({("aaaaaa",)}), frozenset({("cccc",), ("gcgc",)})
            )
        )
        assert mixed.stats().rows == 3
        emptied = _check_stats(
            mixed.apply_delta(frozenset(), frozenset(mixed.tuples))
        )
        assert emptied.stats() == compute_stats((), 1)
        refilled = _check_stats(
            emptied.apply_delta(frozenset({("gcgc",), ("a",)}), frozenset())
        )
        assert refilled.tuples == {("gcgc",), ("a",)}

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),
                st.frozensets(st.tuples(st.text("acg", max_size=3)), max_size=3),
                st.frozensets(st.tuples(st.text("acg", max_size=3)), max_size=3),
            ),
            max_size=8,
        )
    )
    def test_stats_match_one_pass_at_every_step(self, steps):
        """Each delta derives from the latest version or an older one
        (a sibling of an earlier derivation); every version's statistics
        equal ``compute_stats`` over its live rows."""
        versions = [NGramIndexStorage.build(ROWS, n=2)]
        contents = [frozenset(ROWS)]
        for back, inserts, deletes in steps:
            at = max(len(versions) - 1 - back, 0)
            derived = versions[at].apply_delta(inserts, deletes)
            expected = (contents[at] - deletes) | inserts
            assert derived.tuples == expected
            _check_stats(derived)
            versions.append(derived)
            contents.append(expected)

    def test_net_noop_returns_self(self):
        store = NGramIndexStorage.build(ROWS, n=2)
        assert store.apply_delta(
            frozenset({("gcgc",)}), frozenset()
        ) is store
        assert store.apply_delta(
            frozenset(), frozenset({("zzzz-not-there",)})
        ) is store

    def test_arity_mismatch_raises(self):
        store = NGramIndexStorage.build(ROWS, n=2)
        with pytest.raises(ArityError):
            store.apply_delta(frozenset({("a", "b")}), frozenset())

    def test_mutated_instance_pickles_canonically(self):
        store = NGramIndexStorage.build(ROWS, n=2)
        mutated = store.apply_delta(
            frozenset({("ccgg",)}), frozenset({("ttag",)})
        )
        clone = pickle.loads(pickle.dumps(mutated))
        assert clone.tuples == mutated.tuples
        assert _candidate_rows(clone, 0, "cc") == {("ccgg",)}


class TestStalenessGuard:
    """A mutated artifact-backed index never serves pre-mutation data."""

    def test_overwritten_artifact_falls_back_to_live_postings(self, tmp_path):
        path = tmp_path / "R.ngx"
        NGramIndexStorage.build(ROWS, n=2).write(path)
        opened = NGramIndexStorage.open(path)
        mutated = opened.apply_delta(
            frozenset({("gcaa",)}), frozenset({("gcgc",)})
        )
        # The on-disk artifact changes under the mutated instance.
        NGramIndexStorage.build([("tttt",), ("aaaa",)], n=2).write(path)
        tracer = Tracer()
        with activate(tracer):
            found = _candidate_rows(mutated, 0, "gc")
        assert found == {("gcaa",)}
        assert ("gcgc",) not in found
        assert tracer.counters.get("index.stale_fallback", 0) >= 1
        # Full row access also reflects the delta, not the new artifact.
        assert mutated.tuples == (frozenset(ROWS) | {("gcaa",)}) - {
            ("gcgc",)
        }

    def test_intact_artifact_probes_without_fallback(self, tmp_path):
        path = tmp_path / "R.ngx"
        NGramIndexStorage.build(ROWS, n=2).write(path)
        mutated = NGramIndexStorage.open(path).apply_delta(
            frozenset({("gcaa",)}), frozenset()
        )
        tracer = Tracer()
        with activate(tracer):
            found = _candidate_rows(mutated, 0, "gc")
        assert found >= {("gcgc",), ("gcaa",)}
        assert tracer.counters.get("index.stale_fallback", 0) == 0


class TestDerivedStatistics:
    """A derived version never makes a pass over its rows for its
    statistics when its parent's are known."""

    @pytest.mark.parametrize("storage", ["memory", "ngram"])
    def test_no_pass_after_an_update(self, storage, monkeypatch):
        db = Database(Alphabet("acgt"), {"R2": ROWS}, storage=storage)
        assert db.max_string_length("R2") == 4
        updated = db.apply(
            Delta.of(
                inserts={"R2": [("gcaaaaa",), ("t",)]},
                deletes={"R2": [("ttag",), ("cccc",)]},
            )
        )

        def refuse(rows, arity):
            raise AssertionError("statistics recomputed by a pass")

        monkeypatch.setattr("repro.storage.base.compute_stats", refuse)
        monkeypatch.setattr("repro.storage.ngram.compute_stats", refuse)
        stats = updated.storage("R2").stats()
        assert updated.max_string_length("R2") == 7
        monkeypatch.undo()
        assert stats == compute_stats(
            sorted(updated.storage("R2").scan()), 1
        )
