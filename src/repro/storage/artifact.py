"""The on-disk n-gram index artifact: struct-packed, mmap'd, versioned.

An artifact is a single immutable file holding one relation plus its
n-gram indexes.  It is written once (`pack` + `write_artifact`) and
then memory-mapped read-only by any number of sessions or worker
processes (`ArtifactReader`) — the OS page cache makes concurrent opens
effectively free, which is how parallel workers share one index without
pickling tuple sets.

The posting format is the one :func:`build_postings` produces for every
n-gram index, in memory or on disk: per column, each gram's sorted ids
of the rows whose value holds it, one entry per (row, distinct gram).

Layout (all integers little-endian)::

    header   <8s H H H H I Q 20s 20s>
             magic  version  n  arity  reserved  row_count
             payload_len  payload_sha1  content_sha1
    payload  stats | cell offsets | cell blob | gram directories | postings

* **stats** — per column: ``<I Q I I I>`` (distinct, total_chars,
  min_len, max_len, histogram entries) then ``<I I>`` pairs.
* **cell offsets** — ``row_count·arity + 1`` ``uint32`` byte offsets
  into the cell blob; cell ``i`` is ``blob[o[i]:o[i+1]]`` (UTF-8).
* **gram directories** — per column: ``<I>`` gram count, then per gram
  (sorted): ``<H>`` byte length, the UTF-8 gram, ``<I>`` posting
  count, ``<Q>`` payload-relative posting offset.
* **postings** — per gram, its ``<I>`` row ids in ascending order.

``payload_sha1`` detects corruption at open time; ``content_sha1``
fingerprints the (rows, n) content so ``NGramIndexStorage.ensure`` can
tell whether an existing artifact is still current without rebuilding.
Version 2 is the row-id posting format; a version-1 file is refused at
open, so ``ensure`` rebuilds it.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
import sys
from array import array
from collections import defaultdict
from collections.abc import Sequence
from functools import partial
from pathlib import Path

from repro.errors import ArtifactError
from repro.storage.base import ColumnStats, RelationStats

#: The artifact file magic — first 8 bytes of every valid artifact.
MAGIC = b"RPRNGIDX"

#: The current artifact format version; bump on any layout change.
VERSION = 2

_HEADER = struct.Struct("<8sHHHHIQ20s20s")
_STATS_HEAD = struct.Struct("<IQIII")
_PAIR = struct.Struct("<II")
_CELL_SPAN = struct.Struct("<II")
_DIR_COUNT = struct.Struct("<I")
_GRAM_HEAD = struct.Struct("<H")
_GRAM_TAIL = struct.Struct("<IQ")
#: The ``array`` type code of a row id: 4-byte unsigned.
_ROW_ID = "I"
_ROW_ID_SIZE = 4
_SWAP = sys.byteorder != "little"

#: The postings of a gram no row holds (shared, so never mutated).
NO_ROWS = array(_ROW_ID)


def content_fingerprint(rows: tuple[tuple[str, ...], ...], n: int) -> bytes:
    """The 20-byte SHA-1 fingerprint of canonical ``(rows, n)`` content.

    Args:
        rows: The relation's tuples in canonical (sorted) order.
        n: The gram size the index was built with.

    Returns:
        The digest ``ensure`` compares against a stored artifact's.
    """
    digest = hashlib.sha1(n.to_bytes(4, "little"))
    for row in rows:
        for cell in row:
            digest.update(cell.encode("utf-8"))
            digest.update(b"\x1f")
        digest.update(b"\x1e")
    return digest.digest()


def build_postings(
    rows: Sequence[tuple[str, ...]], n: int, arity: int, first: int = 0
) -> list[dict[str, array]]:
    """The posting format: per column, each gram's sorted row ids.

    Row ``rows[i]`` has id ``first + i`` and is listed once under each
    distinct ``n``-gram of its value, so every array ascends.  This is
    the only builder of postings: in-memory indexes, artifacts, stale
    fallbacks and the rows a delta appends all use it.

    Args:
        rows: The tuples, in row-id order.
        n: The gram size.
        arity: The column count.
        first: The id of ``rows[0]``.

    Returns:
        One ``{gram: array('I')}`` map per column.
    """
    columns = []
    for column in range(arity):
        postings: defaultdict[str, array] = defaultdict(
            partial(array, _ROW_ID)
        )
        for row_id, row in enumerate(rows, first):
            value = row[column]
            for gram in {
                value[start : start + n]
                for start in range(len(value) - n + 1)
            }:
                postings[gram].append(row_id)
        columns.append(dict(postings))
    return columns


def pack(
    rows: tuple[tuple[str, ...], ...],
    n: int,
    stats: RelationStats,
) -> bytes:
    """Serialize a relation plus its indexes into artifact bytes.

    Args:
        rows: The tuples in canonical (sorted) order; all one arity.
        n: The gram size.
        stats: Precomputed statistics for the rows.

    Returns:
        The complete artifact file content.
    """
    arity = stats.arity
    # -- stats section
    stats_parts: list[bytes] = []
    for column_stats in stats.columns:
        stats_parts.append(
            _STATS_HEAD.pack(
                column_stats.distinct,
                column_stats.total_chars,
                column_stats.min_length,
                column_stats.max_length,
                len(column_stats.length_histogram),
            )
        )
        for length, count in column_stats.length_histogram:
            stats_parts.append(_PAIR.pack(length, count))
    stats_bytes = b"".join(stats_parts)
    # -- cell offsets + blob
    encoded: list[bytes] = []
    offsets = [0]
    for row in rows:
        for cell in row:
            data = cell.encode("utf-8")
            encoded.append(data)
            offsets.append(offsets[-1] + len(data))
    offsets_bytes = struct.pack(f"<{len(offsets)}I", *offsets)
    blob = b"".join(encoded)
    # -- gram directories + postings (two-pass: sizes before offsets)
    per_column = [
        sorted(postings.items())
        for postings in build_postings(rows, n, arity)
    ]
    directory_size = sum(
        _DIR_COUNT.size
        + sum(
            _GRAM_HEAD.size + len(gram.encode("utf-8")) + _GRAM_TAIL.size
            for gram, _ in column
        )
        for column in per_column
    )
    postings_base = (
        len(stats_bytes) + len(offsets_bytes) + len(blob) + directory_size
    )
    directory_parts: list[bytes] = []
    posting_parts: list[bytes] = []
    cursor = postings_base
    for column in per_column:
        directory_parts.append(_DIR_COUNT.pack(len(column)))
        for gram, ids in column:
            gram_bytes = gram.encode("utf-8")
            directory_parts.append(_GRAM_HEAD.pack(len(gram_bytes)))
            directory_parts.append(gram_bytes)
            directory_parts.append(_GRAM_TAIL.pack(len(ids), cursor))
            if _SWAP:
                ids = array(_ROW_ID, ids)
                ids.byteswap()
            posting_parts.append(ids.tobytes())
            cursor += len(ids) * _ROW_ID_SIZE
    payload = b"".join(
        [stats_bytes, offsets_bytes, blob, *directory_parts, *posting_parts]
    )
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        n,
        arity,
        0,
        len(rows),
        len(payload),
        hashlib.sha1(payload).digest(),
        content_fingerprint(rows, n),
    )
    return header + payload


def read_content_sha(path: "str | os.PathLike[str]") -> bytes:
    """Read the content fingerprint from an artifact's header, fresh.

    Unlike :class:`ArtifactReader` this re-reads the file on every
    call — it is the staleness probe :class:`~repro.storage.ngram
    .NGramIndexStorage` uses after a mutation to detect that the
    on-disk artifact no longer matches the content its postings were
    derived from.

    Args:
        path: The artifact file path.

    Returns:
        The 20-byte ``content_sha1`` from the header.

    Raises:
        ArtifactError: If the file is missing, too small, or not an
            artifact of the current version.
    """
    try:
        with open(path, "rb") as handle:
            header = handle.read(_HEADER.size)
    except OSError as error:
        raise ArtifactError(f"cannot open artifact: {error}") from None
    if len(header) < _HEADER.size:
        raise ArtifactError(
            f"{path} is too small to be an artifact ({len(header)} bytes)"
        )
    magic, version, *_rest, content_sha = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ArtifactError(f"{path} is not an n-gram artifact (bad magic)")
    if version != VERSION:
        raise ArtifactError(
            f"{path} has artifact version {version}, "
            f"this build reads version {VERSION}"
        )
    return content_sha


def write_artifact(path: "str | os.PathLike[str]", data: bytes) -> None:
    """Write artifact bytes atomically (write-temp-then-rename).

    Args:
        path: The destination file path.
        data: Bytes produced by :func:`pack`.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temporary = target.with_name(target.name + f".tmp{os.getpid()}")
    temporary.write_bytes(data)
    os.replace(temporary, target)


class ArtifactReader:
    """A verified, memory-mapped view of one artifact file.

    Opening validates the magic, version and payload checksum, then
    parses the (tiny) stats and gram-directory sections eagerly; cell
    text and posting arrays are decoded lazily straight off the map.

    Raises :class:`~repro.errors.ArtifactError` for anything that is
    not a well-formed current-version artifact.
    """

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.path = Path(path)
        try:
            file = open(self.path, "rb")
        except OSError as error:
            raise ArtifactError(f"cannot open artifact: {error}") from None
        # The map keeps its own duplicate of the descriptor, so the
        # file closes as soon as it is mapped.
        with file:
            size = os.fstat(file.fileno()).st_size
            if size < _HEADER.size:
                raise ArtifactError(
                    f"{self.path} is too small to be an artifact "
                    f"({size} bytes)"
                )
            self._map = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        self._parse(size)

    def _parse(self, size: int) -> None:
        (
            magic,
            version,
            self.n,
            self.arity,
            _reserved,
            self.row_count,
            payload_length,
            payload_sha,
            self.content_sha,
        ) = _HEADER.unpack_from(self._map, 0)
        if magic != MAGIC:
            raise ArtifactError(
                f"{self.path} is not an n-gram artifact (bad magic)"
            )
        if version != VERSION:
            raise ArtifactError(
                f"{self.path} has artifact version {version}, "
                f"this build reads version {VERSION}"
            )
        if _HEADER.size + payload_length != size:
            raise ArtifactError(
                f"{self.path} is truncated or padded: header declares "
                f"{payload_length} payload bytes, file holds "
                f"{size - _HEADER.size}"
            )
        payload = memoryview(self._map)[_HEADER.size :]
        if hashlib.sha1(payload).digest() != payload_sha:
            raise ArtifactError(f"{self.path} failed its checksum")
        self._payload = payload
        try:
            cursor = self._parse_stats()
            cursor = self._parse_offsets(cursor)
            self._parse_directories(cursor)
        except (struct.error, IndexError, UnicodeDecodeError) as error:
            raise ArtifactError(
                f"{self.path} payload is malformed: {error}"
            ) from None

    def _parse_stats(self) -> int:
        cursor = 0
        columns = []
        for _ in range(self.arity):
            distinct, total, low, high, entries = _STATS_HEAD.unpack_from(
                self._payload, cursor
            )
            cursor += _STATS_HEAD.size
            histogram = []
            for _ in range(entries):
                histogram.append(_PAIR.unpack_from(self._payload, cursor))
                cursor += _PAIR.size
            columns.append(
                ColumnStats(distinct, total, low, high, tuple(histogram))
            )
        self.stats = RelationStats(self.row_count, self.arity, tuple(columns))
        return cursor

    def _parse_offsets(self, cursor: int) -> int:
        self._offsets_base = cursor
        cells = self.row_count * self.arity
        cursor += (cells + 1) * 4
        (blob_length,) = struct.unpack_from(
            "<I", self._payload, self._offsets_base + cells * 4
        )
        self._blob_base = cursor
        return cursor + blob_length

    def _parse_directories(self, cursor: int) -> None:
        self._directories: list[dict[str, tuple[int, int]]] = []
        for _ in range(self.arity):
            (gram_count,) = _DIR_COUNT.unpack_from(self._payload, cursor)
            cursor += _DIR_COUNT.size
            directory: dict[str, tuple[int, int]] = {}
            for _ in range(gram_count):
                (gram_length,) = _GRAM_HEAD.unpack_from(self._payload, cursor)
                cursor += _GRAM_HEAD.size
                gram = bytes(
                    self._payload[cursor : cursor + gram_length]
                ).decode("utf-8")
                cursor += gram_length
                count, offset = _GRAM_TAIL.unpack_from(self._payload, cursor)
                cursor += _GRAM_TAIL.size
                directory[gram] = (count, offset)
            self._directories.append(directory)

    def cell(self, index: int) -> str:
        """Decode flat cell ``index`` (``row · arity + column``)."""
        start, end = _CELL_SPAN.unpack_from(
            self._payload, self._offsets_base + index * 4
        )
        return bytes(
            self._payload[self._blob_base + start : self._blob_base + end]
        ).decode("utf-8")

    def row(self, row_id: int) -> tuple[str, ...]:
        """Decode the full tuple with id ``row_id``."""
        base = row_id * self.arity
        return tuple(self.cell(base + column) for column in range(self.arity))

    def grams(self, column: int) -> tuple[str, ...]:
        """The sorted grams indexed for ``column``."""
        return tuple(sorted(self._directories[column]))

    def postings(self, column: int, gram: str) -> array:
        """The sorted ids of the rows whose ``column`` value holds ``gram``.

        Read off the map in one call; empty for grams that never occur.
        """
        entry = self._directories[column].get(gram)
        if entry is None:
            return NO_ROWS
        count, offset = entry
        ids = array(_ROW_ID)
        ids.frombytes(self._payload[offset : offset + count * _ROW_ID_SIZE])
        if _SWAP:
            ids.byteswap()
        return ids

    def close(self) -> None:
        """Release the payload view and the map (idempotent)."""
        payload = getattr(self, "_payload", None)
        if payload is not None:
            payload.release()  # the map cannot close while exported
            self._payload = None
        self._map.close()

    def __repr__(self) -> str:
        return (
            f"ArtifactReader({str(self.path)!r}, {self.row_count} rows, "
            f"n={self.n})"
        )
