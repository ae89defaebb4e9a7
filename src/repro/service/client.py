"""A blocking stdlib-socket client for the query daemon.

:class:`ServiceClient` speaks the newline-delimited JSON protocol of
:mod:`repro.service.protocol` over one TCP connection, pipelining is
not needed — each call sends one request and reads its one response —
and every server-side error comes back as the typed exception the
rest of the library already uses
(:class:`~repro.errors.AdmissionError`,
:class:`~repro.errors.DeadlineError`,
:class:`~repro.errors.EvaluationError`, …), so calling code handles a
remote rejection exactly like a local one.

The client is deliberately synchronous: the CLI, the tests and the
load benchmark all drive it from plain threads.
"""

from __future__ import annotations

import socket
from typing import Any

from repro.errors import ServiceError, ServiceProtocolError
from repro.service.protocol import (
    DEFAULT_PORT,
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    raise_for_error,
    rows_from_wire,
)


class ServiceClient:
    """One connection to a running :class:`~repro.service.QueryService`.

    Args:
        host: Server address.
        port: Server port (see
            :data:`~repro.service.protocol.DEFAULT_PORT`).
        timeout: Socket timeout in seconds for connect and reads; a
            request expected to run long should also carry an explicit
            ``deadline`` so the server stops it first.
        max_frame_bytes: Frame-size cap mirrored from the server.

    Usable as a context manager; :meth:`close` is idempotent.

    >>> # doctest examples live in docs/service.md
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        timeout: float = 30.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # One-line frames must leave immediately, not sit in Nagle's
        # buffer waiting for the server's delayed ACK.
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    # -- the raw call ---------------------------------------------------

    def call(
        self,
        op: str,
        params: dict[str, Any] | None = None,
        *,
        deadline: float | None = None,
    ) -> Any:
        """Send one request and return its ``result``.

        Args:
            op: The operation name (``query``, ``batch``, ``explain``,
                ``stats``, ``health``, ``update``, ``batch_update``).
            params: The op's parameter object.
            deadline: Optional server-side deadline in seconds.

        Returns:
            The response's ``result`` payload.

        Raises:
            ServiceError: Or the typed subclass mapped from the
                server's error code (admission rejections raise
                :class:`~repro.errors.AdmissionError`, expired
                deadlines :class:`~repro.errors.DeadlineError`, …).
        """
        self._next_id += 1
        request_id = self._next_id
        frame: dict[str, Any] = {"id": request_id, "op": op}
        if params:
            frame["params"] = params
        if deadline is not None:
            frame["deadline"] = deadline
        self._file.write(encode_frame(frame, self.max_frame_bytes))
        self._file.flush()
        line = self._file.readline(self.max_frame_bytes + 2)
        if not line:
            raise ServiceError(
                "server closed the connection without responding"
            )
        payload = decode_frame(line.rstrip(b"\n"))
        if payload.get("id") not in (request_id, None):
            raise ServiceProtocolError(
                f"response id {payload.get('id')!r} does not match "
                f"request id {request_id!r}"
            )
        if payload.get("ok"):
            return payload.get("result")
        raise_for_error(payload.get("error") or {})
        raise ServiceError("unreachable")  # pragma: no cover

    # -- typed operations -----------------------------------------------

    @staticmethod
    def _query_params(
        formula: str,
        head,
        length: int | None,
        engine: str | None,
        workers: int | None,
    ) -> dict[str, Any]:
        params: dict[str, Any] = {"formula": formula, "head": list(head)}
        for key, value in (
            ("length", length),
            ("engine", engine),
            ("workers", workers),
        ):
            if value is not None:
                params[key] = value
        return params

    def query(
        self,
        formula: str,
        head,
        *,
        length: int | None = None,
        engine: str | None = None,
        workers: int | None = None,
        deadline: float | None = None,
    ) -> list[tuple[str, ...]]:
        """Evaluate one query; rows come back sorted, as tuples.

        Args:
            formula: The formula in the concrete syntax of
                :mod:`repro.core.parser`.
            head: The answer variables, in order.
            length: Explicit truncation bound (``None`` = certified).
            engine: Engine name (``None`` = server default).
            workers: Worker processes for sharded evaluation.
            deadline: Server-side deadline in seconds.

        Returns:
            The sorted answer rows — exactly
            ``sorted(QueryEngine().evaluate(...))`` run server-side.
        """
        result = self.call(
            "query",
            self._query_params(formula, head, length, engine, workers),
            deadline=deadline,
        )
        return rows_from_wire(result["rows"])

    def batch(
        self,
        queries,
        *,
        length: int | None = None,
        engine: str | None = None,
        workers: int | None = None,
        deadline: float | None = None,
    ) -> list[list[tuple[str, ...]]]:
        """Evaluate several ``(formula, head)`` pairs in one request.

        The members share the server session's caches *and* one
        admission decision (the summed cost estimate).

        Args:
            queries: An iterable of ``(formula, head)`` pairs.
            length: Shared truncation bound for every member.
            engine: Shared engine name.
            workers: Shared worker count.
            deadline: Server-side deadline for the whole batch.

        Returns:
            One sorted row list per member, in order.
        """
        params: dict[str, Any] = {
            "queries": [
                {"formula": formula, "head": list(head)}
                for formula, head in queries
            ]
        }
        for key, value in (
            ("length", length),
            ("engine", engine),
            ("workers", workers),
        ):
            if value is not None:
                params[key] = value
        result = self.call("batch", params, deadline=deadline)
        return [rows_from_wire(rows) for rows in result["results"]]

    def explain(
        self,
        formula: str,
        head,
        *,
        length: int | None = None,
        deadline: float | None = None,
    ) -> str:
        """The server-side ``--explain`` text for one query."""
        result = self.call(
            "explain",
            self._query_params(formula, head, length, None, None),
            deadline=deadline,
        )
        return result["text"]

    @staticmethod
    def _delta_params(insert, delete) -> dict[str, Any]:
        params: dict[str, Any] = {}
        for key, mapping in (("insert", insert), ("delete", delete)):
            if mapping:
                params[key] = {
                    name: [list(row) for row in rows]
                    for name, rows in mapping.items()
                }
        return params

    def update(
        self,
        *,
        insert=None,
        delete=None,
        deadline: float | None = None,
    ) -> dict[str, Any]:
        """Apply one delta to the served database.

        The server holds every pool slot while applying, so clients
        never observe a half-applied update; the result reports the
        new per-relation version counters.

        Args:
            insert: ``{relation: rows}`` to add (rows are sequences of
                strings).
            delete: ``{relation: rows}`` to remove.
            deadline: Server-side deadline in seconds (queue wait plus
                application).

        Returns:
            The result object: ``applied`` / ``inserted`` / ``deleted``
            operation counts, the new ``lineage`` and the per-relation
            ``versions`` of every touched relation.
        """
        return self.call(
            "update", self._delta_params(insert, delete), deadline=deadline
        )

    def batch_update(
        self, updates, *, deadline: float | None = None
    ) -> dict[str, Any]:
        """Apply several deltas atomically, coalesced to one net delta.

        Members apply in order with last-op-wins semantics (an insert
        followed by a delete of the same row nets to the delete), and
        the coalesced delta is applied as a single exclusive update.

        Args:
            updates: An iterable of ``{"insert": ..., "delete": ...}``
                objects, each shaped like :meth:`update`'s arguments.
            deadline: Server-side deadline in seconds.

        Returns:
            The result object, as for :meth:`update`, plus the member
            count under ``updates``.
        """
        members = [
            self._delta_params(entry.get("insert"), entry.get("delete"))
            for entry in updates
        ]
        return self.call(
            "batch_update", {"updates": members}, deadline=deadline
        )

    def stats(self) -> dict[str, Any]:
        """Service counters, pool occupancy and the session report."""
        return self.call("stats")

    def health(self) -> dict[str, Any]:
        """The liveness document (``status``, pool occupancy, schema)."""
        return self.call("health")

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._file.close()
        except OSError:  # pragma: no cover - already gone
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "ServiceClient":
        """Enter: the client itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Exit: close the connection."""
        self.close()
