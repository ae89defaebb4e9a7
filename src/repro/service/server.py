"""The asyncio query daemon: ``repro serve`` behind the scenes.

A :class:`QueryService` owns one database and one
:class:`~repro.service.pool.SessionPool`, accepts newline-delimited
JSON requests over TCP (:mod:`repro.service.protocol`), prices each
query through the :class:`~repro.service.admission.AdmissionController`
before it may occupy a pool slot, and runs the blocking evaluation in
the pool's thread executor under a per-request deadline.

The database is served as one consistent version: ``update`` /
``batch_update`` requests (admission-priced at their operation count,
rejected while draining like any evaluation) run under an *exclusive*
pool lease — every slot held, so no query is in flight while
:meth:`~repro.engine.QueryEngine.apply_delta` swaps the served
database and repairs the materialized answers.  The session caches
are keyed by their inputs, so the update evicts nothing; each query's
plan is replaced when it is next looked up against the new version.
Query bodies snapshot the database reference once, so each request
evaluates entirely against a single version.

Observability: every evaluated request runs under its *own*
:class:`~repro.observability.Tracer`, made ambient in the worker
thread.  The shared session has no tracer of its own, so everything
the request's evaluation records — compiles, plans, naive fallbacks,
pool runs and the spans their workers ship back — lands in it, as it
would in a traced in-process session.  The finished per-request
:class:`~repro.observability.TraceReport` — tagged with the request
id — is appended to the optional ``report_log`` JSON-lines file
and/or handed to the ``on_report`` callback.  The service itself
keeps ``service.*`` counters (requests, per-op counts, admissions,
rejections, deadline expiries, errors) on its own tracer; the
``stats`` op returns them together with the pool occupancy and the
shared session's full cache/engine report.

Failure containment is the design rule: a malformed frame, an
oversized frame, a mid-request disconnect, an expired deadline or a
rejected plan each produce one typed error response (or a dropped
connection) and the accept loop keeps serving.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from time import perf_counter
from typing import Any, AsyncIterator, Callable

from repro.core.database import Database
from repro.core.parser import parse_formula
from repro.core.query import Query
from repro.delta import Delta, DeltaLog
from repro.errors import (
    AdmissionError,
    ParseError,
    ReproError,
    ServiceError,
    ServiceProtocolError,
)
from repro.observability import TraceReport, Tracer, activate, current_tracer
from repro.service.admission import REASON_QUEUE, AdmissionController
from repro.service.pool import DEFAULT_POOL_SIZE, SessionPool
from repro.service.protocol import (
    ERR_ADMISSION,
    ERR_DEADLINE,
    ERR_DRAINING,
    ERR_EVALUATION,
    ERR_FRAME_TOO_LARGE,
    ERR_INTERNAL,
    ERR_MALFORMED,
    ERR_PARSE,
    MAX_FRAME_BYTES,
    MUTATING_OPS,
    PROTOCOL_SCHEMA,
    Request,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
    rows_to_wire,
)

#: Span-retention cap for per-request tracers; a request report stays
#: small even when a cache-cold query compiles many machines.
REQUEST_MAX_SPANS = 512

_READ_CHUNK = 65536


async def _frames(
    reader: asyncio.StreamReader, max_bytes: int
) -> AsyncIterator[tuple[str, bytes]]:
    """Yield ``("frame", line)`` / ``("oversize", b"")`` events.

    Framing is done by hand (rather than ``readline``) so an
    over-limit line degrades into exactly one ``oversize`` event — the
    rest of the line is discarded up to its newline and the connection
    keeps going, instead of the stream reader erroring out.
    """
    buffer = bytearray()
    skipping = False
    while True:
        chunk = await reader.read(_READ_CHUNK)
        at_eof = not chunk
        buffer.extend(chunk)
        while True:
            newline = buffer.find(b"\n")
            if newline < 0:
                break
            line = bytes(buffer[:newline])
            del buffer[: newline + 1]
            if skipping:
                skipping = False
                continue
            if len(line) + 1 > max_bytes:
                yield ("oversize", b"")
                continue
            if line.strip():
                yield ("frame", line)
        if at_eof:
            return
        if not skipping and len(buffer) + 1 > max_bytes:
            buffer.clear()
            skipping = True
            yield ("oversize", b"")


def _positive_int(params: dict, key: str) -> int | None:
    value = params.get(key)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ServiceProtocolError(
            f"{key!r} must be a non-negative integer, got {value!r}"
        )
    return value


class QueryService:
    """A long-running query daemon over one database.

    Args:
        db: The served :class:`~repro.core.database.Database`.
        host: Bind address (default loopback).
        port: TCP port; ``0`` picks a free one (read it back from
            :attr:`address` after :meth:`start`).
        pool_size: Slot count of the :class:`SessionPool`.
        max_cost: Plan-cost admission ceiling (``None`` = unlimited).
        max_queue: Waiting-request cap beyond the running ones.
        default_deadline: Deadline in seconds applied to requests that
            do not carry their own (``None`` = no default).
        max_frame_bytes: Per-frame size limit, both directions.
        default_workers: ``workers`` forwarded to evaluations that do
            not specify it (lets big plans shard via
            :mod:`repro.parallel`).
        report_log: Optional path; one JSON line per evaluated request
            — the :class:`~repro.observability.TraceReport` document
            wrapped as ``{"request": id, "op": ..., "report": {...}}``.
        on_report: Optional callable ``(request_id, op, TraceReport)``
            invoked after every evaluated request.
    """

    def __init__(
        self,
        db: Database,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        pool_size: int = DEFAULT_POOL_SIZE,
        max_cost: float | None = None,
        max_queue: int | None = 64,
        default_deadline: float | None = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        default_workers: int | None = None,
        report_log: str | None = None,
        on_report: Callable[[Any, str, TraceReport], None] | None = None,
    ) -> None:
        self.db = db
        self.host = host
        self.port = port
        self.pool = SessionPool(size=pool_size)
        self.admission = AdmissionController(
            max_cost=max_cost, max_queue=max_queue
        )
        self.default_deadline = default_deadline
        self.max_frame_bytes = max_frame_bytes
        self.default_workers = default_workers
        self.report_log = report_log
        self.on_report = on_report
        #: The service's own counters (``service.*``), plus evaluation
        #: counters absorbed from finished per-request tracers.
        self.tracer = Tracer()
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._draining = False
        # Requests read but not yet answered; drain waits for them.
        self._responding = 0
        self._report_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` pair (final port after start)."""
        return (self.host, self.port)

    async def start(self) -> None:
        """Bind the listening socket and begin accepting connections."""
        if self._server is not None:
            raise ServiceError("service already started")
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (start first)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight work.

        New evaluation requests received while draining get a typed
        ``draining`` error; ``health`` keeps answering (reporting
        ``"draining"``) so load balancers can watch the wind-down.
        Once the pool is idle and the last responses are written,
        every remaining connection is closed.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.pool.drain()
        # A finished evaluation frees its slot before its response is
        # written: give those responses up to a second to go out.
        for _ in range(100):
            if not self._responding:
                break
            await asyncio.sleep(0.01)
        for writer in tuple(self._writers):
            writer.close()
        self._writers.clear()
        pending = tuple(self._conn_tasks)
        if pending:
            done, still_open = await asyncio.wait(pending, timeout=1.0)
            for task in still_open:
                task.cancel()
            if still_open:
                await asyncio.wait(still_open, timeout=1.0)
        self.pool.shutdown()

    # -- connection handling --------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.tracer.add("service.connections")
        # Request/response frames are tiny; without TCP_NODELAY each
        # one stalls on Nagle + delayed ACK (~40ms on loopback).
        raw = writer.get_extra_info("socket")
        if raw is not None:
            try:
                raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            async for kind, line in _frames(reader, self.max_frame_bytes):
                self._responding += 1
                try:
                    if kind == "oversize":
                        self.tracer.add("service.frame_too_large")
                        response = error_response(
                            None,
                            ERR_FRAME_TOO_LARGE,
                            f"frame exceeds the {self.max_frame_bytes}-byte "
                            "limit; the line was discarded",
                            limit=self.max_frame_bytes,
                        )
                    else:
                        response = await self._handle_line(line)
                    await self._send(writer, response)
                finally:
                    self._responding -= 1
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            self.tracer.add("service.disconnects")
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (
                asyncio.CancelledError,
                ConnectionResetError,
                BrokenPipeError,
                OSError,
            ):
                # The connection is being torn down either way; a close
                # that dies mid-handshake (or a loop shutdown that
                # cancels the wait) must not propagate noise.
                pass

    async def _send(
        self, writer: asyncio.StreamWriter, response: dict
    ) -> None:
        try:
            frame = encode_frame(response, self.max_frame_bytes)
        except ServiceProtocolError:
            # A result too large for one frame degrades into a typed
            # error, never a dropped connection.
            self.tracer.add("service.oversize_responses")
            frame = encode_frame(
                error_response(
                    response.get("id"),
                    ERR_FRAME_TOO_LARGE,
                    "response exceeds the frame limit; narrow the query "
                    "or raise the server's max_frame_bytes",
                    limit=self.max_frame_bytes,
                ),
                self.max_frame_bytes,
            )
        writer.write(frame)
        await writer.drain()

    async def _handle_line(self, line: bytes) -> dict:
        try:
            request = parse_request(decode_frame(line))
        except ServiceProtocolError as error:
            self.tracer.add("service.malformed")
            return error_response(None, ERR_MALFORMED, str(error))
        try:
            return await self._dispatch(request)
        except Exception as error:  # pragma: no cover - defensive
            self.tracer.add("service.internal_errors")
            return error_response(
                request.id, ERR_INTERNAL, f"{type(error).__name__}: {error}"
            )

    # -- request dispatch -----------------------------------------------

    async def _dispatch(self, request: Request) -> dict:
        self.tracer.add("service.requests")
        self.tracer.add(f"service.op.{request.op}")
        if request.op == "health":
            return ok_response(request.id, self._health())
        if request.op == "stats":
            return ok_response(request.id, self._stats())
        if self._draining:
            self.tracer.add("service.rejected_draining")
            return error_response(
                request.id,
                ERR_DRAINING,
                "server is draining; no new evaluations are accepted",
            )
        try:
            work = self._build_work(request)
        except ServiceProtocolError as error:
            self.tracer.add("service.malformed")
            return error_response(request.id, ERR_MALFORMED, str(error))
        except ParseError as error:
            self.tracer.add("service.parse_errors")
            return error_response(request.id, ERR_PARSE, str(error))

        deadline = (
            request.deadline
            if request.deadline is not None
            else self.default_deadline
        )
        started = perf_counter()

        # The queue cap only applies when the request would actually
        # wait: with a free slot, max_queue=0 still admits.
        queue_decision = (
            self.admission.assess_queue(self.pool.waiting)
            if self.pool.busy
            else AdmissionController.ADMITTED
        )
        if not queue_decision.admitted:
            self.tracer.add("service.rejected_queue")
            return error_response(
                request.id,
                ERR_ADMISSION,
                "admission queue is full; back off and retry",
                reason=REASON_QUEUE,
                max_queue=self.admission.max_queue,
            )

        def remaining() -> float | None:
            if deadline is None:
                return None
            return deadline - (perf_counter() - started)

        # Mutating ops hold *every* slot while they run, so no
        # evaluation ever observes a half-applied database swap.
        exclusive = request.op in MUTATING_OPS
        acquire = (
            self.pool.acquire_all() if exclusive else self.pool.acquire()
        )
        try:
            await asyncio.wait_for(acquire, remaining())
        except asyncio.TimeoutError:
            self.tracer.add("service.deadline_expired")
            return error_response(
                request.id,
                ERR_DEADLINE,
                f"deadline of {deadline}s expired while waiting for a "
                "pool slot",
                deadline=deadline,
                phase="queue",
            )
        future = (
            self.pool.run_exclusive(work) if exclusive else self.pool.run(work)
        )
        try:
            result = await asyncio.wait_for(future, remaining())
        except asyncio.TimeoutError:
            self.tracer.add("service.deadline_expired")
            return error_response(
                request.id,
                ERR_DEADLINE,
                f"deadline of {deadline}s expired during evaluation; "
                "the request was abandoned (its slot frees when the "
                "evaluation thread finishes)",
                deadline=deadline,
                phase="evaluate",
            )
        except AdmissionError as error:
            self.tracer.add("service.rejected_cost")
            return error_response(
                request.id,
                ERR_ADMISSION,
                str(error),
                reason=error.reason,
                est_cost=error.est_cost,
                max_cost=error.max_cost,
            )
        except ReproError as error:
            self.tracer.add("service.evaluation_errors")
            return error_response(
                request.id,
                ERR_EVALUATION,
                f"{type(error).__name__}: {error}",
            )
        self.tracer.add("service.completed")
        return ok_response(request.id, result)

    # -- op implementations ---------------------------------------------

    def _health(self) -> dict:
        db = self.db
        return {
            "status": "draining" if self._draining else "ok",
            "schema": PROTOCOL_SCHEMA,
            "active": self.pool.active,
            "waiting": self.pool.waiting,
            "pool_size": self.pool.size,
            "relations": list(db.relation_names),
            "lineage": db.lineage,
            "versions": {
                name: db.relation_version(name)
                for name in db.relation_names
            },
        }

    def _stats(self) -> dict:
        report = self.pool.session.trace_report()
        return {
            "schema": PROTOCOL_SCHEMA,
            "service": dict(self.tracer.counters),
            "pool": self.pool.stats(),
            "session": report.to_dict(),
        }

    def _parse_query(self, params: dict) -> tuple[Query, dict]:
        formula_text = params.get("formula")
        if not isinstance(formula_text, str):
            raise ServiceProtocolError("'formula' must be a string")
        head = params.get("head")
        if not isinstance(head, (list, tuple)) or not all(
            isinstance(v, str) for v in head
        ):
            raise ServiceProtocolError("'head' must be a list of variable names")
        formula = parse_formula(formula_text)
        try:
            query = Query(tuple(head), formula, self.db.alphabet)
        except ReproError as error:
            # Head/formula mismatches are request-shape problems, not
            # evaluation failures.
            raise ParseError(str(error)) from error
        options = {
            "length": _positive_int(params, "length"),
            "engine": params.get("engine") or "auto",
            "workers": _positive_int(params, "workers") or self.default_workers,
        }
        if not isinstance(options["engine"], str):
            raise ServiceProtocolError("'engine' must be an engine name")
        return query, options

    def _parse_delta(self, params: dict) -> Delta:
        """Validate ``insert``/``delete`` row mappings into a delta."""
        sides: dict[str, dict[str, list[tuple[str, ...]]]] = {}
        for side in ("insert", "delete"):
            mapping = params.get(side, {})
            if not isinstance(mapping, dict):
                raise ServiceProtocolError(
                    f"{side!r} must map relation names to row lists"
                )
            by_name: dict[str, list[tuple[str, ...]]] = {}
            for name, rows in mapping.items():
                if not isinstance(name, str):
                    raise ServiceProtocolError(
                        "relation names must be strings"
                    )
                if not isinstance(rows, (list, tuple)):
                    raise ServiceProtocolError(
                        f"rows for {name!r} must be a list of rows"
                    )
                parsed = []
                for row in rows:
                    if not isinstance(row, (list, tuple)) or not all(
                        isinstance(value, str) for value in row
                    ):
                        raise ServiceProtocolError(
                            f"every row for {name!r} must be a list of "
                            "strings"
                        )
                    parsed.append(tuple(row))
                by_name[name] = parsed
            sides[side] = by_name
        delta = Delta.of(inserts=sides["insert"], deletes=sides["delete"])
        if delta.is_empty:
            raise ServiceProtocolError(
                "update carries no operations; provide 'insert' and/or "
                "'delete' row mappings"
            )
        # Inserts may create relations; deletes must name existing ones.
        known = set(self.db.relation_names)
        unknown = sorted(
            {name for name, _ in delta.deletes} - known
        )
        if unknown:
            raise ServiceProtocolError(
                f"unknown relation(s): {', '.join(unknown)}"
            )
        return delta

    def _build_work(self, request: Request) -> Callable[[], Any]:
        """Validate the request and close over its blocking evaluation."""
        params = dict(request.params)
        session = self.pool.session
        if request.op == "query":
            query, options = self._parse_query(params)
            return self._make_runner(
                request, lambda: self._run_query(session, query, options)
            )
        if request.op == "explain":
            query, options = self._parse_query(params)

            def do_explain() -> dict:
                from repro.ir.explain import explain_query

                db = self.db
                text = explain_query(
                    session, query, db, length=options["length"]
                )
                return {"text": text}

            return self._make_runner(request, do_explain)
        if request.op == "batch":
            raw = params.get("queries")
            if not isinstance(raw, (list, tuple)) or not raw:
                raise ServiceProtocolError(
                    "'queries' must be a non-empty list of query objects"
                )
            members = []
            for entry in raw:
                if not isinstance(entry, dict):
                    raise ServiceProtocolError(
                        "every batch member must be an object"
                    )
                member = dict(entry)
                for key in ("length", "engine", "workers"):
                    member.setdefault(key, params.get(key))
                members.append(self._parse_query(member))

            def do_batch() -> dict:
                # One snapshot for the whole batch: every member is
                # priced and evaluated against the same version even
                # if an update lands between members.
                db = self.db
                total = 0.0
                priced = True
                for query, options in members:
                    estimate = self.admission.estimate(
                        session, query, db, length=options["length"]
                    )
                    if estimate is None:
                        priced = False
                    else:
                        total += estimate
                if priced:
                    self.admission.assess_cost(total).raise_if_rejected()
                results = []
                for query, options in members:
                    answers = session.evaluate(
                        query,
                        db,
                        length=options["length"],
                        engine=options["engine"],
                        workers=options["workers"],
                    )
                    results.append(rows_to_wire(answers))
                current_tracer().add("service.batch_members", len(members))
                return {"results": results, "est_cost": total}

            return self._make_runner(request, do_batch)
        if request.op == "update":
            delta = self._parse_delta(params)
            return self._make_runner(
                request, lambda: self._run_update(session, delta)
            )
        if request.op == "batch_update":
            raw = params.get("updates")
            if not isinstance(raw, (list, tuple)) or not raw:
                raise ServiceProtocolError(
                    "'updates' must be a non-empty list of update objects"
                )
            log = DeltaLog()
            for entry in raw:
                if not isinstance(entry, dict):
                    raise ServiceProtocolError(
                        "every batch_update member must be an object"
                    )
                log.extend(self._parse_delta(entry))
            delta = log.build()
            return self._make_runner(
                request,
                lambda: self._run_update(session, delta, batched=len(raw)),
            )
        raise ServiceProtocolError(f"unhandled op {request.op!r}")

    def _run_query(self, session, query: Query, options: dict) -> dict:
        # Snapshot once: a concurrent update swaps ``self.db`` only
        # while holding every pool slot, but reading it twice here
        # would still race admission against evaluation.
        db = self.db
        decision = self.admission.assess(
            session, query, db, length=options["length"]
        )
        decision.raise_if_rejected()
        started = perf_counter()
        answers = session.evaluate(
            query,
            db,
            length=options["length"],
            engine=options["engine"],
            workers=options["workers"],
        )
        elapsed = perf_counter() - started
        return {
            "rows": rows_to_wire(answers),
            "engine": options["engine"],
            "est_cost": decision.est_cost,
            "elapsed": elapsed,
            "lineage": db.lineage,
        }

    def _run_update(
        self, session, delta: Delta, batched: int | None = None
    ) -> dict:
        """Apply one (possibly coalesced) delta and swap the served db.

        Runs under the pool's exclusive lease (every slot held), so no
        evaluation is in flight while ``self.db`` changes; queries
        admitted afterwards observe the new version, and the shared
        session's caches and materialized answers have already been
        repaired by :meth:`~repro.engine.QueryEngine.apply_delta`.
        """
        self.admission.assess_cost(float(delta.size)).raise_if_rejected()
        db = self.db
        started = perf_counter()
        updated = session.apply_delta(db, delta)
        self.db = updated
        elapsed = perf_counter() - started
        result: dict[str, Any] = {
            "applied": delta.size,
            "inserted": len(delta.inserts),
            "deleted": len(delta.deletes),
            "lineage": updated.lineage,
            "versions": {
                name: updated.relation_version(name)
                for name in delta.relations()
            },
            "elapsed": elapsed,
        }
        if batched is not None:
            result["updates"] = batched
            current_tracer().add("service.batch_updates", batched)
        return result

    def _make_runner(
        self, request: Request, body: Callable[[], Any]
    ) -> Callable[[], Any]:
        """Wrap an op body with per-request tracing and report emission."""

        def work() -> Any:
            tracer = Tracer(max_spans=REQUEST_MAX_SPANS)
            try:
                with activate(tracer), tracer.span(
                    "service.request",
                    op=request.op,
                    request=str(request.id),
                ):
                    return body()
            finally:
                self._emit_report(request, tracer)

        return work

    def _emit_report(self, request: Request, tracer: Tracer) -> None:
        self.tracer.absorb((), tracer.counters, tracer.gauges)
        if self.on_report is None and self.report_log is None:
            return
        report = TraceReport.build(tracer)
        if self.on_report is not None:
            self.on_report(request.id, request.op, report)
        if self.report_log is not None:
            line = json.dumps(
                {
                    "request": request.id,
                    "op": request.op,
                    "report": report.to_dict(),
                },
                sort_keys=True,
            )
            with self._report_lock, open(
                self.report_log, "a", encoding="utf-8"
            ) as handle:
                handle.write(line + "\n")


# -- running a service off the event loop ------------------------------


class ServiceHandle:
    """A service running on a background thread's event loop.

    Returned by :func:`serve_in_thread`; use :attr:`address` to
    connect a client and :meth:`stop` to drain and join.
    """

    def __init__(
        self,
        service: QueryService,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
        stop_event: asyncio.Event,
    ) -> None:
        self.service = service
        self._loop = loop
        self._thread = thread
        self._stop_event = stop_event

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` of the running service."""
        return self.service.address

    def stop(self, timeout: float = 10.0) -> None:
        """Drain the service and join the background thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout)


def serve_in_thread(db: Database, **kwargs: Any) -> ServiceHandle:
    """Start a :class:`QueryService` on a daemon thread.

    The blocking-world entry point used by tests, benchmarks and the
    handbook examples: the service (with ``port=0`` by default, so a
    free port is picked) runs on a private event loop in a background
    thread until :meth:`ServiceHandle.stop` drains it.

    Args:
        db: The database to serve.
        **kwargs: Forwarded to :class:`QueryService`.

    Returns:
        The :class:`ServiceHandle` once the socket is listening.

    Raises:
        ServiceError: If the service fails to start within 10 seconds.
    """
    started = threading.Event()
    holder: dict[str, Any] = {}

    def runner() -> None:
        async def main() -> None:
            service = QueryService(db, **kwargs)
            try:
                await service.start()
            except Exception as error:
                holder["error"] = error
                started.set()
                return
            stop_event = asyncio.Event()
            holder["service"] = service
            holder["loop"] = asyncio.get_running_loop()
            holder["stop"] = stop_event
            started.set()
            await stop_event.wait()
            await service.drain()

        asyncio.run(main())

    thread = threading.Thread(
        target=runner, name="repro-service-loop", daemon=True
    )
    thread.start()
    if not started.wait(10.0) or "error" in holder:
        error = holder.get("error")
        raise ServiceError(
            f"service failed to start: {error}"
            if error
            else "service did not start within 10s"
        )
    return ServiceHandle(
        holder["service"], holder["loop"], thread, holder["stop"]
    )
