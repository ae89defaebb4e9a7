"""Failure containment: every protocol abuse gets one typed error.

The design rule under test: malformed JSON, oversized frames,
mid-request disconnects, expired deadlines and rejected plans each
produce a machine-readable error response — and the accept loop keeps
serving afterwards.  Every test ends by proving the server still
answers a healthy request.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.errors import (
    AdmissionError,
    DeadlineError,
    EvaluationError,
    ParseError,
    ServiceError,
    ServiceProtocolError,
)
from repro.service import (
    QueryService,
    ServiceClient,
    serve_in_thread,
)
from repro.service.protocol import (
    ERR_DRAINING,
    ERR_EVALUATION,
    ERR_FRAME_TOO_LARGE,
    ERR_MALFORMED,
    PROTOCOL_SCHEMA,
)


def raw_exchange(address, payload_bytes, count=1):
    """Send raw bytes, read ``count`` response lines, close."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(payload_bytes)
        reader = sock.makefile("rb")
        return [
            json.loads(reader.readline().decode("utf-8"))
            for _ in range(count)
        ]


def assert_alive(client):
    """The server must still answer after whatever the test did."""
    assert client.health()["status"] == "ok"
    assert client.query("R2(x)", ["x"], length=3) == [
        ("a",), ("ab",), ("b",)
    ]


class TestHappyPath:
    def test_health_document(self, server):
        _, client = server
        doc = client.health()
        assert doc["schema"] == PROTOCOL_SCHEMA
        assert doc["status"] == "ok"
        assert doc["relations"] == ["R1", "R2"]
        assert doc["pool_size"] >= 1

    def test_query_result_metadata(self, server):
        _, client = server
        result = client.call(
            "query",
            {"formula": "R2(x)", "head": ["x"], "length": 3},
        )
        assert result["rows"] == [["a"], ["ab"], ["b"]]
        assert result["engine"] == "auto"
        assert result["elapsed"] >= 0
        assert result["est_cost"] is None or result["est_cost"] > 0

    def test_params_the_server_does_not_read_are_ignored(self, server):
        # Older clients still send a ``shards`` hint; it changes nothing.
        _, client = server
        params = {"formula": "R2(x)", "head": ["x"], "length": 3}
        for extra in ({"shards": 3}, {"workers": 2, "shards": 1}):
            result = client.call("query", {**params, **extra})
            assert result["rows"] == [["a"], ["ab"], ["b"]]
        (members,) = client.call(
            "batch", {"queries": [params], "shards": 3}
        )["results"]
        assert members == [["a"], ["ab"], ["b"]]

    def test_explain(self, server):
        _, client = server
        text = client.explain("R2(x)", ["x"], length=3)
        assert "R2" in text

    def test_batch_preserves_order(self, server):
        _, client = server
        results = client.batch(
            [("R1(x, y)", ["x", "y"]), ("R2(x)", ["x"])], length=3
        )
        assert results == [
            [("a", "ab"), ("b", "ba")],
            [("a",), ("ab",), ("b",)],
        ]

    def test_stats_counters_accumulate(self, server):
        _, client = server
        client.query("R2(x)", ["x"], length=3)
        stats = client.stats()
        assert stats["service"]["service.requests"] >= 2
        assert stats["service"]["service.completed"] >= 1
        assert stats["pool"]["served"] >= 1
        assert stats["session"]["schema"] == "repro.trace-report/3"

    def test_correlation_ids_echo_verbatim(self, server):
        handle, client = server
        responses = raw_exchange(
            handle.address,
            b'{"id": "alpha", "op": "health"}\n'
            b'{"id": 42, "op": "health"}\n',
            count=2,
        )
        assert [r["id"] for r in responses] == ["alpha", 42]


class TestProtocolAbuse:
    def test_malformed_json_gets_typed_error(self, server):
        handle, client = server
        (response,) = raw_exchange(handle.address, b"this is not json\n")
        assert response["ok"] is False
        assert response["error"]["code"] == ERR_MALFORMED
        assert_alive(client)

    def test_non_object_frame(self, server):
        handle, client = server
        (response,) = raw_exchange(handle.address, b"[1, 2, 3]\n")
        assert response["error"]["code"] == ERR_MALFORMED
        assert_alive(client)

    def test_unknown_op(self, server):
        handle, client = server
        (response,) = raw_exchange(
            handle.address, b'{"id": 1, "op": "telepathy"}\n'
        )
        assert response["error"]["code"] == ERR_MALFORMED
        assert "telepathy" in response["error"]["message"]
        assert_alive(client)

    def test_bad_param_shapes(self, server):
        _, client = server
        with pytest.raises(ServiceProtocolError):
            client.call("query", {"formula": 7, "head": ["x"]})
        with pytest.raises(ServiceProtocolError):
            client.call("query", {"formula": "R2(x)", "head": "x"})
        with pytest.raises(ServiceProtocolError):
            client.call(
                "query",
                {"formula": "R2(x)", "head": ["x"], "length": -2},
            )
        assert_alive(client)

    def test_unparsable_formula(self, server):
        _, client = server
        with pytest.raises(ParseError):
            client.query("R2(x", ["x"], length=3)
        assert_alive(client)

    def test_head_formula_mismatch(self, server):
        _, client = server
        with pytest.raises(ParseError):
            client.query("R2(x)", ["zzz"], length=3)
        assert_alive(client)

    def test_removed_engine_names_are_evaluation_errors(self, server):
        handle, client = server
        for name in ("planner", "parallel"):
            frame = {
                "id": name,
                "op": "query",
                "params": {
                    "formula": "R2(x)",
                    "head": ["x"],
                    "length": 3,
                    "engine": name,
                },
            }
            (response,) = raw_exchange(
                handle.address, json.dumps(frame).encode("utf-8") + b"\n"
            )
            assert response["ok"] is False
            error = response["error"]
            assert error["code"] == ERR_EVALUATION
            assert f"unknown engine {name!r}" in error["message"]
            assert "(available: algebra, auto, naive)" in error["message"]
        assert_alive(client)

    def test_evaluation_error_is_typed(self, server):
        _, client = server
        # Unpriceable and uncertifiable: admitted, then fails inside
        # evaluation with a typed error, not a dead connection.
        with pytest.raises(EvaluationError):
            client.query("!R2(x)", ["x"])
        assert_alive(client)

    def test_unbounded_generation_error_is_named_at_two_workers(self):
        # At length 30 both formulas generate tapes unconstrained
        # beyond 'a'; the second ships its 32 bindings to the pool.
        from itertools import product

        from repro.core.alphabet import AB
        from repro.core.database import Database

        rows = [("".join(p),) for p in product("ab", repeat=5)]
        handle = serve_in_thread(Database(AB, {"R2": rows}))
        try:
            for formula in (
                "[x]l(x = 'a')",
                "exists y: R2(y) & [x,y]l(x = y)",
            ):
                messages = set()
                for workers in (1, 2):
                    frame = {
                        "id": workers,
                        "op": "query",
                        "params": {
                            "formula": formula,
                            "head": ["x"],
                            "length": 30,
                            "workers": workers,
                        },
                    }
                    (response,) = raw_exchange(
                        handle.address,
                        json.dumps(frame).encode("utf-8") + b"\n",
                    )
                    assert response["error"]["code"] == ERR_EVALUATION
                    messages.add(response["error"]["message"])
                assert messages == {
                    "UnboundedQueryError: an accepted tape is "
                    "unconstrained beyond 'a'; materializing Σ^<=29 "
                    "extensions is infeasible — the query does not "
                    "limit this output"
                }, formula
        finally:
            handle.stop()


class TestFrameLimits:
    @pytest.fixture()
    def small_frame_server(self, db):
        handle = serve_in_thread(db, max_frame_bytes=512)
        client = ServiceClient(
            *handle.address, max_frame_bytes=512
        )
        yield handle, client
        client.close()
        handle.stop()

    def test_oversized_request_line_degrades_gracefully(
        self, small_frame_server
    ):
        handle, client = small_frame_server
        blob = b'{"op": "health", "pad": "' + b"x" * 2048 + b'"}\n'
        (response,) = raw_exchange(handle.address, blob)
        assert response["error"]["code"] == ERR_FRAME_TOO_LARGE
        assert response["error"]["limit"] == 512
        assert_alive(client)

    def test_frames_after_an_oversized_line_still_parse(
        self, small_frame_server
    ):
        handle, client = small_frame_server
        blob = (
            b'{"op": "health", "pad": "' + b"x" * 2048 + b'"}\n'
            b'{"id": 2, "op": "health"}\n'
        )
        first, second = raw_exchange(handle.address, blob, count=2)
        assert first["error"]["code"] == ERR_FRAME_TOO_LARGE
        assert second["ok"] is True
        assert second["id"] == 2

    def test_oversized_response_degrades_into_typed_error(self, db):
        # A 60-row relation: the request frame is tiny, the answer
        # cannot fit a 256-byte frame.
        from itertools import product

        from repro.core.alphabet import AB
        from repro.core.database import Database

        strings = [
            "".join(parts)
            for k in range(4)
            for parts in product("ab", repeat=k)
        ]
        pairs = list(product(strings, strings))[:60]
        wide = Database(AB, {"R2": [("a",)], "R3": pairs})
        handle = serve_in_thread(wide, max_frame_bytes=256)
        try:
            with ServiceClient(
                *handle.address, max_frame_bytes=256
            ) as client:
                with pytest.raises(
                    ServiceProtocolError, match=ERR_FRAME_TOO_LARGE
                ):
                    client.query("R3(x, y)", ["x", "y"], length=3)
                # the connection survived the degradation
                assert client.query("R2(x)", ["x"], length=1) == [("a",)]
        finally:
            handle.stop()


class TestDisconnects:
    def test_partial_line_then_disconnect(self, server):
        handle, client = server
        with socket.create_connection(handle.address, timeout=5.0) as sock:
            sock.sendall(b'{"id": 1, "op": "que')  # no newline, vanish
        assert_alive(client)

    def test_disconnect_without_reading_response(self, server):
        handle, client = server
        with socket.create_connection(handle.address, timeout=5.0) as sock:
            sock.sendall(
                b'{"id": 1, "op": "query", "params": '
                b'{"formula": "R2(x)", "head": ["x"], "length": 3}}\n'
            )
            # close immediately; the server writes into the void
        assert_alive(client)

    def test_abrupt_reset_mid_request(self, server):
        handle, client = server
        sock = socket.create_connection(handle.address, timeout=5.0)
        sock.sendall(b'{"id": 1, "op": "health"}\n')
        # RST instead of FIN
        sock.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_LINGER,
            b"\x01\x00\x00\x00\x00\x00\x00\x00",
        )
        sock.close()
        assert_alive(client)


class TestDeadlines:
    @pytest.fixture()
    def slow_server(self, db, sleepy_engine):
        handle = serve_in_thread(db, pool_size=1, max_queue=1)
        client = ServiceClient(*handle.address)
        yield handle, client
        client.close()
        handle.stop()

    def test_deadline_expires_during_evaluation(
        self, slow_server, sleepy_engine
    ):
        _, client = slow_server
        with pytest.raises(DeadlineError, match="during evaluation"):
            client.query(
                "R2(x)", ["x"], length=3,
                engine=sleepy_engine, deadline=0.1,
            )
        assert_alive(client)

    def test_deadline_expires_waiting_for_a_slot(
        self, slow_server, sleepy_engine
    ):
        handle, client = slow_server

        def occupy():
            with ServiceClient(*handle.address) as other:
                other.query(
                    "R2(x)", ["x"], length=3, engine=sleepy_engine
                )

        hog = threading.Thread(target=occupy)
        hog.start()
        try:
            _wait_for_busy(handle.service)
            with pytest.raises(DeadlineError, match="pool slot"):
                client.query(
                    "R2(x)", ["x"], length=3,
                    engine=sleepy_engine, deadline=0.1,
                )
        finally:
            hog.join()
        assert_alive(client)

    def test_queue_full_rejection(self, slow_server, sleepy_engine):
        handle, client = slow_server
        hogs = []

        def occupy():
            with ServiceClient(*handle.address) as other:
                try:
                    other.query(
                        "R2(x)", ["x"], length=3, engine=sleepy_engine
                    )
                except (AdmissionError, ServiceError):
                    pass

        # Fill the single slot and the single queue seat.
        for _ in range(2):
            hog = threading.Thread(target=occupy)
            hog.start()
            hogs.append(hog)
        try:
            _wait_for_queue(handle.service)
            with pytest.raises(AdmissionError) as info:
                client.query(
                    "R2(x)", ["x"], length=3, engine=sleepy_engine
                )
            assert info.value.reason == "queue-full"
        finally:
            for hog in hogs:
                hog.join()
        assert_alive(client)


def _wait_for_busy(service, timeout=5.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.pool.busy:
            return
        time.sleep(0.01)
    raise AssertionError("pool never became busy")


def _wait_for_queue(service, timeout=5.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.pool.busy and service.pool.waiting >= 1:
            return
        time.sleep(0.01)
    raise AssertionError("queue never filled")


class TestAdmission:
    def test_cost_rejection_carries_numbers(self, db):
        handle = serve_in_thread(db, max_cost=0.5)
        try:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(AdmissionError) as info:
                    client.query("R2(x)", ["x"], length=3)
                assert info.value.reason == "cost-exceeded"
                assert info.value.est_cost > 0.5
                assert info.value.max_cost == 0.5
                # health and stats stay reachable under rejection
                assert client.health()["status"] == "ok"
        finally:
            handle.stop()

    def test_batch_is_priced_as_a_whole(self, db):
        handle = serve_in_thread(db, max_cost=0.5)
        try:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(AdmissionError):
                    client.batch(
                        [("R2(x)", ["x"]), ("R2(x)", ["x"])], length=3
                    )
        finally:
            handle.stop()


class TestDraining:
    def test_draining_rejects_new_work_but_answers_health(self, db):
        async def scenario():
            service = QueryService(db)
            await service.start()
            service._draining = True
            request_line = json.dumps({
                "id": 1, "op": "query",
                "params": {
                    "formula": "R2(x)", "head": ["x"], "length": 3
                },
            }).encode("utf-8")
            response = await service._handle_line(request_line)
            health = await service._handle_line(
                b'{"id": 2, "op": "health"}'
            )
            await service.drain()
            return response, health

        response, health = asyncio.run(scenario())
        assert response["error"]["code"] == ERR_DRAINING
        assert health["ok"] is True
        assert health["result"]["status"] == "draining"

    def test_drain_is_graceful_for_inflight_work(
        self, db, sleepy_engine
    ):
        # One slot, so the in-flight query is visible as pool.busy.
        handle = serve_in_thread(db, pool_size=1)
        client = ServiceClient(*handle.address)
        results = {}

        def slow_query():
            results["rows"] = client.query(
                "R2(x)", ["x"], length=3, engine=sleepy_engine
            )

        worker = threading.Thread(target=slow_query)
        worker.start()
        _wait_for_busy(handle.service)
        handle.stop()  # drain must wait for the in-flight evaluation
        worker.join(timeout=10.0)
        client.close()
        assert results["rows"] == []


class TestReports:
    def test_report_log_records_request_ids(self, db, tmp_path):
        log = tmp_path / "reports.jsonl"
        handle = serve_in_thread(db, report_log=str(log))
        try:
            with ServiceClient(*handle.address) as client:
                client.query("R2(x)", ["x"], length=3)
                client.explain("R2(x)", ["x"], length=3)
        finally:
            handle.stop()
        lines = [
            json.loads(line)
            for line in log.read_text().splitlines()
        ]
        assert [entry["op"] for entry in lines] == ["query", "explain"]
        assert all(
            entry["report"]["schema"] == "repro.trace-report/3"
            for entry in lines
        )
        # Correlation ids (the client counts from 1) ride along.
        assert [entry["request"] for entry in lines] == [1, 2]

    def test_on_report_callback_sees_cold_compile_spans(self, db):
        seen = []
        handle = serve_in_thread(
            db, on_report=lambda rid, op, report: seen.append(report)
        )
        try:
            with ServiceClient(*handle.address) as client:
                client.query("R2(x)", ["x"], length=3)
        finally:
            handle.stop()
        assert len(seen) == 1
        # The cold request's own tracer captured the ambient spans.
        assert len(seen[0].spans) >= 1
        names = {record.name for record in seen[0].spans}
        assert "service.request" in names


class TestPlanCache:
    def test_updates_leave_one_plan_per_query(self, db):
        # Admission prices every request (one plan lookup) before the
        # evaluation looks the plan up again.  Each update lengthens
        # R2's longest string, so the certified cap moves with the
        # statistics; the session must still keep one plan per query.
        handle = serve_in_thread(db, pool_size=1)
        try:
            with ServiceClient(*handle.address) as client:
                for step in range(12):
                    client.update(insert={"R2": [["b" * (step + 3)]]})
                    assert len(client.query("R2(x)", ["x"])) == step + 4
                    assert client.query(
                        "R1(x, y) & [x, y]l(x = y)", ["x", "y"]
                    ) == [("a", "ab"), ("b", "ba")]
                plans = client.stats()["session"]["caches"]["ir"]
        finally:
            handle.stop()
        assert plans["misses"] - plans["invalidated"] <= 2
