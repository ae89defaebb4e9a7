"""Unit tests for the wire format: framing, validation, error typing."""

import pytest

from repro.errors import (
    AdmissionError,
    DeadlineError,
    EvaluationError,
    ParseError,
    ServiceError,
    ServiceProtocolError,
)
from repro.service.protocol import (
    ERR_ADMISSION,
    ERR_DEADLINE,
    ERR_EVALUATION,
    ERR_PARSE,
    OPS,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
    raise_for_error,
    rows_from_wire,
    rows_to_wire,
)


class TestFraming:
    def test_round_trip(self):
        payload = {"id": 1, "op": "query", "params": {"head": ["x"]}}
        assert decode_frame(encode_frame(payload).rstrip(b"\n")) == payload

    def test_encoding_is_deterministic_compact_and_terminated(self):
        frame = encode_frame({"b": 2, "a": 1})
        assert frame == b'{"a":1,"b":2}\n'

    def test_oversized_frame_refused(self):
        with pytest.raises(ServiceProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * 100}, max_bytes=50)

    def test_unserializable_payload_refused(self):
        with pytest.raises(ServiceProtocolError, match="JSON"):
            encode_frame({"bad": object()})

    def test_decode_rejects_invalid_json(self):
        with pytest.raises(ServiceProtocolError, match="undecodable"):
            decode_frame(b"{nope")

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ServiceProtocolError, match="object"):
            decode_frame(b"[1, 2]")

    def test_decode_rejects_invalid_utf8(self):
        with pytest.raises(ServiceProtocolError):
            decode_frame(b'"\xff\xfe"')


class TestParseRequest:
    def test_minimal_request(self):
        request = parse_request({"op": "health"})
        assert request.op == "health"
        assert request.id is None
        assert dict(request.params) == {}
        assert request.deadline is None

    def test_full_request(self):
        request = parse_request(
            {"id": "r1", "op": "query", "params": {"length": 3},
             "deadline": 2}
        )
        assert request.id == "r1"
        assert request.params["length"] == 3
        assert request.deadline == 2.0

    def test_missing_op(self):
        with pytest.raises(ServiceProtocolError, match="op"):
            parse_request({"id": 1})

    def test_unknown_op(self):
        with pytest.raises(ServiceProtocolError, match="unknown op"):
            parse_request({"op": "telepathy"})

    def test_all_declared_ops_accepted(self):
        for op in OPS:
            assert parse_request({"op": op}).op == op

    def test_params_must_be_object(self):
        with pytest.raises(ServiceProtocolError, match="params"):
            parse_request({"op": "query", "params": [1]})

    @pytest.mark.parametrize("deadline", [0, -1, "soon", True])
    def test_bad_deadlines(self, deadline):
        with pytest.raises(ServiceProtocolError, match="deadline"):
            parse_request({"op": "query", "deadline": deadline})


class TestEnvelopes:
    def test_ok_envelope(self):
        assert ok_response("r1", {"rows": []}) == {
            "id": "r1", "ok": True, "result": {"rows": []}
        }

    def test_error_envelope_carries_extras(self):
        response = error_response(7, ERR_ADMISSION, "no", reason="queue-full")
        assert response["ok"] is False
        assert response["error"]["code"] == ERR_ADMISSION
        assert response["error"]["reason"] == "queue-full"


class TestRaiseForError:
    def test_admission_error_keeps_machine_readable_fields(self):
        with pytest.raises(AdmissionError) as info:
            raise_for_error({
                "code": ERR_ADMISSION, "message": "too big",
                "reason": "cost-exceeded", "est_cost": 9.0, "max_cost": 1.0,
            })
        assert info.value.reason == "cost-exceeded"
        assert info.value.est_cost == 9.0
        assert info.value.max_cost == 1.0

    @pytest.mark.parametrize(
        "code,exc",
        [
            (ERR_DEADLINE, DeadlineError),
            (ERR_PARSE, ParseError),
            (ERR_EVALUATION, EvaluationError),
        ],
    )
    def test_typed_codes(self, code, exc):
        with pytest.raises(exc, match=code):
            raise_for_error({"code": code, "message": "boom"})

    def test_unknown_code_falls_back_to_service_error(self):
        with pytest.raises(ServiceError):
            raise_for_error({"code": "made-up", "message": "?"})


class TestRows:
    def test_wire_form_is_sorted_lists(self):
        answers = frozenset({("b", "a"), ("a", "b")})
        assert rows_to_wire(answers) == [("a", "b"), ("b", "a")]

    def test_round_trip(self):
        answers = frozenset({("ab",), ("",), ("b",)})
        wired = rows_to_wire(answers)
        assert frozenset(rows_from_wire(wired)) == answers
        assert wired == sorted(wired)

    @pytest.mark.parametrize(
        "answers, frame",
        [
            pytest.param(
                frozenset({()}),
                b'{"id":"r1","ok":true,"result":{"rows":[[]]}}\n',
                id="width-0-unit",
            ),
            pytest.param(
                frozenset(),
                b'{"id":"r1","ok":true,"result":{"rows":[]}}\n',
                id="width-0-empty",
            ),
            pytest.param(
                frozenset(
                    {("b",), ("",), ('q"b',), ("c\\d",), ("é",), ("a",)}
                ),
                b'{"id":"r1","ok":true,"result":{"rows":[[""],["a"],["b"],'
                b'["c\\\\d"],["q\\"b"],["\xc3\xa9"]]}}\n',
                id="width-1",
            ),
            pytest.param(
                frozenset(
                    {("b", 'q"'), ("a\\", "ü"), ("a", ""), ("a", "b")}
                ),
                b'{"id":"r1","ok":true,"result":{"rows":[["a",""],["a","b"],'
                b'["a\\\\","\xc3\xbc"],["b","q\\""]]}}\n',
                id="width-2",
            ),
        ],
    )
    def test_response_frames_are_golden(self, answers, frame):
        """The frame bytes of the list-of-lists wire form, pinned: rows
        written as tuples must encode to exactly these."""
        response = ok_response("r1", {"rows": rows_to_wire(answers)})
        assert encode_frame(response) == frame
