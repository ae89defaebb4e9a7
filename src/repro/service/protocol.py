"""The wire protocol: newline-delimited JSON frames over TCP.

One request or response per line, each line one JSON object, encoded
UTF-8 — trivially debuggable with ``nc`` and implementable in any
language in a few lines.  The schema identifier is
:data:`PROTOCOL_SCHEMA`; see ``docs/service.md`` for the full
specification with wire examples.

Requests look like::

    {"id": "r1", "op": "query", "params": {"formula": "R2(x)",
     "head": ["x"], "length": 3}}

and every request produces exactly one response, either::

    {"id": "r1", "ok": true, "result": {...}}

or a typed error whose ``code`` is one of the stable ``ERR_*``
constants::

    {"id": "r1", "ok": false,
     "error": {"code": "admission-rejected", "message": "...",
               "reason": "cost-exceeded", "est_cost": 1e9}}

This module owns frame encoding/decoding and request validation; it
is deliberately free of any asyncio so the blocking client
(:mod:`repro.service.client`) and the async server
(:mod:`repro.service.server`) share one definition of the wire
format.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from operator import itemgetter
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    AdmissionError,
    DeadlineError,
    EvaluationError,
    ParseError,
    ServiceError,
    ServiceProtocolError,
)

#: Version tag for the wire format; servers echo it from ``health``.
PROTOCOL_SCHEMA = "repro.service/1"

#: Default TCP port for ``repro serve`` / ``repro client``.
DEFAULT_PORT = 7094

#: Default cap on one encoded frame (request or response), in bytes.
MAX_FRAME_BYTES = 1 << 20

#: The operations a server accepts.
OPS = ("query", "batch", "explain", "stats", "health", "update", "batch_update")

#: Operations that mutate the served database; the server runs these
#: holding *every* pool slot, so no evaluation ever observes a
#: half-applied update.
MUTATING_OPS = ("update", "batch_update")

# -- stable error codes ------------------------------------------------

ERR_MALFORMED = "malformed-request"
ERR_FRAME_TOO_LARGE = "frame-too-large"
ERR_UNKNOWN_OP = "unknown-op"
ERR_PARSE = "parse-error"
ERR_ADMISSION = "admission-rejected"
ERR_DEADLINE = "deadline-exceeded"
ERR_EVALUATION = "evaluation-error"
ERR_DRAINING = "draining"
ERR_INTERNAL = "internal-error"

#: How the client re-raises each error code as a typed exception.
ERROR_EXCEPTIONS: dict[str, type[Exception]] = {
    ERR_MALFORMED: ServiceProtocolError,
    ERR_FRAME_TOO_LARGE: ServiceProtocolError,
    ERR_UNKNOWN_OP: ServiceProtocolError,
    ERR_PARSE: ParseError,
    ERR_ADMISSION: AdmissionError,
    ERR_DEADLINE: DeadlineError,
    ERR_EVALUATION: EvaluationError,
    ERR_DRAINING: ServiceError,
    ERR_INTERNAL: ServiceError,
}


@dataclass(frozen=True)
class Request:
    """One validated request frame.

    Attributes:
        id: The client-chosen correlation id, echoed verbatim in the
            response (string, number or ``None``).
        op: One of :data:`OPS`.
        params: The op-specific parameter mapping (possibly empty).
        deadline: Optional per-request deadline in seconds, covering
            queue wait plus evaluation.
    """

    id: Any
    op: str
    params: Mapping[str, Any] = field(default_factory=dict)
    deadline: float | None = None


def encode_frame(
    payload: Mapping[str, Any], max_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """Serialize one frame: compact JSON plus the ``\\n`` terminator.

    Args:
        payload: The JSON-serializable frame object.
        max_bytes: Size cap on the encoded frame.

    Returns:
        The encoded bytes, newline-terminated.

    Raises:
        ServiceProtocolError: If the encoded frame exceeds
            ``max_bytes`` or the payload is not JSON-serializable.
    """
    try:
        line = json.dumps(
            payload, separators=(",", ":"), sort_keys=True, ensure_ascii=False
        ).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise ServiceProtocolError(
            f"frame is not JSON-serializable: {error}"
        ) from error
    if len(line) + 1 > max_bytes:
        raise ServiceProtocolError(
            f"frame of {len(line) + 1} bytes exceeds the "
            f"{max_bytes}-byte limit"
        )
    return line + b"\n"


def decode_frame(line: bytes) -> dict[str, Any]:
    """Parse one frame line into a JSON object.

    Args:
        line: The raw line, without the trailing newline.

    Returns:
        The decoded object.

    Raises:
        ServiceProtocolError: If the line is not valid JSON or not a
            JSON object.
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(payload, dict):
        raise ServiceProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def parse_request(payload: Mapping[str, Any]) -> Request:
    """Validate a decoded frame into a :class:`Request`.

    Args:
        payload: The decoded frame object.

    Returns:
        The validated request.

    Raises:
        ServiceProtocolError: If ``op`` is missing/unknown, ``params``
            is not an object, or ``deadline`` is not a positive number.
    """
    op = payload.get("op")
    if not isinstance(op, str):
        raise ServiceProtocolError("request is missing the 'op' field")
    if op not in OPS:
        raise ServiceProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    params = payload.get("params", {})
    if not isinstance(params, Mapping):
        raise ServiceProtocolError(
            f"'params' must be an object, got {type(params).__name__}"
        )
    deadline = payload.get("deadline")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or isinstance(
            deadline, bool
        ) or deadline <= 0:
            raise ServiceProtocolError(
                "'deadline' must be a positive number of seconds"
            )
        deadline = float(deadline)
    return Request(
        id=payload.get("id"), op=op, params=params, deadline=deadline
    )


def ok_response(request_id: Any, result: Any) -> dict[str, Any]:
    """The success envelope for one request."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: Any, code: str, message: str, **extras: Any
) -> dict[str, Any]:
    """The error envelope: a stable ``code`` plus optional extras.

    Args:
        request_id: The request's correlation id (``None`` when the
            request could not even be parsed).
        code: One of the ``ERR_*`` constants.
        message: The human-readable description.
        **extras: Additional machine-readable fields (e.g. the
            admission controller's ``reason`` and ``est_cost``).

    Returns:
        The response envelope.
    """
    error: dict[str, Any] = {"code": code, "message": message}
    error.update(extras)
    return {"id": request_id, "ok": False, "error": error}


def raise_for_error(error: Mapping[str, Any]) -> None:
    """Re-raise a response's error object as a typed exception.

    Args:
        error: The ``error`` mapping from an ``ok: false`` response.

    Raises:
        ServiceError: Or the more specific class mapped from the
            error's ``code`` (see :data:`ERROR_EXCEPTIONS`), e.g.
            :class:`~repro.errors.AdmissionError` for
            ``admission-rejected``.
    """
    code = str(error.get("code", ERR_INTERNAL))
    message = str(error.get("message", "unknown service error"))
    exc_type = ERROR_EXCEPTIONS.get(code, ServiceError)
    if exc_type is AdmissionError:
        raise AdmissionError(
            message,
            reason=str(error.get("reason", "cost-exceeded")),
            est_cost=error.get("est_cost"),
            max_cost=error.get("max_cost"),
        )
    raise exc_type(f"[{code}] {message}")


def rows_to_wire(answers) -> list[tuple[str, ...]]:
    """An answer set in its deterministic wire order: the sorted tuples.

    The tuples are not copied: :mod:`json` writes a tuple as an array,
    so :func:`encode_frame` emits the same bytes as for lists.  A
    one-column answer sorts on its only value, which orders its
    1-tuples exactly as comparing them would, only faster.

    Args:
        answers: The frozenset of string tuples an engine returned.

    Returns:
        The answer's tuples, sorted.
    """
    if answers and len(next(iter(answers))) == 1:
        return sorted(answers, key=itemgetter(0))
    return sorted(answers)


def rows_from_wire(rows) -> list[tuple[str, ...]]:
    """The inverse of :func:`rows_to_wire`: decoded arrays back to tuples."""
    return [tuple(row) for row in rows]
