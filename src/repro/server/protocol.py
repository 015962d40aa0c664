"""The JSON-lines wire protocol of the mediator server.

One frame per line, UTF-8, ``\\n``-terminated.  A **request** is::

    {"id": 7, "op": "d", "session": 3, "node": 12}

``id`` is a client-chosen integer echoed on the reply (ids need not be
ordered — a client may pipeline), ``op`` names the operation, and the
remaining keys are the operation's arguments.  A **reply** is either::

    {"id": 7, "ok": true, "result": {"node": 13, "label": "CustRec"}}
    {"id": 7, "ok": false,
     "error": {"code": "MIX-E-SESSION", "type": "SessionError",
               "message": "no open session 3"}}

Error replies carry a stable ``MIX-E-*`` code (see
:class:`repro.errors.ServerError`) — never a stack trace.  A frame so
broken that no ``id`` could be recovered is answered with ``id: null``.

This module is transport-agnostic: :mod:`repro.server.tcp` and the
in-process loopback both funnel bytes through :func:`decode_frame` /
:func:`encode_frame`, so fuzzing the loopback exercises the same code
that guards the socket.  Their clients share one request/reply
implementation, :class:`Client`.
"""

from __future__ import annotations

import itertools
import json

from repro.errors import (
    CompositionError,
    EvaluationError,
    FrameTooLargeError,
    MixError,
    NavigationError,
    ParseError,
    PlanError,
    ProtocolError,
    ServerError,
    SourceError,
    SqlError,
    TranslationError,
)

#: Default cap on one encoded frame (request or reply preamble checks).
MAX_FRAME_BYTES = 256 * 1024

#: Wire codes for mediator-side failures an accepted request can hit.
#: Order matters: the first ``isinstance`` match wins, so subclasses
#: must precede their bases.
_MIX_CODES = (
    (ParseError, "MIX-E-PARSE"),
    (TranslationError, "MIX-E-TRANSLATE"),
    (PlanError, "MIX-E-PLAN"),
    (CompositionError, "MIX-E-COMPOSE"),
    (NavigationError, "MIX-E-NAV"),
    (SourceError, "MIX-E-SOURCE"),
    (SqlError, "MIX-E-SQL"),
    (EvaluationError, "MIX-E-EVAL"),
)

#: The catch-all for non-:class:`MixError` failures; the message is
#: replaced too, so internals never leak onto the wire.
INTERNAL_CODE = "MIX-E-INTERNAL"


def wire_code(exc):
    """The stable ``MIX-E-*`` code for an exception."""
    if isinstance(exc, ServerError):
        return exc.code
    for cls, code in _MIX_CODES:
        if isinstance(exc, cls):
            return code
    if isinstance(exc, MixError):
        return "MIX-E-QUERY"
    return INTERNAL_CODE


def is_int(value):
    """Whether ``value`` is a JSON integer (a bool is not one here)."""
    return isinstance(value, int) and not isinstance(value, bool)


def encode_frame(obj):
    """One reply/request dict to its wire bytes (JSON + newline).

    No circularity check: every frame is built fresh from dicts, lists
    and scalars, none shared with another, and the check's id tracking
    was half the cost of a large ``walk`` reply."""
    return (json.dumps(obj, separators=(", ", ": "), ensure_ascii=False,
                       check_circular=False) + "\n").encode("utf-8")


def decode_frame(data, max_bytes=MAX_FRAME_BYTES):
    """Wire bytes (or str) of one line to the request dict.

    Raises :class:`FrameTooLargeError` over ``max_bytes`` and
    :class:`ProtocolError` for anything that is not a JSON object with
    an integer ``id`` and a string ``op``.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    if max_bytes is not None and len(data) > max_bytes:
        raise FrameTooLargeError(
            "frame of {} bytes exceeds the {}-byte limit".format(
                len(data), max_bytes
            )
        )
    try:
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError:
        raise ProtocolError("frame is not valid UTF-8")
    except ValueError:
        raise ProtocolError("frame is not valid JSON")
    except RecursionError:
        raise ProtocolError("frame nests too deeply")
    if not isinstance(obj, dict):
        raise ProtocolError(
            "frame must be a JSON object, got {}".format(
                type(obj).__name__
            )
        )
    if not is_int(obj.get("id")):
        raise ProtocolError("frame 'id' must be an integer")
    op = obj.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError("frame 'op' must be a non-empty string")
    return obj


def recover_id(data):
    """Best-effort request id of a frame that failed to decode, for the
    error reply (``None`` when unrecoverable)."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8", "replace")
        obj = json.loads(data)
        request_id = obj.get("id") if isinstance(obj, dict) else None
        if is_int(request_id):
            return request_id
    except (ValueError, RecursionError):
        pass
    return None


def ok_reply(request_id, result):
    return {"id": request_id, "ok": True, "result": result}


def error_reply(request_id, exc):
    """The typed error reply for ``exc`` — never a stack trace."""
    code = wire_code(exc)
    if code == INTERNAL_CODE:
        message = "internal server error"
    else:
        message = str(exc)
    return {
        "id": request_id,
        "ok": False,
        "error": {
            "code": code,
            "type": type(exc).__name__,
            "message": message,
        },
    }


class ServerReplyError(MixError):
    """Client-side surfacing of an ``ok: false`` reply.

    Attributes:
        code: the wire ``MIX-E-*`` code.
        error_type: the server-side exception class name.
    """

    def __init__(self, code, error_type, message):
        super().__init__("{} [{}]: {}".format(code, error_type, message))
        self.code = code
        self.error_type = error_type


def raise_for_reply(reply):
    """Return ``reply['result']``, raising :class:`ServerReplyError`
    on an error reply."""
    if reply.get("ok"):
        return reply.get("result")
    error = reply.get("error") or {}
    raise ServerReplyError(
        error.get("code", INTERNAL_CODE),
        error.get("type", "Exception"),
        error.get("message", "malformed error reply"),
    )


class Client:
    """The request/reply half every client shares.

    :meth:`request` returns the raw reply dict, :meth:`call` unwraps
    ``result`` or raises :class:`ServerReplyError`, and leaving a
    ``with`` block closes the client.  A transport subclass defines
    only ``send_raw(data)`` (arbitrary bytes out, the decoded reply
    back; the fuzzing entry point) and ``close()``.
    """

    def __init__(self):
        self._ids = itertools.count(1)

    def request(self, op, **params):
        """One request/reply round trip; returns the reply dict."""
        frame = {"id": next(self._ids), "op": op}
        frame.update(params)
        return self.send_raw(encode_frame(frame))

    def call(self, op, **params):
        """Like :meth:`request` but returns ``result``, raising
        :class:`ServerReplyError` on an error reply."""
        return raise_for_reply(self.request(op, **params))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
