"""Unit tests for the JSON-lines wire protocol."""

from __future__ import annotations

import json

import pytest

from repro.errors import (
    BackpressureError,
    FrameTooLargeError,
    NavigationError,
    ParseError,
    ProtocolError,
    SessionError,
    SqlError,
    StaleHandleError,
)
from repro.server import ServerReplyError
from repro.server import protocol


class TestFrames:
    def test_encode_is_one_terminated_json_line(self):
        data = protocol.encode_frame({"id": 1, "op": "hello"})
        assert isinstance(data, bytes)
        assert data.endswith(b"\n")
        assert data.count(b"\n") == 1
        assert json.loads(data.decode("utf-8")) == {"id": 1, "op": "hello"}

    def test_encode_decode_round_trip(self):
        frame = {"id": 42, "op": "d", "session": 3, "node": 12}
        assert protocol.decode_frame(protocol.encode_frame(frame)) == frame

    def test_decode_accepts_str(self):
        assert protocol.decode_frame('{"id": 1, "op": "x"}')["op"] == "x"

    def test_decode_preserves_unicode(self):
        frame = {"id": 1, "op": "query", "query": "données ☃"}
        assert protocol.decode_frame(
            protocol.encode_frame(frame)
        )["query"] == "données ☃"

    def test_oversized_frame_is_rejected(self):
        big = protocol.encode_frame(
            {"id": 1, "op": "query", "query": "x" * 200}
        )
        with pytest.raises(FrameTooLargeError):
            protocol.decode_frame(big, max_bytes=100)

    @pytest.mark.parametrize("data", [
        b"",
        b"not json",
        b"{\"id\": 1, \"op\":",          # truncated
        b"[1, 2, 3]",                     # not an object
        b"\"just a string\"",
        b"42",
        b"\xff\xfe\x00garbage",           # not UTF-8
    ])
    def test_malformed_frames_raise_protocol_error(self, data):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(data)

    @pytest.mark.parametrize("frame", [
        {"op": "hello"},                       # no id
        {"id": "seven", "op": "hello"},        # id not an int
        {"id": True, "op": "hello"},           # bool is not an id
        {"id": 1},                             # no op
        {"id": 1, "op": ""},                   # empty op
        {"id": 1, "op": 7},                    # op not a string
    ])
    def test_invalid_request_shapes_raise_protocol_error(self, frame):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(protocol.encode_frame(frame))

    def test_unchecked_encoding_matches_the_checked_one(self, monkeypatch):
        """``encode_frame`` skips json's circularity check; on every
        reply of a served session its bytes are the checked ones."""
        from repro.server import LoopbackClient
        from tests.server.conftest import make_service
        from tests.server.test_unread_tuple_objects import (
            JOIN_VIEW, REFINE,
        )

        replies = []
        encode = protocol.encode_frame

        def recorded(obj):
            replies.append((obj, encode(obj)))
            return replies[-1][1]

        monkeypatch.setattr(protocol, "encode_frame", recorded)
        with LoopbackClient(make_service()) as client:
            session = client.call("open")["session"]
            root = client.call("query", session=session,
                               query=JOIN_VIEW)["node"]
            record = client.call("d", session=session, node=root)["node"]
            client.call("fl", session=session, node=record)
            client.call("children", session=session, node=record)
            client.call("walk", session=session, node=root)
            refined = client.call("q", session=session, node=root,
                                  query=REFINE)["node"]
            client.call("tree", session=session, node=refined)
            client.call("sql", statements=["SELECT * FROM orders"])
            client.call("stats")
            with pytest.raises(ServerReplyError):
                client.call("d", session=session, node=10 ** 6)
            client.call("close", session=session)
        # The client encodes its requests through the same function.
        assert sum("ok" in obj for obj, __ in replies) == 12
        for obj, data in replies:
            assert data == (json.dumps(
                obj, separators=(", ", ": "), ensure_ascii=False,
            ) + "\n").encode("utf-8")

    def test_recover_id_from_broken_frames(self):
        assert protocol.recover_id(b'{"id": 9, "op": 7}') == 9
        assert protocol.recover_id(b'{"id": "x", "op": "d"}') is None
        assert protocol.recover_id(b"not json at all") is None
        assert protocol.recover_id(b'{"id": true}') is None


class TestWireCodes:
    @pytest.mark.parametrize("exc, code", [
        (ParseError("p"), "MIX-E-PARSE"),
        (NavigationError("n"), "MIX-E-NAV"),
        (SqlError("s"), "MIX-E-SQL"),
        (ProtocolError("x"), "MIX-E-PROTO"),
        (FrameTooLargeError("x"), "MIX-E-FRAME"),
        (SessionError("x"), "MIX-E-SESSION"),
        (StaleHandleError("x"), "MIX-E-HANDLE"),
        (BackpressureError("x"), "MIX-E-BUSY"),
        (ValueError("x"), "MIX-E-INTERNAL"),
    ])
    def test_stable_codes(self, exc, code):
        assert protocol.wire_code(exc) == code

    def test_error_reply_masks_internal_details(self):
        reply = protocol.error_reply(
            5, RuntimeError("secret /etc/passwd path")
        )
        assert reply["ok"] is False
        assert reply["error"]["code"] == "MIX-E-INTERNAL"
        assert "secret" not in reply["error"]["message"]
        assert "Traceback" not in json.dumps(reply)

    def test_error_reply_keeps_mix_error_messages(self):
        reply = protocol.error_reply(5, SessionError("no open session 3"))
        assert reply["error"]["message"] == "no open session 3"
        assert reply["error"]["type"] == "SessionError"
        assert reply["id"] == 5


class TestReplies:
    def test_ok_reply_shape(self):
        assert protocol.ok_reply(3, {"x": 1}) == {
            "id": 3, "ok": True, "result": {"x": 1},
        }

    def test_raise_for_reply_unwraps_results(self):
        assert protocol.raise_for_reply(
            protocol.ok_reply(1, {"session": 4})
        ) == {"session": 4}

    def test_raise_for_reply_raises_typed_errors(self):
        reply = protocol.error_reply(1, StaleHandleError("gone"))
        with pytest.raises(ServerReplyError) as info:
            protocol.raise_for_reply(reply)
        assert info.value.code == "MIX-E-HANDLE"
        assert info.value.error_type == "StaleHandleError"

    def test_raise_for_reply_survives_malformed_error_replies(self):
        with pytest.raises(ServerReplyError) as info:
            protocol.raise_for_reply({"id": 1, "ok": False})
        assert info.value.code == "MIX-E-INTERNAL"
