"""Protocol fuzzing: hostile bytes in, typed error replies out.

Every fuzz case asserts the same contract: the reply is one valid
JSON-lines frame, ``ok`` is false with a stable ``MIX-E-*`` code that
names the client's mistake — never ``MIX-E-INTERNAL`` — (or true, if
the random frame happened to be valid), no stack trace ever reaches
the wire, no in-flight slot leaks, and the server still answers
a clean ``hello`` afterwards.  ``MIX_SEED`` rotates the random corpus
in CI.
"""

from __future__ import annotations

import json
import random
import socket

from hypothesis import given, settings, strategies as st

from repro.server import LoopbackClient, MixServer
from repro.server import protocol

from tests.conftest import MIX_SEED
from tests.server.conftest import make_service

#: Hand-picked hostile frames (each regression-tested shape stays).
HOSTILE_FRAMES = [
    b"",
    b"\n",
    b"null",
    b"true",
    b"[]",
    b"{}",
    b'{"id": 1}',
    b'{"op": "hello"}',
    b'{"id": "one", "op": "hello"}',
    b'{"id": 1.5, "op": "hello"}',
    b'{"id": true, "op": "hello"}',
    b'{"id": 1, "op": ""}',
    b'{"id": 1, "op": null}',
    b'{"id": 1, "op": ["d"]}',
    b'{"id": 1, "op": "d"}',                      # no session at all
    b'{"id": 1, "op": "d", "session": "x"}',
    b'{"id": 1, "op": "d", "session": 99, "node": 1}',
    b'{"id": 1, "op": "query", "session": {}, "query": []}',
    b'{"id": 1, "op": "sql", "statements": {"x": 1}}',
    b'{"id": 1, "op": "close", "session": [1]}',
    b'{"id": 1, "op": "open"}',                  # valid: session 1 ...
    b'{"id": 1, "op": "query", "session": 1, "query": '
    b'"FOR $C IN document(root1)/customer RETURN $C"}',  # ... node 1
    b'{"id": 1, "op": "walk", "session": 1, "node": 1, "budget": "x"}',
    b'{"id": 1, "op": "walk", "session": 1, "node": 1, "budget": 2.5}',
    b'{"id": 1, "op"',                            # truncated mid-key
    b'{"id": 1, "op": "hello"',                   # truncated mid-object
    b'{"id": 1, "op": "hello"}{"id": 2}',         # two objects, one line
    b"\x00\x01\x02\x03",
    b"\xff\xfe garbage \xff",
    "{'id': 1, 'op': 'hello'}".encode(),          # python-ish, not JSON
    b'{"id": 1e309, "op": "hello"}',              # float overflow -> inf
    b"[" * 100000,                                # nests past the stack
    b'{"id": 1, "op": "hello", "x": ' + b"[" * 100000,
]


def assert_sane_reply(reply, service):
    text = json.dumps(reply)
    assert "Traceback" not in text and "  File " not in text
    assert reply.get("ok") in (True, False)
    if not reply["ok"]:
        assert reply["error"]["code"].startswith("MIX-E-")
        assert reply["error"]["code"] != protocol.INTERNAL_CODE, reply
        assert reply["error"]["message"]
    assert service.sessions.inflight() == 0


class TestHostileFrames:
    def test_every_hostile_frame_gets_a_typed_reply(self):
        service = make_service()
        with LoopbackClient(service) as client:
            for frame in HOSTILE_FRAMES:
                reply = client.send_raw(frame)
                assert_sane_reply(reply, service)
            # the service survived the whole corpus
            assert client.call("hello")["server"] == "repro.server"

    def test_seeded_random_mutations(self):
        """Random corruptions of a valid frame — truncation, byte
        flips, splices — never wedge the service or leak a slot."""
        rng = random.Random(20260808 + MIX_SEED)
        service = make_service()
        base = protocol.encode_frame(
            {"id": 1, "op": "query", "session": 1,
             "query": "FOR $C IN document(root1)/customer RETURN $C"}
        ).rstrip(b"\n")
        with LoopbackClient(service) as client:
            for _ in range(200):
                data = bytearray(base)
                for _ in range(rng.randint(1, 6)):
                    mutation = rng.randrange(3)
                    if mutation == 0 and data:          # flip a byte
                        data[rng.randrange(len(data))] = rng.randrange(256)
                    elif mutation == 1 and data:        # truncate
                        del data[rng.randrange(len(data)):]
                    else:                               # splice junk in
                        pos = rng.randrange(len(data) + 1)
                        data[pos:pos] = bytes(
                            rng.randrange(256)
                            for _ in range(rng.randint(1, 8))
                        )
                assert_sane_reply(client.send_raw(bytes(data)), service)
            assert client.call("hello")["server"] == "repro.server"

    def test_random_json_shaped_requests(self):
        """Structurally valid JSON with random op/session/node values:
        typed errors only, and valid ops still work mid-storm."""
        rng = random.Random(97 + MIX_SEED)
        service = make_service()
        ops = ["open", "close", "d", "r", "fl", "fv", "query", "q",
               "walk", "tree", "find", "sql", "stats", "zzz", ""]
        with LoopbackClient(service) as client:
            for n in range(300):
                frame = {"id": rng.randrange(-5, 10**6), "op": rng.choice(ops)}
                for key in ("session", "node", "query", "label",
                            "statements", "budget"):
                    if rng.random() < 0.5:
                        frame[key] = rng.choice([
                            None, True, -1, 0, 1, 2, 10**9, "x", [], {},
                            1.5, "SELECT 1",
                        ])
                reply = client.send_raw(
                    json.dumps(frame).encode("utf-8")
                )
                assert_sane_reply(reply, service)
                if n % 50 == 0:
                    assert client.call("stats")["sessions"]["open"] >= 0


@given(st.binary(max_size=512))
@settings(max_examples=200, deadline=None)
def test_arbitrary_bytes_never_crash_the_wire(data):
    service = make_service(database=False)
    with LoopbackClient(service) as client:
        reply = client.send_raw(data)
        assert_sane_reply(reply, service)


@given(st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
))
@settings(max_examples=200, deadline=None)
def test_arbitrary_json_never_crashes_the_wire(obj):
    service = make_service(database=False)
    with LoopbackClient(service) as client:
        reply = client.send_raw(json.dumps(obj).encode("utf-8"))
        assert_sane_reply(reply, service)


class TestTcpFuzz:
    def test_garbage_then_valid_frames_on_one_connection(self):
        mix = MixServer(make_service(), ("127.0.0.1", 0))
        mix.start_in_thread()
        rng = random.Random(31337 + MIX_SEED)
        try:
            sock = socket.create_connection(mix.address, timeout=5)
            reader = sock.makefile("rb")
            for _ in range(50):
                junk = bytes(
                    rng.choice(range(1, 256))  # no NULs, no newlines…
                    for _ in range(rng.randint(1, 64))
                ).replace(b"\n", b"?")
                sock.sendall(junk + b"\n")
                reply = json.loads(reader.readline())
                assert reply["ok"] in (True, False)
                assert "Traceback" not in json.dumps(reply)
            sock.sendall(b'{"id": 1, "op": "hello"}\n')
            assert json.loads(reader.readline())["ok"] is True
            reader.close()
            sock.close()
        finally:
            mix.stop()

    def test_frames_split_across_many_sends(self):
        """A frame dribbled in byte-by-byte is still one frame."""
        mix = MixServer(make_service(), ("127.0.0.1", 0))
        mix.start_in_thread()
        try:
            sock = socket.create_connection(mix.address, timeout=5)
            reader = sock.makefile("rb")
            for byte in b'{"id": 5, "op": "hello"}\n':
                sock.sendall(bytes([byte]))
            reply = json.loads(reader.readline())
            assert reply["id"] == 5 and reply["ok"] is True
            reader.close()
            sock.close()
        finally:
            mix.stop()
