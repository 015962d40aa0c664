"""TCP transport tests: framing, concurrency, disconnect teardown."""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.server import MixServer, ServerLimits, TcpClient, serve
from repro.server.loopback import LoopbackClient

from tests.server.conftest import make_service

CUSTOMERS_QUERY = "FOR $C IN document(root1)/customer RETURN $C"


@pytest.fixture
def server():
    mix = MixServer(make_service(), ("127.0.0.1", 0))
    mix.start_in_thread()
    yield mix
    mix.stop()


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestRoundTrips:
    def test_hello_open_query_navigate(self, server):
        with TcpClient(server.address) as client:
            assert client.call("hello")["server"] == "repro.server"
            session = client.call("open")["session"]
            root = client.call("query", session=session,
                               query=CUSTOMERS_QUERY)
            first = client.call("d", session=session, node=root["node"])
            assert first["label"] == "customer"
            assert client.call("close", session=session)["closed"] is True

    def test_ephemeral_port_is_resolved(self, server):
        host, port = server.address
        assert host == "127.0.0.1"
        assert port > 0

    def test_serve_factory_wires_the_database(self):
        from repro import Instrument
        from tests.conftest import make_paper_db, make_paper_wrapper
        from repro import Mediator

        stats = Instrument()
        db = make_paper_db(stats=stats)
        mediator = Mediator(stats=stats).add_source(
            make_paper_wrapper(stats=stats)
        )
        mix = serve(mediator, database=db)
        mix.start_in_thread()
        try:
            with TcpClient(mix.address) as client:
                rows = client.call(
                    "sql", statements="SELECT id FROM customer"
                )["results"][0]["rows"]
                assert ["XYZ"] in rows
        finally:
            mix.stop()

    def test_concurrent_connections_have_isolated_sessions(self, server):
        with TcpClient(server.address) as one, \
                TcpClient(server.address) as two:
            session_one = one.call("open")["session"]
            session_two = two.call("open")["session"]
            assert session_one != session_two
            root = one.call("query", session=session_one,
                            query=CUSTOMERS_QUERY)
            # A session belongs to the connection that opened it: to
            # connection two, session one is as unknown as any bad id,
            # for navigation and for close alike.
            reply = two.request("d", session=session_one,
                                node=root["node"])
            assert reply["ok"] is False
            assert reply["error"]["code"] == "MIX-E-SESSION"
            assert reply["error"]["message"] == (
                "no open session {}".format(session_one)
            )
            assert two.call("close", session=session_one)["closed"] is False
            # ... and it is still open for its owner.
            assert one.call("d", session=session_one,
                            node=root["node"])["label"] == "customer"

    def test_pipelining_preserves_request_ids(self, server):
        with TcpClient(server.address) as client:
            sock = client._sock
            frames = b"".join(
                json.dumps({"id": n, "op": "hello"}).encode() + b"\n"
                for n in (7, 3, 9)
            )
            sock.sendall(frames)
            ids = [json.loads(client._rfile.readline())["id"]
                   for _ in range(3)]
            # one connection is served in arrival order
            assert ids == [7, 3, 9]


class TestFramingLimits:
    def test_oversized_line_gets_frame_error_and_connection_survives(self):
        mix = MixServer(
            make_service(limits=ServerLimits(max_frame_bytes=512)),
            ("127.0.0.1", 0),
        )
        mix.start_in_thread()
        try:
            with TcpClient(mix.address) as client:
                reply = client.send_raw(
                    b'{"id": 1, "op": "query", "query": "'
                    + b"x" * 2048 + b'"}'
                )
                assert reply["ok"] is False
                assert reply["error"]["code"] == "MIX-E-FRAME"
                # the oversized line was drained: framing still works
                assert client.call("hello")["server"] == "repro.server"
            # ... and it was one rejected request, like any bad frame
            counters = mix.service.obs.snapshot()
            assert (counters["serve_requests"], counters["serve_rejected"],
                    counters["serve_accepted"]) == (2, 1, 1)
        finally:
            mix.stop()


class TestDisconnectTeardown:
    def test_clean_disconnect_closes_sessions(self, server):
        service = server.service
        client = TcpClient(server.address)
        client.call("open")
        client.call("open")
        assert wait_until(lambda: service.sessions.session_count() == 2)
        client.close()
        assert wait_until(lambda: service.sessions.session_count() == 0), (
            "disconnect did not tear down the connection's sessions"
        )

    def test_mid_request_disconnect_closes_sessions(self, server):
        service = server.service
        sock = socket.create_connection(server.address, timeout=5)
        reader = sock.makefile("rb")
        sock.sendall(b'{"id": 1, "op": "open"}\n')
        assert json.loads(reader.readline())["ok"] is True
        # half a frame, no newline, then vanish (shutdown forces the
        # FIN out even though the makefile still holds the fd)
        sock.sendall(b'{"id": 2, "op": "que')
        sock.shutdown(socket.SHUT_RDWR)
        reader.close()
        sock.close()
        assert wait_until(lambda: service.sessions.session_count() == 0), (
            "mid-request disconnect leaked the session"
        )

    def test_explicitly_closed_sessions_are_not_double_closed(self, server):
        service = server.service
        with TcpClient(server.address) as client:
            session = client.call("open")["session"]
            client.call("close", session=session)
        assert wait_until(lambda: service.sessions.session_count() == 0)
        # a close raced by teardown must not go negative
        snapshot = service.mediator.stats.snapshot()
        assert snapshot.get("serve_active_sessions", 0) == 0


class TestTransportEquivalence:
    def test_tcp_and_loopback_answers_are_identical(self, server):
        with TcpClient(server.address) as remote, \
                LoopbackClient(server.service) as local:
            for client in (remote, local):
                session = client.call("open")["session"]
                root = client.call("query", session=session,
                                   query=CUSTOMERS_QUERY)
                client.xml = client.call(
                    "tree", session=session, node=root["node"]
                )["xml"]
            assert remote.xml == local.xml
