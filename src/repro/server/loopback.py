"""An in-process client that speaks the real wire protocol.

:class:`LoopbackClient` is what the lattice and fuzz suites drive:
every call is encoded to JSON-lines bytes, pushed through
:meth:`MediatorService.handle_line`, and decoded back — the identical
byte path a TCP connection takes, minus the socket.  A bug that only a
malformed frame can trigger is therefore reachable from a unit test
without binding a port.
"""

from __future__ import annotations

import itertools
import json
import threading

from repro.server import protocol


class LoopbackClient:
    """A synchronous wire-faithful client over an in-process service.

    Example::

        service = MediatorService(mediator)
        with LoopbackClient(service) as client:
            session = client.call("open")["session"]
            root = client.call("query", session=session, query=Q1)
            first = client.call("d", session=session, node=root["node"])

    Sessions opened through the client are closed on :meth:`close`
    (mirroring a TCP disconnect's teardown).
    """

    def __init__(self, service):
        self.service = service
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._opened = set()
        self._closed = False

    # -- the raw wire --------------------------------------------------------------

    def send_raw(self, data):
        """Push raw bytes/str through the wire path; returns the decoded
        reply dict.  This is the fuzzing entry point: ``data`` need not
        be a valid frame."""
        reply_bytes = self.service.handle_line(data)
        return json.loads(reply_bytes.decode("utf-8"))

    def request(self, op, **params):
        """One request/reply round trip; returns the reply dict."""
        frame = {"id": next(self._ids), "op": op}
        frame.update(params)
        reply = self.send_raw(protocol.encode_frame(frame))
        self._track(op, params, reply)
        return reply

    def call(self, op, **params):
        """Like :meth:`request` but unwraps ``result`` and raises
        :class:`~repro.server.protocol.ServerReplyError` on errors."""
        return protocol.raise_for_reply(self.request(op, **params))

    def _track(self, op, params, reply):
        if not reply.get("ok"):
            return
        result = reply.get("result") or {}
        if op == "open":
            with self._lock:
                self._opened.add(result.get("session"))
        elif op == "close":
            with self._lock:
                self._opened.discard(params.get("session"))

    # -- lifecycle -----------------------------------------------------------------

    def close(self):
        """Tear down every session this client opened (idempotent)."""
        if self._closed:
            return 0
        self._closed = True
        with self._lock:
            opened, self._opened = self._opened, set()
        return self.service.release(opened)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):
        return "LoopbackClient(sessions={})".format(sorted(self._opened))
