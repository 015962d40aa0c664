"""An in-process client that speaks the real wire protocol.

:class:`LoopbackClient` is what the lattice and fuzz suites drive:
every call is encoded to JSON-lines bytes, pushed through
:meth:`MediatorService.handle_line`, and decoded back — the identical
byte path a TCP connection takes, minus the socket.  A bug that only a
malformed frame can trigger is therefore reachable from a unit test
without binding a port.
"""

from __future__ import annotations

import json

from repro.server.protocol import Client


class LoopbackClient(Client):
    """A synchronous wire-faithful client over an in-process service.

    Example::

        service = MediatorService(mediator)
        with LoopbackClient(service) as client:
            session = client.call("open")["session"]
            root = client.call("query", session=session, query=Q1)
            first = client.call("d", session=session, node=root["node"])

    The client owns the sessions it opens, as a TCP connection does:
    another client cannot use them, and :meth:`close` closes them
    (mirroring a disconnect's teardown).
    """

    def __init__(self, service):
        super().__init__()
        self.service = service

    def send_raw(self, data):
        """Push raw bytes/str through the wire path; returns the decoded
        reply dict.  ``data`` need not be a valid frame."""
        reply_bytes = self.service.handle_line(data, owner=self)
        return json.loads(reply_bytes.decode("utf-8"))

    def close(self):
        """Tear down every session this client holds (idempotent: a
        second call finds none); returns how many were closed."""
        return self.service.release(self)

    def __repr__(self):
        return "LoopbackClient({!r})".format(self.service)
