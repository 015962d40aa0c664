"""The TCP transport: JSON-lines over a threading socket server.

One thread per connection (the paper's mediator is one long-lived
process serving many BBQ clients); requests on a connection are handled
in arrival order, connections are handled concurrently.  All protocol
work is delegated to :meth:`MediatorService.handle_line`, with the
connection as the owner of the sessions it opens, so the socket layer
only does framing and teardown:

* a frame longer than the limit is drained without buffering it, and
  the part read goes to the service, which answers ``MIX-E-FRAME``
  and counts it like any other rejected request;
* a disconnect — graceful or mid-request — closes every session the
  connection opened, so a dead client can never leak handle tables or
  hold a session-cap slot.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading

from repro.server.protocol import Client


class _ConnectionHandler(socketserver.StreamRequestHandler):
    """One client connection: read frames, reply, tear down on exit."""

    def handle(self):
        service = self.server.service
        limit = service.limits.max_frame_bytes
        while True:
            try:
                # +2 so a line of exactly `limit` bytes (newline
                # included) passes and `limit`+1 is detectable.
                line = self.rfile.readline(limit + 2)
            except (OSError, ValueError):
                return  # client vanished mid-request
            if not line:
                return  # EOF: client closed cleanly
            if len(line) > limit and not line.endswith(b"\n"):
                self._drain_oversized_line()
            reply_bytes = service.handle_line(
                line.rstrip(b"\r\n"), owner=self
            )
            if not self._send(reply_bytes):
                return

    def _send(self, data):
        try:
            self.wfile.write(data)
            self.wfile.flush()
            return True
        except (OSError, ValueError):
            return False  # mid-reply disconnect; finish() tears down

    def _drain_oversized_line(self):
        """Consume the rest of an oversized line so the connection can
        keep framing (the frame is rejected, not the client)."""
        while True:
            try:
                chunk = self.rfile.readline(
                    self.server.service.limits.max_frame_bytes + 2
                )
            except (OSError, ValueError):
                return
            if not chunk or chunk.endswith(b"\n"):
                return

    def finish(self):
        # Clean teardown on *any* exit — EOF, mid-request disconnect,
        # or handler error: the connection's sessions die with it.
        try:
            self.server.service.release(self)
        finally:
            super().finish()


class MixServer(socketserver.ThreadingTCPServer):
    """The mediator's TCP endpoint (``python -m repro serve``).

    Example::

        server = MixServer(service, ("127.0.0.1", 0))
        server.start_in_thread()
        print(server.address)          # ("127.0.0.1", <ephemeral port>)
        ...
        server.stop()
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, service, address=("127.0.0.1", 0)):
        self.service = service
        super().__init__(address, _ConnectionHandler)
        self._thread = None

    @property
    def address(self):
        """The bound ``(host, port)`` (ephemeral port resolved)."""
        return self.server_address[0], self.server_address[1]

    def start_in_thread(self):
        """Serve forever on a daemon thread; returns the address."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="mix-server", daemon=True
        )
        self._thread.start()
        return self.address

    def stop(self):
        """Shut down the accept loop and release the port."""
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


class TcpClient(Client):
    """A small synchronous JSON-lines client (tests, examples, bench).

    It shares :class:`~repro.server.protocol.Client`'s ``request``,
    ``call`` and context manager with
    :class:`~repro.server.loopback.LoopbackClient`; :meth:`send_raw`
    ships arbitrary bytes over the socket (a trailing newline is
    appended when missing).
    """

    def __init__(self, address, timeout=10.0):
        super().__init__()
        self._sock = socket.create_connection(address, timeout=timeout)
        self._rfile = self._sock.makefile("rb")

    def send_raw(self, data):
        if isinstance(data, str):
            data = data.encode("utf-8")
        if not data.endswith(b"\n"):
            data += b"\n"
        self._sock.sendall(data)
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    def close(self):
        try:
            self._rfile.close()
        finally:
            self._sock.close()


def serve(mediator, host="127.0.0.1", port=0, limits=None, database=None):
    """Build a :class:`MixServer` over ``mediator`` (not yet started)."""
    from repro.server.service import MediatorService

    service = MediatorService(mediator, limits=limits, database=database)
    return MixServer(service, (host, port))
