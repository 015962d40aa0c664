"""The benchmark's own JSON-lines client.

Deliberately not :class:`repro.server.tcp.TcpClient`: the load generator
must not change when the program does.  One socket, one request in
flight, the reply read to its newline.
"""

import json
import socket


class WireClient:
    """A blocking request/reply connection to the served mediator."""

    def __init__(self, port, timeout=30.0):
        self._sock = socket.create_connection(("127.0.0.1", port), timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def send(self, data):
        """One encoded request line to the decoded reply."""
        self._sock.sendall(data)
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self):
        self._reader.close()
        self._sock.close()
