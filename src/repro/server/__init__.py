"""repro.server — the concurrent mediator server (the Fig. 1 deployment).

The paper's architecture is client–server: BBQ is a thin QDOM client
and the mediator is a long-lived process serving many of them.  This
package is that server layer:

* :mod:`~repro.server.protocol` — the JSON-lines wire protocol (typed
  ``MIX-E-*`` error replies, never stack traces) and the request/reply
  ``Client`` both clients share;
* :mod:`~repro.server.sessions` — the session manager: hundreds of
  concurrent QDOM sessions multiplexed over one mediator's shared
  plan/pushed-SQL/navigation caches under one lock, with per-session
  resource limits and reject-not-queue backpressure;
* :mod:`~repro.server.service` — the transport-independent dispatcher
  (navigation, bulk ops, query-in-place, SQL shell, EXPLAIN, stats),
  one path per request;
* :mod:`~repro.server.tcp` — the threading TCP endpoint plus a small
  client (``python -m repro serve``);
* :mod:`~repro.server.loopback` — an in-process client speaking the
  real byte protocol (what the lattice differential and fuzz suites
  drive).

``python -m mixbench run`` drives this server end to end.

Quickstart::

    from repro.server import MediatorService, MixServer, TcpClient

    service = MediatorService(mediator, database=db)
    server = MixServer(service)
    host, port = server.start_in_thread()

    with TcpClient((host, port)) as client:
        session = client.call("open")["session"]
        root = client.call("query", session=session, query=Q1)
        first = client.call("d", session=session, node=root["node"])
        print(first["label"])
"""

from repro.server.loopback import LoopbackClient
from repro.server.protocol import ServerReplyError
from repro.server.service import MediatorService
from repro.server.sessions import ServerLimits, SessionManager
from repro.server.tcp import MixServer, TcpClient, serve

__all__ = [
    "LoopbackClient",
    "MediatorService",
    "MixServer",
    "ServerLimits",
    "ServerReplyError",
    "SessionManager",
    "TcpClient",
    "serve",
]
