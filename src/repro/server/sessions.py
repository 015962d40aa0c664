"""Session multiplexing and admission control for the mediator server.

A **session** is one client's browsing context: a table of node handles
(small integers the wire protocol uses in place of in-memory
:class:`~repro.qdom.api.QdomNode` objects) over the *shared* mediator.
Hundreds of sessions multiplex over one mediator — and therefore over
one plan cache, one navigation memo, and one pushed-SQL result cache —
which is exactly the paper's Fig. 1 deployment: BBQ clients are thin,
the mediator is long-lived and shared.

The :class:`SessionManager` holds the server's one lock.  It guards the
session table, every session's handle table and the in-flight count; a
:class:`ServerSession` is a plain record with no lock of its own.  A
request's session and, when it names one, its node are resolved by one
:meth:`SessionManager.get` call, in one locked section.

Admission control is limit-based, never queue-based:

* ``max_sessions`` — an ``open`` beyond the cap is answered
  ``MIX-E-LIMIT`` (a typed reply, not a hung connect);
* ``max_inflight`` — a request that would push the server past its
  in-flight cap is rejected with ``MIX-E-BUSY`` *immediately*
  (backpressure by rejection: the server never buffers an unbounded
  backlog, clients retry with their own policy);
* ``max_handles`` — one session hoarding result handles is cut off at
  its cap with ``MIX-E-LIMIT`` (close the session or walk in bulk);
* ``max_result_bytes`` — a single reply larger than the cap becomes
  ``MIX-E-SIZE`` instead of an arbitrarily large frame.

The manager counts session lifecycles (``serve_sessions_*``,
``serve_active_sessions``); a request's outcome is counted once, by
:meth:`MediatorService.handle_line <repro.server.service.MediatorService
.handle_line>`.
"""

from __future__ import annotations

import itertools
import threading

from repro import stats as statnames
from repro.errors import (
    BackpressureError,
    SessionError,
    SessionLimitError,
    StaleHandleError,
)
from repro.server.protocol import MAX_FRAME_BYTES, is_int

#: :meth:`SessionManager.get`'s ``handle`` when a request names no node.
NO_NODE = object()


class ServerLimits:
    """Per-server resource caps (one instance shared by all sessions)."""

    def __init__(self, max_sessions=512, max_inflight=64,
                 max_handles=100000, max_result_bytes=4 * 1024 * 1024,
                 max_frame_bytes=None):
        self.max_sessions = max_sessions
        self.max_inflight = max_inflight
        self.max_handles = max_handles
        self.max_result_bytes = max_result_bytes
        self.max_frame_bytes = (
            MAX_FRAME_BYTES if max_frame_bytes is None else max_frame_bytes
        )

    def as_dict(self):
        return {
            "max_sessions": self.max_sessions,
            "max_inflight": self.max_inflight,
            "max_handles": self.max_handles,
            "max_result_bytes": self.max_result_bytes,
            "max_frame_bytes": self.max_frame_bytes,
        }

    def __repr__(self):
        return "ServerLimits({})".format(
            ", ".join("{}={}".format(k, v)
                      for k, v in sorted(self.as_dict().items()))
        )


class ServerSession:
    """One client's handle table over the shared mediator, belonging to
    the ``owner`` (a connection or client object) that opened it.

    A plain record: ``handles`` maps wire handles to
    :class:`QdomNode` objects, ``last_handle`` is the last one issued,
    and the :class:`SessionManager`'s lock guards both.
    """

    __slots__ = ("id", "owner", "handles", "last_handle")

    def __init__(self, session_id, owner=None):
        self.id = session_id
        self.owner = owner
        self.handles = {}
        self.last_handle = 0


class SessionManager:
    """Opens, resolves, and closes sessions; meters in-flight requests.

    All state — the session table, every handle table, the in-flight
    count — is guarded by one lock.  The in-flight gate is a counter
    rather than a semaphore because admission must *fail fast*: a full
    server replies ``MIX-E-BUSY`` instead of parking the thread.
    """

    def __init__(self, limits=None, obs=None):
        self.limits = limits or ServerLimits()
        self.obs = obs
        self._sessions = {}
        self._ids = itertools.count(1)
        self._inflight = 0
        self._lock = threading.Lock()

    def _count_closed(self, count):
        if self.obs is not None and count:
            self.obs.incr(statnames.SERVE_SESSIONS_CLOSED, count)
            self.obs.incr(statnames.SERVE_ACTIVE_SESSIONS, -count)

    # -- session lifecycle ---------------------------------------------------------

    def open(self, owner=None):
        """A fresh :class:`ServerSession` of ``owner`` (or
        ``MIX-E-LIMIT``)."""
        with self._lock:
            if len(self._sessions) >= self.limits.max_sessions:
                raise SessionLimitError(
                    "server is at its {}-session cap".format(
                        self.limits.max_sessions
                    )
                )
            session = ServerSession(next(self._ids), owner)
            self._sessions[session.id] = session
        if self.obs is not None:
            self.obs.incr(statnames.SERVE_SESSIONS_OPENED)
            self.obs.incr(statnames.SERVE_ACTIVE_SESSIONS)
        return session

    def get(self, session_id, owner=None, handle=NO_NODE, missing_ok=False):
        """``(session, node)`` of one request, resolved in one locked
        section.

        ``session_id`` must name an open session of ``owner``
        (``MIX-E-SESSION`` otherwise: another owner's session reads as
        unknown; with ``missing_ok`` an unknown id resolves to
        ``(None, None)``, which keeps ``close`` idempotent).  ``handle``
        names one of the session's nodes (``MIX-E-HANDLE`` when it
        holds none); without one the node is ``None``.
        """
        if not is_int(session_id):
            raise SessionError(
                "'session' must be an integer id, got {!r}".format(
                    session_id
                )
            )
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None or session.owner is not owner:
                if missing_ok:
                    return None, None
                raise SessionError("no open session {}".format(session_id))
            if handle is NO_NODE:
                return session, None
            if not is_int(handle):
                raise StaleHandleError(
                    "node handle must be an integer, got {!r}".format(handle)
                )
            node = session.handles.get(handle)
        if node is None:
            raise StaleHandleError(
                "session {} holds no node handle {}".format(session_id, handle)
            )
        return session, node

    def put(self, session, qdom_node):
        """Register a :class:`QdomNode` in ``session``'s handle table;
        returns its wire handle (``MIX-E-LIMIT`` at the handle cap)."""
        with self._lock:
            if len(session.handles) >= self.limits.max_handles:
                raise SessionLimitError(
                    "session {} is at its {}-handle cap; close it or "
                    "navigate in bulk".format(
                        session.id, self.limits.max_handles
                    )
                )
            session.last_handle += 1
            session.handles[session.last_handle] = qdom_node
            return session.last_handle

    def close(self, session):
        """Close a session :meth:`get` resolved; returns whether it was
        still open.

        Closing is idempotent by design: a connection teardown may race
        an explicit ``close`` and both must succeed cleanly.
        """
        with self._lock:
            if self._sessions.get(session.id) is not session:
                return False
            del self._sessions[session.id]
            session.handles.clear()
        self._count_closed(1)
        return True

    def close_all(self, owner=None):
        """Close every session ``owner`` opened; returns the count."""
        with self._lock:
            owned = [session for session in self._sessions.values()
                     if session.owner is owner]
            for session in owned:
                del self._sessions[session.id]
                session.handles.clear()
        self._count_closed(len(owned))
        return len(owned)

    def session_count(self):
        with self._lock:
            return len(self._sessions)

    # -- admission ------------------------------------------------------------------

    def admit(self):
        """Claim one in-flight slot (``MIX-E-BUSY`` when full); the
        caller gives it back with :meth:`release_slot`."""
        with self._lock:
            if self._inflight >= self.limits.max_inflight:
                raise BackpressureError(
                    "server is at its {}-request in-flight limit; "
                    "retry later".format(self.limits.max_inflight)
                )
            self._inflight += 1

    def release_slot(self):
        with self._lock:
            self._inflight -= 1

    def inflight(self):
        with self._lock:
            return self._inflight

    def __repr__(self):
        return "SessionManager(sessions={}, inflight={})".format(
            self.session_count(), self.inflight()
        )
