"""Session multiplexing and admission control for the mediator server.

A **session** is one client's browsing context: a table of node handles
(small integers the wire protocol uses in place of in-memory
:class:`~repro.qdom.api.QdomNode` objects) over the *shared* mediator.
Hundreds of sessions multiplex over one mediator — and therefore over
one plan cache, one navigation memo, and one pushed-SQL result cache —
which is exactly the paper's Fig. 1 deployment: BBQ clients are thin,
the mediator is long-lived and shared.

Admission control is limit-based, never queue-based:

* ``max_sessions`` — an ``open`` beyond the cap is rejected with
  ``MIX-E-LIMIT`` (a typed reply, not a hung connect);
* ``max_inflight`` — a request that would push the server past its
  in-flight cap is rejected with ``MIX-E-BUSY`` *immediately*
  (backpressure by rejection: the server never buffers an unbounded
  backlog, clients retry with their own policy);
* ``max_handles`` — one session hoarding result handles is cut off at
  its cap with ``MIX-E-LIMIT`` (close the session or walk in bulk);
* ``max_result_bytes`` — a single reply larger than the cap becomes
  ``MIX-E-SIZE`` instead of an arbitrarily large frame.

Admission outcomes flow into the shared instrument under the
``serve_*`` counters (:mod:`repro.stats`), so ``stats`` requests and
the load driver see accepted/rejected/active totals that sum.
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


class ServerLimits:
    """Per-server resource caps (one instance shared by all sessions)."""

    def __init__(self, max_sessions=512, max_inflight=64,
                 max_handles=100000, max_result_bytes=4 * 1024 * 1024,
                 max_frame_bytes=None):
        from repro.server.protocol import MAX_FRAME_BYTES

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
    the ``owner`` (a connection or client object) that opened it."""

    def __init__(self, session_id, max_handles, owner=None):
        self.id = session_id
        self.owner = owner
        self._max_handles = max_handles
        self._handles = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def put(self, qdom_node):
        """Register a :class:`QdomNode`; returns its wire handle."""
        with self._lock:
            if len(self._handles) >= self._max_handles:
                raise SessionLimitError(
                    "session {} is at its {}-handle cap; close it or "
                    "navigate in bulk".format(self.id, self._max_handles)
                )
            handle = next(self._ids)
            self._handles[handle] = qdom_node
            return handle

    def get(self, handle):
        """The :class:`QdomNode` behind a wire handle."""
        if not isinstance(handle, int) or isinstance(handle, bool):
            raise StaleHandleError(
                "node handle must be an integer, got {!r}".format(handle)
            )
        with self._lock:
            node = self._handles.get(handle)
        if node is None:
            raise StaleHandleError(
                "session {} holds no node handle {}".format(self.id, handle)
            )
        return node

    def handle_count(self):
        with self._lock:
            return len(self._handles)

    def release(self):
        """Drop every handle (session close)."""
        with self._lock:
            self._handles.clear()

    def __repr__(self):
        return "ServerSession(id={}, handles={})".format(
            self.id, self.handle_count()
        )


class SessionManager:
    """Opens, resolves, and closes sessions; meters in-flight requests.

    All state is guarded by one lock; the in-flight gate is a counter
    rather than a semaphore because admission must *fail fast* — a full
    server replies ``MIX-E-BUSY`` instead of parking the thread.
    """

    def __init__(self, limits=None, obs=None):
        self.limits = limits or ServerLimits()
        self.obs = obs
        self._sessions = {}
        self._ids = itertools.count(1)
        self._inflight = 0
        self._lock = threading.Lock()

    def _incr(self, name, amount=1):
        if self.obs is not None:
            self.obs.incr(name, amount)

    # -- session lifecycle ---------------------------------------------------------

    def open(self, owner=None):
        """A fresh :class:`ServerSession` of ``owner`` (or
        ``MIX-E-LIMIT``)."""
        with self._lock:
            if len(self._sessions) >= self.limits.max_sessions:
                self._incr(statnames.SERVE_REJECTED)
                raise SessionLimitError(
                    "server is at its {}-session cap".format(
                        self.limits.max_sessions
                    )
                )
            session = ServerSession(
                next(self._ids), self.limits.max_handles, owner
            )
            self._sessions[session.id] = session
        self._incr(statnames.SERVE_SESSIONS_OPENED)
        self._incr(statnames.SERVE_ACTIVE_SESSIONS)
        return session

    def get(self, session_id, owner=None):
        """The open session of ``owner`` with that id (or
        ``MIX-E-SESSION``: another owner's session reads as unknown)."""
        if not isinstance(session_id, int) or isinstance(session_id, bool):
            raise SessionError(
                "'session' must be an integer id, got {!r}".format(
                    session_id
                )
            )
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None or session.owner is not owner:
            raise SessionError(
                "no open session {}".format(session_id)
            )
        return session

    def close(self, session_id, owner=None):
        """Close a session of ``owner``; returns whether it was open.

        Closing is idempotent by design: a connection teardown may race
        an explicit ``close`` and both must succeed cleanly.
        """
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None or session.owner is not owner:
                return False
            del self._sessions[session_id]
        session.release()
        self._incr(statnames.SERVE_SESSIONS_CLOSED)
        self._incr(statnames.SERVE_ACTIVE_SESSIONS, -1)
        return True

    def close_all(self, owner=None):
        """Close every session ``owner`` opened; returns the count."""
        with self._lock:
            owned = [sid for sid, session in self._sessions.items()
                     if session.owner is owner]
        return sum(1 for sid in owned if self.close(sid, owner))

    def session_count(self):
        with self._lock:
            return len(self._sessions)

    # -- admission ------------------------------------------------------------------

    def admit(self):
        """Claim one in-flight slot (``MIX-E-BUSY`` when full).

        Use as a context manager::

            with manager.admit():
                ... handle the request ...
        """
        with self._lock:
            if self._inflight >= self.limits.max_inflight:
                self._incr(statnames.SERVE_REJECTED)
                raise BackpressureError(
                    "server is at its {}-request in-flight limit; "
                    "retry later".format(self.limits.max_inflight)
                )
            self._inflight += 1
        self._incr(statnames.SERVE_ACCEPTED)
        return _Admission(self)

    def _release_slot(self):
        with self._lock:
            self._inflight -= 1

    def inflight(self):
        with self._lock:
            return self._inflight

    def __repr__(self):
        return "SessionManager(sessions={}, inflight={})".format(
            self.session_count(), self.inflight()
        )


class _Admission:
    """Context manager releasing one claimed in-flight slot."""

    __slots__ = ("_manager",)

    def __init__(self, manager):
        self._manager = manager

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._manager._release_slot()
        return False
