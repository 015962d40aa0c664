"""The mediator service: request dispatch over a shared mediator.

:class:`MediatorService` is the transport-independent core of the
server — :mod:`repro.server.tcp` feeds it socket lines, the loopback
client feeds it in-process bytes, and both get the same admission
control, the same typed errors, and the same metrics.

Exported operations (the wire ``op`` field):

=============  ====================================================
``hello``      server identity + the limit configuration
``open``       open a session → ``{"session": id}``
``close``      close a session (idempotent)
``query``      run an XQuery, root handle into the session
``q``          query-in-place from a node handle (the paper's
               ``q(query, p)``)
``d``/``r``    one navigation step → node descriptor or ``null``
``fl``/``fv``  label / value fetch
``children``   bulk: all children of a node in one reply
``walk``       bulk: depth-first ``(depth, label)`` transcript below
               a node, optionally budgeted
``tree``       bulk: the serialized XML of a subtree
``find``       first child with a given label
``explain``    EXPLAIN ANALYZE (times masked — replies are stable)
``sql``        the SQL shell (list of statements, per-statement rows)
``stats``      counter snapshot + cache stats + session stats
=============  ====================================================

Navigation handles are per-session integers; ``null`` plays the
paper's ``⊥``.  A session belongs to the owner that opened it — the
transport passes its connection (TCP) or client (loopback) as
``owner`` — and a request naming another owner's session gets the
``MIX-E-SESSION`` reply an unknown id gets.

Every request takes one path, :meth:`MediatorService.handle_line`:
decode, admission, one resolution of the session and node the request
names (:meth:`SessionManager.get
<repro.server.sessions.SessionManager.get>`, under the server's one
lock), the op handler, reply encoding and the result-size cap.  Each
request counts ``serve_requests`` and exactly one outcome: it is
*rejected* (``serve_rejected``) when it is refused before dispatch — a
bad frame, an unknown op, or ``MIX-E-BUSY`` — and *accepted*
(``serve_accepted``) otherwise; an accepted request whose reply is an
error, ``MIX-E-LIMIT`` and ``MIX-E-SIZE`` included, also counts
``serve_errors``.  A dispatched request runs inside one ``serve:<op>``
command span on the shared instrument: the root span of that request's
trace, with the QDOM command and operator spans it causes below it.
"""

from __future__ import annotations

from repro import stats as statnames
from repro.errors import (
    MixError,
    ProtocolError,
    ResultTooLargeError,
    SqlError,
    UnknownOpError,
)
from repro.server import protocol
from repro.server.sessions import NO_NODE, ServerLimits, SessionManager
from repro.xmltree import serialize

#: What a request names, resolved once in dispatch: a session, a
#: session that may be unknown (``close`` is idempotent), or a session
#: and one of its nodes.
_SESSION, _CLOSING, _NODE = "session", "closing", "node"


class MediatorService:
    """Dispatches decoded request frames against one shared mediator.

    Args:
        mediator: the :class:`~repro.qdom.Mediator` all sessions share.
        limits: a :class:`ServerLimits` (defaults apply when omitted).
        database: optional :class:`~repro.relational.Database` the
            ``sql`` op runs against (the SQL shell); without one the op
            replies ``MIX-E-SQL``.
    """

    def __init__(self, mediator, limits=None, database=None):
        self.mediator = mediator
        self.obs = mediator.stats
        self.limits = limits or ServerLimits()
        self.sessions = SessionManager(self.limits, obs=self.obs)
        self.database = database
        #: op -> (handler, what the request names: None, _SESSION,
        #: _CLOSING or _NODE).
        self._ops = {
            "hello": (self._op_hello, None),
            "open": (self._op_open, None),
            "close": (self._op_close, _CLOSING),
            "query": (self._op_query, _SESSION),
            "q": (self._op_q, _NODE),
            "d": (self._op_d, _NODE),
            "r": (self._op_r, _NODE),
            "fl": (self._op_fl, _NODE),
            "fv": (self._op_fv, _NODE),
            "children": (self._op_children, _NODE),
            "walk": (self._op_walk, _NODE),
            "tree": (self._op_tree, _NODE),
            "find": (self._op_find, _NODE),
            "explain": (self._op_explain, None),
            "sql": (self._op_sql, None),
            "stats": (self._op_stats, None),
        }

    # -- the wire boundary ---------------------------------------------------------

    def handle_line(self, data, owner=None):
        """One request line (bytes/str) from ``owner`` to one reply line
        (bytes).

        This is the path every transport funnels through: frame
        decoding, admission, dispatch, reply encoding, and the
        result-size cap all live here, so a fuzzer at the loopback
        exercises exactly what guards the socket.
        """
        obs = self.obs
        obs.incr(statnames.SERVE_REQUESTS)
        request = None
        try:
            request = protocol.decode_frame(
                data, max_bytes=self.limits.max_frame_bytes
            )
            entry = self._ops.get(request["op"])
            if entry is None:
                raise UnknownOpError(
                    "unknown op {!r}".format(request["op"]),
                    known=sorted(self._ops),
                )
            self.sessions.admit()
        except MixError as exc:
            obs.incr(statnames.SERVE_REJECTED)
            request_id = (protocol.recover_id(data) if request is None
                          else request["id"])
            return protocol.encode_frame(protocol.error_reply(request_id, exc))
        obs.incr(statnames.SERVE_ACCEPTED)
        try:
            reply = self._dispatch(request, entry, owner)
        finally:
            self.sessions.release_slot()
        encoded = protocol.encode_frame(reply)
        if (reply["ok"]
                and self.limits.max_result_bytes is not None
                and len(encoded) > self.limits.max_result_bytes):
            obs.incr(statnames.SERVE_ERRORS)
            return protocol.encode_frame(protocol.error_reply(
                request["id"],
                ResultTooLargeError(
                    "reply of {} bytes exceeds the {}-byte result cap"
                    .format(len(encoded), self.limits.max_result_bytes)
                ),
            ))
        return encoded

    def _dispatch(self, request, entry, owner):
        """The reply dict of one admitted request: its session and node
        resolved once, then its handler, inside its ``serve:<op>``
        span."""
        request_id = request["id"]
        handler, scope = entry
        with self.obs.command_span(
            "serve:{}".format(request["op"]), kind="serve",
            request=str(request_id),
        ):
            try:
                session = node = None
                if scope is not None:
                    session, node = self.sessions.get(
                        request.get("session"), owner,
                        request.get("node") if scope is _NODE else NO_NODE,
                        missing_ok=scope is _CLOSING,
                    )
                return protocol.ok_reply(
                    request_id, handler(request, owner, session, node)
                )
            except Exception as exc:  # noqa: BLE001 — must not wedge
                self.obs.incr(statnames.SERVE_ERRORS)
                return protocol.error_reply(request_id, exc)

    def release(self, owner):
        """Teardown hook for transports: close every session ``owner``
        opened (a disconnected client must not leak its handle
        tables)."""
        return self.sessions.close_all(owner)

    # -- op handlers: (request, owner, session, node) -> result ----------------------

    def _descriptor(self, session, qdom_node):
        """The wire form of one navigable node (``None`` stays ``None``).

        The label is read off the node: the client issued no ``fl``, so
        the reply must not cost one.
        """
        if qdom_node is None:
            return {"node": None}
        return {
            "node": self.sessions.put(session, qdom_node),
            "label": qdom_node.node.label,
            "oid": str(qdom_node.oid),
        }

    @staticmethod
    def _query_text(request):
        query = request.get("query")
        if not isinstance(query, str) or not query.strip():
            raise ProtocolError("'query' must be a non-empty string")
        return query

    def _op_hello(self, request, owner, session, node):
        return {
            "server": "repro.server",
            "protocol": "jsonl/1",
            "ops": sorted(self._ops),
            "limits": self.limits.as_dict(),
        }

    def _op_open(self, request, owner, session, node):
        return {"session": self.sessions.open(owner).id}

    def _op_close(self, request, owner, session, node):
        return {"closed": session is not None and self.sessions.close(session)}

    def _op_query(self, request, owner, session, node):
        root = self.mediator.query(self._query_text(request))
        return self._descriptor(session, root)

    def _op_q(self, request, owner, session, node):
        return self._descriptor(session, node.q(self._query_text(request)))

    def _op_d(self, request, owner, session, node):
        return self._descriptor(session, node.d())

    def _op_r(self, request, owner, session, node):
        return self._descriptor(session, node.r())

    def _op_fl(self, request, owner, session, node):
        return {"label": node.fl()}

    def _op_fv(self, request, owner, session, node):
        return {"value": node.fv()}

    def _op_children(self, request, owner, session, node):
        return {
            "children": [
                self._descriptor(session, child) for child in node.children()
            ]
        }

    def _op_find(self, request, owner, session, node):
        return self._descriptor(session, node.find(request.get("label")))

    def _op_walk(self, request, owner, session, node):
        # Delegates to QdomNode.walk: under a block-mode mediator the
        # transcript is produced with bulk d_many commands riding the
        # prefetch path; at block_size=1 it replays the seed's per-hop
        # loop.  The reply is identical either way.
        budget = request.get("budget")
        if budget is not None and not (protocol.is_int(budget)
                                       and budget >= 0):
            raise ProtocolError(
                "'budget' must be null or an integer >= 0, got {!r}"
                .format(budget)
            )
        steps, truncated = node.walk(budget)
        return {"steps": steps, "truncated": truncated}

    def _op_tree(self, request, owner, session, node):
        return {"xml": serialize(node.export_node())}

    def _op_explain(self, request, owner, session, node):
        # Times are masked: replies must be byte-stable so clients can
        # compare plans, not timings.
        return {"text": self.mediator.explain(
            self._query_text(request), mask_times=True
        )}

    def _op_sql(self, request, owner, session, node):
        if self.database is None:
            raise SqlError("this server exports no SQL shell database")
        statements = request.get("statements")
        if isinstance(statements, str):
            statements = [statements]
        if not isinstance(statements, list) or not all(
            isinstance(s, str) for s in statements
        ):
            raise ProtocolError(
                "'statements' must be a string or list of strings"
            )
        results = []
        for sql in statements:
            sql = sql.strip().rstrip(";").strip()
            if not sql or sql.startswith("--"):
                continue
            if sql.upper().startswith("SELECT"):
                cursor = self.database.execute(sql)
                results.append({
                    "columns": list(cursor.column_names),
                    "rows": [list(row) for row in cursor],
                })
            else:
                results.append({"affected": self.database.run(sql)})
        return {"results": results}

    def _op_stats(self, request, owner, session, node):
        counters = {
            name: value
            for name, value in self.obs.snapshot().items()
            if not name.startswith("time:")
        }
        # Shown before the first one, so a client can tell "none yet".
        counters.setdefault(statnames.Q_ANSWERED_LOCALLY, 0)
        return {
            "counters": counters,
            "cache": self.mediator.cache_stats(),
            "sessions": {
                "open": self.sessions.session_count(),
                "inflight": self.sessions.inflight(),
                "limits": self.limits.as_dict(),
            },
        }

    def __repr__(self):
        return "MediatorService({!r}, sessions={})".format(
            self.mediator, self.sessions.session_count()
        )
