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
``MIX-E-SESSION`` reply an unknown id gets.  Every request runs inside
a ``serve:<op>`` command span on the shared instrument, so admission
latency and the per-op request mix are visible in traces exactly like
QDOM commands are.
"""

from __future__ import annotations

from repro import stats as statnames
from repro.errors import MixError, SqlError, UnknownOpError
from repro.server import protocol
from repro.server.sessions import ServerLimits, SessionManager
from repro.xmltree import serialize


def _descriptor(session, qdom_node):
    """The wire form of one navigable node (``None`` stays ``None``).

    The label is read off the node: the client issued no ``fl``, so
    the reply must not cost one.
    """
    if qdom_node is None:
        return {"node": None}
    return {
        "node": session.put(qdom_node),
        "label": qdom_node.vnode.node.label,
        "oid": str(qdom_node.oid),
    }


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
        self._ops = {
            "hello": self._op_hello,
            "open": self._op_open,
            "close": self._op_close,
            "query": self._op_query,
            "q": self._op_q,
            "d": self._op_d,
            "r": self._op_r,
            "fl": self._op_fl,
            "fv": self._op_fv,
            "children": self._op_children,
            "walk": self._op_walk,
            "tree": self._op_tree,
            "find": self._op_find,
            "explain": self._op_explain,
            "sql": self._op_sql,
            "stats": self._op_stats,
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
        try:
            request = protocol.decode_frame(
                data, max_bytes=self.limits.max_frame_bytes
            )
        except MixError as exc:
            self.obs.incr(statnames.SERVE_REQUESTS)
            self.obs.incr(statnames.SERVE_REJECTED)
            reply = protocol.error_reply(protocol.recover_id(data), exc)
            return protocol.encode_frame(reply)
        reply = self.handle(request, owner)
        encoded = protocol.encode_frame(reply)
        if (reply.get("ok")
                and self.limits.max_result_bytes is not None
                and len(encoded) > self.limits.max_result_bytes):
            from repro.errors import ResultTooLargeError

            oversize = protocol.error_reply(
                request["id"],
                ResultTooLargeError(
                    "reply of {} bytes exceeds the {}-byte result cap"
                    .format(len(encoded), self.limits.max_result_bytes)
                ),
            )
            return protocol.encode_frame(oversize)
        return encoded

    def handle(self, request, owner=None):
        """One decoded request dict to one reply dict (never raises)."""
        request_id = request.get("id")
        op = request.get("op")
        self.obs.incr(statnames.SERVE_REQUESTS)
        handler = self._ops.get(op)
        if handler is None:
            self.obs.incr(statnames.SERVE_REJECTED)
            return protocol.error_reply(request_id, UnknownOpError(
                "unknown op {!r}".format(op), known=sorted(self._ops)
            ))
        try:
            admission = self.sessions.admit()
        except MixError as exc:
            # admit() already counted the rejection.
            return protocol.error_reply(request_id, exc)
        with admission:
            with self.obs.command_span(
                "serve:{}".format(op), kind="serve", request=str(request_id)
            ):
                try:
                    return protocol.ok_reply(
                        request_id, handler(request, owner)
                    )
                except MixError as exc:
                    self.obs.incr(statnames.SERVE_ERRORS)
                    return protocol.error_reply(request_id, exc)
                except Exception as exc:  # noqa: BLE001 — must not wedge
                    self.obs.incr(statnames.SERVE_ERRORS)
                    return protocol.error_reply(request_id, exc)

    def release(self, owner):
        """Teardown hook for transports: close every session ``owner``
        opened (a disconnected client must not leak its handle
        tables)."""
        return self.sessions.close_all(owner)

    # -- op handlers -----------------------------------------------------------------

    def _op_hello(self, request, owner):
        return {
            "server": "repro.server",
            "protocol": "jsonl/1",
            "ops": sorted(self._ops),
            "limits": self.limits.as_dict(),
        }

    def _op_open(self, request, owner):
        session = self.sessions.open(owner)
        return {"session": session.id}

    def _op_close(self, request, owner):
        session_id = request.get("session")
        return {"closed": self.sessions.close(session_id, owner)}

    def _session(self, request, owner):
        return self.sessions.get(request.get("session"), owner)

    def _node(self, request, session):
        return session.get(request.get("node"))

    def _query_text(self, request):
        query = request.get("query")
        if not isinstance(query, str) or not query.strip():
            from repro.errors import ProtocolError

            raise ProtocolError("'query' must be a non-empty string")
        return query

    def _op_query(self, request, owner):
        session = self._session(request, owner)
        root = self.mediator.query(self._query_text(request))
        return _descriptor(session, root)

    def _op_q(self, request, owner):
        session = self._session(request, owner)
        node = self._node(request, session)
        return _descriptor(session, node.q(self._query_text(request)))

    def _op_d(self, request, owner):
        session = self._session(request, owner)
        return _descriptor(session, self._node(request, session).d())

    def _op_r(self, request, owner):
        session = self._session(request, owner)
        return _descriptor(session, self._node(request, session).r())

    def _op_fl(self, request, owner):
        session = self._session(request, owner)
        return {"label": self._node(request, session).fl()}

    def _op_fv(self, request, owner):
        session = self._session(request, owner)
        return {"value": self._node(request, session).fv()}

    def _op_children(self, request, owner):
        session = self._session(request, owner)
        node = self._node(request, session)
        return {
            "children": [
                _descriptor(session, child) for child in node.children()
            ]
        }

    def _op_find(self, request, owner):
        session = self._session(request, owner)
        node = self._node(request, session)
        return _descriptor(session, node.find(request.get("label")))

    def _op_walk(self, request, owner):
        # Delegates to QdomNode.walk: under a block-mode mediator the
        # transcript is produced with bulk d_many commands riding the
        # prefetch path; at block_size=1 it replays the seed's per-hop
        # loop.  The reply is identical either way.
        session = self._session(request, owner)
        node = self._node(request, session)
        steps, truncated = node.walk(request.get("budget"))
        return {"steps": steps, "truncated": truncated}

    def _op_tree(self, request, owner):
        session = self._session(request, owner)
        node = self._node(request, session)
        return {"xml": serialize(node.export_node())}

    def _op_explain(self, request, owner):
        # Times are masked: replies must be byte-stable so clients can
        # compare plans, not timings.
        return {"text": self.mediator.explain(
            self._query_text(request), mask_times=True
        )}

    def _op_sql(self, request, owner):
        if self.database is None:
            raise SqlError("this server exports no SQL shell database")
        statements = request.get("statements")
        if isinstance(statements, str):
            statements = [statements]
        if not isinstance(statements, list) or not all(
            isinstance(s, str) for s in statements
        ):
            from repro.errors import ProtocolError

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

    def _op_stats(self, request, owner):
        counters = {
            name: value
            for name, value in self.obs.snapshot().items()
            if not name.startswith("time:")
        }
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
