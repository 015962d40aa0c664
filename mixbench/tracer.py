"""The traced run: per-layer time and counts, measured from outside.

:func:`run_traced` drives the run's sessions over TCP, then the first
quarter of them twice more in-process — plainly, and with wrappers
installed around the public entry points of each ``src/repro`` package
— and derives every per-layer metric from the third pass's spans and
the instrument's counter deltas.  The first two give the socket cost,
the wrappers' own overhead and ``session_ms_p95``.

A span is ``(name, start, end, parent, session)``; its layer is the
package of the entry point.  A layer's self time is its spans' duration
minus what their child spans cover.  Evaluation is lazy, so engine,
source and executor work happens *inside* navigation calls: it is
attributed by those child spans, not by where the request entered.
Everything the wrappers cannot see inside a span stays with the span's
own layer — ``qdom`` self time is the mediator's glue (plan validation,
view expansion, handle wrapping), ``engine`` self time is operators plus
result-tree forcing and copying.
"""

import contextlib
import json
import statistics
import time

from mixbench.driver import Driver
from mixbench.harness import (
    TIMED_SLICES, quiet_collector, raw_report, run_slices, set_up,
)
from mixbench.launcher import build_service
from mixbench.metrics import (
    factors, percentile, pooled, slice_factor, slice_walls, spread,
)

_clock = time.perf_counter_ns

#: Timed slices the in-process passes replay.  Whole slices, so their
#: sessions hold the same windows as the end-to-end run's and every
#: per-session count equals that run's.
TRACED_SLICES = TIMED_SLICES // 4
#: Sessions of the traced run whose spans are written to the trace file
#: (totals cover every session; a deep_walk session alone is ~2k spans).
KEPT_SESSIONS = 16


class Tracer:
    """Span recorder with online self-time totals.

    Single-threaded by construction: the traced run calls
    ``handle_line`` directly from the driver's thread.
    """

    def __init__(self):
        #: Timed-session number; ``None`` (warm-up) keeps no spans.
        self.session = None
        self.spans = []
        self._stack = []  # [name, layer, span index, child ns, start]
        self.totals = {}  # name -> [calls, total ns, self ns]
        self.layer_self = {}  # layer -> self ns
        self.root_ns = 0
        self.extra = {}  # hook-maintained counts (bytes, rules fired)
        #: Entry points the program no longer has under their name.
        self.missing = []

    def bump(self, key, amount):
        self.extra[key] = self.extra.get(key, 0) + amount

    def next_session(self):
        self.session += 1

    def take(self):
        """Totals accumulated since the last call, then reset."""
        taken = (self.totals, self.layer_self, self.root_ns, self.extra)
        self.totals, self.layer_self, self.root_ns, self.extra = {}, {}, 0, {}
        return taken

    def wrap(self, function, name, layer, inner_only=False, after=None):
        """``function`` with a span around each call.

        ``inner_only`` targets (per-row cursor pulls) are recorded only
        when they cross into their layer, not when a span of the same
        layer already encloses them.  ``after(tracer, self, result)``
        lets a target add counts the spans do not carry.
        """
        stack = self._stack

        def traced(*args, **kwargs):
            if inner_only and stack and stack[-1][1] == layer:
                return function(*args, **kwargs)
            keep = (
                self.session is not None and self.session < KEPT_SESSIONS
            )
            index = len(self.spans)
            if keep:
                self.spans.append(None)
            frame = [name, layer, index, 0, _clock()]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                ended = _clock()
                stack.pop()
                took = ended - frame[4]
                own = took - frame[3]
                if stack:
                    stack[-1][3] += took
                    parent = stack[-1][2]
                else:
                    self.root_ns += took
                    parent = -1
                if keep:
                    self.spans[index] = (
                        name, frame[4], ended, parent, self.session
                    )
                total = self.totals.get(name)
                if total is None:
                    total = self.totals[name] = [0, 0, 0]
                total[0] += 1
                total[1] += took
                total[2] += own
                self.layer_self[layer] = self.layer_self.get(layer, 0) + own
            if after is not None:
                after(self, args[0] if args else None, result)
            return result

        return traced


def _targets():
    """``(layer, owner, attribute, inner_only, after)`` for every
    wrapped entry point.  Functions imported by name are patched where
    they are *used* (``repro.qdom.mediator.parse_xquery``)."""
    from repro.algebra import translator
    from repro.cache import manager, sqlcache
    from repro.engine import lazy, vtree
    from repro.qdom import api, mediator
    from repro.relational import cursor, database
    from repro.rewriter import engine as rewriter
    from repro.server import protocol, service, sessions
    from repro.sources import relational as wrapper

    def rules(tracer, rewriter_self, _):
        tracer.bump("rules_fired", len(rewriter_self.last_rule_names))
        tracer.bump("probes", rewriter_self.last_probes)

    def reply_bytes(tracer, _, reply):
        tracer.bump("reply_bytes", len(reply))

    def xml_bytes(tracer, _, xml):
        tracer.bump("serialized_bytes", len(xml))

    plain = []
    for layer, owner, names in (
        ("server", protocol, "decode_frame encode_frame"),
        ("server", sessions.SessionManager, "admit get"),
        ("qdom", mediator.Mediator, "query query_from prepare"),
        ("qdom", api.QdomNode, "d r fl fv children walk to_tree"),
        ("cache", manager.CacheManager,
         "lookup_plan store_plan lookup_result store_result"),
        ("cache", sqlcache.SqlResultCache, "execute"),
        ("xquery", mediator, "parse_xquery"),
        ("algebra", translator.Translator, "translate"),
        ("composer", mediator, "compose_at_root decontextualize"),
        ("rewriter", mediator, "push_to_sources"),
        ("engine", lazy.LazyEngine, "evaluate_tree"),
        ("engine", vtree.VNode, "down right down_many"),
        ("engine", vtree, "vnode_to_tree"),
        ("sources", wrapper.RelationalWrapper, "execute_sql"),
        ("relational", database.Database, "execute run"),
    ):
        plain += [(layer, owner, name, False, None) for name in names.split()]
    return plain + [
        ("server", service.MediatorService, "handle_line", False,
         reply_bytes),
        ("rewriter", rewriter.Rewriter, "rewrite", False, rules),
        ("xmltree", service, "serialize", False, xml_bytes),
        ("relational", cursor.Cursor, "fetch_block", False, None),
        ("relational", cursor.Cursor, "fetchone", True, None),
    ]


@contextlib.contextmanager
def wrappers(tracer):
    """Install the wrappers for the duration of the block.

    A later refactor of ``src/`` may rename a wrapped internal, and a
    PR that claims a gain may not edit this directory: such a target is
    reported by name (``tracer.missing``) and its spans are simply
    absent, the run goes on.
    """
    saved = []
    try:
        for layer, owner, attr, inner_only, after in _targets():
            name = "{}.{}".format(
                getattr(owner, "__name__", "").rsplit(".", 1)[-1], attr
            )
            original = owner.__dict__.get(attr)
            if original is None:
                tracer.missing.append(name)
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(
                original, name, layer, inner_only, after
            ))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _in_process(plan, tracer=None):
    """Drive a fresh in-process deployment through ``handle_line``;
    ``(driver, slice records, counter deltas)`` for the timed slices.
    With a ``tracer``, each record also carries the slice's span totals."""
    service, instrument = build_service(plan.workload)

    def send(data):
        return json.loads(service.handle_line(data.rstrip(b"\n")))

    driver = Driver(send)
    for _ in run_slices(driver, plan.warmup):
        pass
    if tracer is not None:
        tracer.take()
        tracer.session = -1
        driver.on_session = tracer.next_session
    before = instrument.snapshot()
    records = []
    for record in run_slices(driver, plan.timed[:TRACED_SLICES]):
        if tracer is not None:
            record["spans"] = tracer.take()
        records.append(record)
    return driver, records, instrument.diff(before)


def _p50_ms(records, field):
    return 1e3 * statistics.median(pooled(records, field))


def run_traced(plan):
    """``(per-layer metrics, report)`` of one traced run."""
    with quiet_collector(disable=False):
        server, client, tcp_driver, _ = set_up(plan)
        with server:
            try:
                tcp_records = list(run_slices(tcp_driver, plan.timed))
            finally:
                client.close()
        plain_driver, plain_records, _ = _in_process(plan)
        tracer = Tracer()
        with wrappers(tracer):
            traced_driver, records, deltas = _in_process(plan, tracer)
    metrics, layers = per_layer_metrics(
        records, deltas,
        socket_ms_per_frame=(
            _p50_ms(tcp_records, "nav") - _p50_ms(plain_records, "nav")),
        plain_ms=_p50_ms(plain_records, "session"),
        p95_ms=1e3 * percentile(pooled(tcp_records, "session"), 0.95),
    )
    report = raw_report(
        plan, [tcp_driver, plain_driver, traced_driver], records
    )
    names = sorted({span[0] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    report["trace"] = {
        "note": "spans of the first {} timed sessions of the wrapped "
                "run: [name index, start ns, end ns, parent span index "
                "or -1, session]".format(KEPT_SESSIONS),
        "names": names,
        "spans": [[index[s[0]]] + list(s[1:]) for s in tracer.spans],
    }
    report["layer_self_ms_per_session"] = layers
    report["p95_sessions"] = plan.per_slice * len(tcp_records)
    report["missing_targets"] = tracer.missing
    return metrics, report


def per_layer_metrics(records, deltas, socket_ms_per_frame, plain_ms, p95_ms):
    sessions = sum(len(r["times"]) for r in records)
    scale = [slice_factor(r) for r in records]
    totals = {}  # name -> [calls, scaled total ms, scaled self ms]
    layers = {}
    extra = {}
    covered_ms = 0.0
    for record, factor in zip(records, scale):
        by_name, by_layer, root_ns, counts = record["spans"]
        for name, (calls, total, own) in by_name.items():
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total * factor / 1e6
            entry[2] += own * factor / 1e6
        for layer, own in by_layer.items():
            layers[layer] = layers.get(layer, 0.0) + own * factor / 1e6
        for key, amount in counts.items():
            extra[key] = extra.get(key, 0) + amount
        covered_ms += root_ns * factor / 1e6
    wall_ms = 1e3 * sum(slice_walls(records))

    def calls(*names):
        return sum(totals.get(n, (0, 0, 0))[0] for n in names)

    def total_ms(*names):
        return sum(totals.get(n, (0, 0, 0))[1] for n in names)

    def per(amount, count):
        return amount / count if count else 0.0

    def counter(name):
        return deltas.get(name, 0)

    def ratio(prefix):
        hits = counter(prefix + "_hits")
        return per(hits, hits + counter(prefix + "_misses"))

    def layer(name):
        return per(layers.get(name, 0.0), sessions)

    compiles = calls("Rewriter.rewrite")
    composes = ("mediator.compose_at_root", "mediator.decontextualize")
    dml_ms = total_ms("Database.run")
    speed = [f for r in records for f, _ in factors(r)]
    traced_ms = _p50_ms(records, "session")
    frames = per(calls("MediatorService.handle_line"), sessions)
    metrics = {
        "server.self_ms_per_session": layer("server"),
        "server.decode_us_per_frame": 1e3 * per(
            total_ms("protocol.decode_frame"), calls("protocol.decode_frame")),
        "server.encode_us_per_frame": 1e3 * per(
            total_ms("protocol.encode_frame"), calls("protocol.encode_frame")),
        "server.frames_per_session": frames,
        "server.reply_bytes_per_session": per(
            extra.get("reply_bytes", 0), sessions),
        "server.socket_ms_per_session": frames * socket_ms_per_frame,
        "server.rejected_per_session": per(
            counter("serve_rejected"), sessions),
        "qdom.self_ms_per_session": layer("qdom"),
        "qdom.commands_per_session": per(counter("qdom_commands"), sessions),
        "qdom.prefetch_hits_per_session": per(
            counter("prefetch_hits"), sessions),
        "cache.self_ms_per_session": layer("cache"),
        "cache.plan_hit_ratio": ratio("plan_cache"),
        "cache.nav_memo_hit_ratio": ratio("nav_memo"),
        "cache.sql_hit_ratio": ratio("sql_cache"),
        "cache.invalidations_per_session": per(sum(
            counter(p + "_invalidations")
            for p in ("plan_cache", "nav_memo", "sql_cache")), sessions),
        "cache.evictions_per_session": per(sum(
            counter(p + "_evictions")
            for p in ("plan_cache", "nav_memo", "sql_cache")), sessions),
        "cache.tuples_from_cache_per_session": per(
            counter("tuples_from_cache"), sessions),
        "xquery.parse_ms_per_compile": per(
            total_ms("mediator.parse_xquery"),
            calls("mediator.parse_xquery")),
        "algebra.translate_ms_per_compile": per(
            total_ms("Translator.translate"), calls("Translator.translate")),
        "composer.compose_ms_per_refine": per(
            total_ms(*composes), calls(*composes)),
        "rewriter.rewrite_ms_per_compile": per(
            total_ms("Rewriter.rewrite"), compiles),
        "rewriter.split_ms_per_compile": per(
            total_ms("mediator.push_to_sources"),
            calls("mediator.push_to_sources")),
        "rewriter.rules_fired_per_compile": per(
            extra.get("rules_fired", 0), compiles),
        "rewriter.probes_per_compile": per(extra.get("probes", 0), compiles),
        "rewriter.compiles_per_session": per(compiles, sessions),
        "engine.self_ms_per_session": layer("engine"),
        "engine.operator_tuples_per_session": per(
            counter("operator_tuples"), sessions),
        "engine.elements_built_per_session": per(
            counter("elements_built"), sessions),
        "engine.buffered_tuples_per_session": per(
            counter("buffered_tuples"), sessions),
        "sources.self_ms_per_session": layer("sources"),
        "sources.sql_queries_per_session": per(
            counter("sql_queries"), sessions),
        "sources.tuples_shipped_per_session": per(
            counter("tuples_shipped"), sessions),
        "sources.blocks_shipped_per_session": per(
            counter("blocks_shipped"), sessions),
        "sources.navigations_per_session": per(
            counter("source_navigations"), sessions),
        "relational.self_ms_per_session": layer("relational"),
        "relational.exec_ms_per_sql": per(
            layers.get("relational", 0.0) - dml_ms, counter("sql_queries")),
        "relational.rows_scanned_per_session": per(
            counter("rows_scanned"), sessions),
        "relational.join_tuples_per_session": per(
            counter("join_tuples"), sessions),
        "relational.index_lookups_per_session": per(
            counter("index_lookups"), sessions),
        "relational.dml_ms_per_statement": per(
            dml_ms, calls("Database.run")),
        "xmltree.serialize_ms_per_session": layer("xmltree"),
        "xmltree.serialized_bytes_per_session": per(
            extra.get("serialized_bytes", 0), sessions),
        "trace.overhead_ratio": traced_ms / plain_ms,
        "trace.unattributed_ms_per_session": per(
            wall_ms - covered_ms, sessions),
        "bench.speed_factor_p50": statistics.median(speed),
        "bench.speed_factor_spread": spread(speed),
        "session_ms_p95": p95_ms,
    }
    return metrics, {name: layer(name) for name in sorted(layers)}
