"""Sharded tables: one logical table, k member wrappers, parallel
scatter-gather at the rQ boundary.

A :class:`ShardedSource` fronts k relational wrappers that each hold a
horizontal slice of one *partitioned* table (hash- or range-split on a
declared key, see :class:`Partition`) plus identical copies of any
*replicated* tables.  Behind the existing catalog protocol it looks
like a single relational source — the translator, rewriter, and
optimizer never learn the table is sharded:

* **scatter** — a pushed SELECT that references the partitioned table
  is sent to every member whose per-shard ``ANALYZE`` statistics cannot
  rule it out (:mod:`repro.optimizer.shardstats`); member statements
  run concurrently on a bounded ``concurrent.futures`` pool, each
  member stream (:class:`ShardStream`) prefetched block-at-a-time;
* **gather** — a row iterator (:class:`_Gather`) merges the member
  streams back into one: member order for range partitioning
  (preserving the partition-key order), arrival order for hash
  partitioning, and an exact k-way merge whenever the statement
  carries an ``ORDER BY``.  The source decides the mode and wraps the
  gather in the one :class:`~repro.relational.cursor.Cursor`, so a
  scattered statement fetches, parks a failure and closes like any
  other;
* **degrade** — wrap the members with
  :func:`repro.resilience.shard_resilience` (each gets its *own*
  breaker), and under a degrading mediator a dead member costs one
  ``<mix:error>`` stub plus the surviving members' rows, never the
  whole query.  One method, :meth:`ShardedSource._member_failure`,
  turns a member's failure into a counted :class:`ShardError`, for the
  scatter and for navigation alike.

Replicated-only statements route to the first member; navigation over
the partitioned document concatenates the members' child streams in
member order.
"""

from __future__ import annotations

import heapq
import threading
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial

from repro import stats as statnames
from repro.errors import (
    CircuitOpenError,
    ShardError,
    SourceError,
    TransientSourceError,
)
from repro.relational import ast
from repro.relational.ast import bind_sql
from repro.relational.cursor import Cursor
from repro.relational.parser import parse_sql
from repro.relational.types import sort_key
from repro.sources.base import Source

#: Partitioning schemes.
HASH = "hash"
RANGE = "range"


def hash_shard(value, n_shards):
    """The member index a key value hashes to.

    Uses ``crc32`` over the value's text, *not* Python's builtin
    ``hash`` — the builtin is salted per process, and shard placement
    must be stable across runs (and across the processes of a
    scatter-gather federation).
    """
    return zlib.crc32(str(value).encode("utf-8")) % int(n_shards)


class Partition:
    """Declares how the logical table is split across the members.

    Args:
        table: the partitioned table's name.
        key: the partition-key column.
        scheme: ``"hash"`` (rows placed by :func:`hash_shard` of the
            key) or ``"range"`` (members hold contiguous, ascending key
            ranges in member order — which is what lets the gather
            preserve key order by simple concatenation).
    """

    def __init__(self, table, key, scheme=HASH):
        if scheme not in (HASH, RANGE):
            raise ValueError(
                "partition scheme must be 'hash' or 'range', "
                "got {!r}".format(scheme)
            )
        self.table = table
        self.key = key
        self.scheme = scheme

    def __repr__(self):
        return "Partition({}, key={}, {})".format(
            self.table, self.key, self.scheme
        )


class ShardedSource(Source):
    """One logical relational source backed by k shard members.

    Args:
        members: the member wrappers, in shard order (for range
            partitioning the order *is* the key order).  Any wrapper
            speaking the relational protocol works — including members
            individually wrapped in
            :class:`~repro.resilience.ResilientSource`.
        partition: the :class:`Partition` declaration.
        replicated: names of tables present identically on every
            member (the small dimension tables a pushed join may
            reference).
        server_name: the catalog server name of the logical source.
        obs: instrument receiving ``shards_scattered`` /
            ``shards_pruned`` / ``shards_failed``.

    The scatter pool runs one worker per member, and each member stream
    keeps the :class:`ShardStream` default of 4 blocks buffered ahead
    of the gather.
    """

    def __init__(self, members, partition, replicated=(),
                 server_name="shards", obs=None):
        members = list(members)
        if not members:
            raise ValueError("a ShardedSource needs at least one member")
        self.members = members
        self.partition = partition
        self.replicated = tuple(replicated)
        self.server_name = server_name
        self._obs = obs
        self._block_size = 64
        self._pool = None
        self._lock = threading.Lock()   # the pool and the tallies
        self._health = {"scattered": 0, "pruned": 0, "failed": 0}

    # -- the scatter pool ---------------------------------------------------------

    def _ensure_pool(self):
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=len(self.members),
                    thread_name_prefix="shard-{}".format(self.server_name),
                )
            return self._pool

    def close(self):
        """Shut the scatter pool down (idle shards keep no threads)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    # -- configuration forwarded to every member ----------------------------------

    def set_block_size(self, size):
        size = int(size)
        self._block_size = size if size > 1 else 1
        for member in self.members:
            member.set_block_size(size)
        return self

    def enable_sql_cache(self, maxsize=128, obs=None):
        for member in self.members:
            member.enable_sql_cache(maxsize, obs=obs)
        return self

    def set_cost_optimizer(self, enabled):
        for member in self.members:
            member.set_cost_optimizer(enabled)
        return self

    # -- versioning / statistics ---------------------------------------------------

    def data_version(self):
        """Combined member fingerprint, or ``None`` (unversioned) when
        any member cannot report one."""
        versions = []
        for member in self.members:
            version = member.data_version()
            if version is None:
                return None
            versions.append(version)
        return ("shard", self.server_name, tuple(versions))

    def analyze(self):
        """``ANALYZE`` every member; returns total tables profiled.

        Per-member statistics are what shard pruning runs on — call
        this (or ``Mediator.analyze_sources()``) after loading."""
        return sum(member.analyze() or 0 for member in self.members)

    def table_statistics(self, table_name):
        """Merged logical-table statistics (``None`` unless every
        member has fresh statistics for ``table_name``)."""
        from repro.optimizer.shardstats import merge_table_statistics

        if table_name in self.replicated:
            return self.members[0].table_statistics(table_name)
        return merge_table_statistics(
            self._member_statistics(member, table_name)
            for member in self.members
        )

    @staticmethod
    def _member_statistics(member, table_name):
        try:
            return member.table_statistics(table_name)
        except SourceError:
            return None

    def estimate_sql(self, sql):
        """Sum of member estimates for a scattered statement (first
        member's for a replicated-only one), or ``None``."""
        try:
            stmt = self._parse_select(sql)
            route = self._route(stmt)
        except SourceError:
            return None
        members = self.members if route == "scatter" else self.members[:1]
        total = 0
        for member in members:
            estimate = member.estimate_sql(sql)
            if estimate is None:
                return None
            total += estimate
        return total

    # -- catalog surface -----------------------------------------------------------

    def document_ids(self):
        return self.members[0].document_ids()

    def table_for_document(self, doc_id):
        return self.members[0].table_for_document(doc_id)

    def label_for_document(self, doc_id):
        return self.members[0].label_for_document(doc_id)

    def describe_table(self, table_name):
        return self.members[0].describe_table(table_name)

    def oid_to_key(self, table_name, oid):
        return self.members[0].oid_to_key(table_name, oid)

    def supports_sql(self):
        return True

    # -- navigation ----------------------------------------------------------------

    def iter_document_children(self, doc_id):
        """Children of the document root, across all members.

        The partitioned document concatenates the members' child
        streams in member order (range partitioning therefore keeps key
        order); replicated documents read from the first member only —
        every member holds the same copy, and reading once is what
        keeps ``tuples_shipped`` identical to the unsharded layout.
        """
        table = self.table_for_document(doc_id)
        if table != self.partition.table:
            return self.members[0].iter_document_children(doc_id)
        return _ShardedChildIterator(self, doc_id)

    # -- scatter-gather ------------------------------------------------------------

    def execute_sql(self, sql, params=()):
        """Route and prune on the statement bound to ``params``; the
        members get the slotted text (widened for the merge when it
        must be) and the same ``params``."""
        stmt = self._parse_select(sql, params)
        if self._route(stmt) == "first":
            return self.members[0].execute_sql(sql, params)
        return self._scatter(stmt, sql, params)

    def _parse_select(self, sql, params=()):
        """The parse memo's statement for ``sql``, bound to ``params``."""
        try:
            stmt = parse_sql(sql)
            if isinstance(stmt, ast.SelectStmt):
                return stmt.bind(params)
        except Exception as exc:
            raise SourceError(
                "sharded source could not parse pushed SQL: {}".format(exc),
                sql=bind_sql(sql, params),
                source=self.server_name,
            )
        raise SourceError(
            "sharded source accepts SELECT statements only",
            sql=bind_sql(sql, params),
            source=self.server_name,
        )

    def _route(self, stmt):
        """``"scatter"`` or ``"first"`` — or raise for unscatterable SQL.

        A statement scatters when it references the partitioned table
        exactly once and every other table is replicated on all
        members: each partitioned row lives on exactly one member, so
        the union of the per-member inner joins is the global answer.
        """
        part_refs = [
            ref for ref in stmt.tables if ref.table == self.partition.table
        ]
        others = [
            ref.table for ref in stmt.tables
            if ref.table != self.partition.table
        ]
        unknown = sorted(
            set(t for t in others if t not in self.replicated)
        )
        if unknown:
            raise SourceError(
                "cannot scatter over non-replicated tables {} "
                "(partitioned: {!r}, replicated: {})".format(
                    unknown, self.partition.table, list(self.replicated)
                ),
                source=self.server_name,
            )
        if len(part_refs) > 1:
            raise SourceError(
                "self-joins on the partitioned table {!r} are not "
                "scatterable".format(self.partition.table),
                source=self.server_name,
            )
        return "scatter" if part_refs else "first"

    def _scatter(self, stmt, sql, params):
        shard_sql, sort_positions, project_width, names = self._shard_plan(
            stmt, sql
        )
        live, pruned = self._prune(stmt)
        if self._obs is not None:
            if pruned:
                self._obs.incr(statnames.SHARDS_PRUNED, pruned)
            if live:
                self._obs.incr(statnames.SHARDS_SCATTERED, len(live))
        with self._lock:
            self._health["pruned"] += pruned
            self._health["scattered"] += len(live)
        if not live:
            return Cursor(names, [])
        if sort_positions:
            mode = MERGE
        elif self.partition.scheme == RANGE:
            mode = ORDERED
        else:
            mode = ARRIVAL
        pool = self._ensure_pool()
        cond = threading.Condition()
        streams = [
            ShardStream(
                index,
                partial(member.execute_sql, shard_sql, params),
                partial(self._member_failure, index),
                pool,
                cond,
                block_size=self._block_size,
            )
            for index, member in live
        ]
        return Cursor(
            names,
            _Gather(streams, cond, mode, sort_positions, project_width,
                    stmt.distinct),
        )

    def _member_failure(self, index, exc, doc_id=None):
        """The :class:`ShardError` standing for member ``index``'s
        failure (``exc`` itself when it already is one), counted once
        in ``shards_failed`` and the ``-- shard:`` footer's ``failed``.

        The scatter calls it when a member stream delivers its failure,
        navigation (``doc_id`` given) when a member's child stream
        fails as a whole."""
        with self._lock:
            self._health["failed"] += 1
        if self._obs is not None:
            self._obs.incr(statnames.SHARDS_FAILED)
        if isinstance(exc, ShardError):
            return exc
        name = _member_name(self.members[index], index)
        shard_exc = ShardError(
            "shard {!r} failed {}: {}".format(
                name,
                "mid-gather" if doc_id is None else "during navigation",
                exc,
            ),
            doc_id=doc_id,
            sql=getattr(exc, "sql", None),
            source=name,
            shard=name,
            index=index,
        )
        shard_exc.__cause__ = exc
        return shard_exc

    def _prune(self, stmt):
        """``(live [(index, member)], pruned count)`` for a statement."""
        from repro.optimizer.shardstats import shard_prunable

        tables = set(ref.table for ref in stmt.tables)
        live, pruned = [], 0
        for index, member in enumerate(self.members):
            stats = {
                table: self._member_statistics(member, table)
                for table in tables
            }
            if shard_prunable(stmt, stats):
                pruned += 1
            else:
                live.append((index, member))
        return live, pruned

    # -- per-shard statement shape ---------------------------------------------------

    def _shard_plan(self, stmt, sql):
        """``(member SQL, sort positions, projection width, columns)``.

        The member statement is the pushed statement verbatim unless it
        carries an ``ORDER BY`` over columns the projection does not
        expose — those are appended as auxiliary select items (each
        member then ships them, the merge keys on them, and the cursor
        trims rows back to the true projection width).  A widened
        statement keeps the slots of ``sql``: it is built from the
        parse memo's unbound statement.
        """
        names = self._column_names(stmt)
        if not stmt.order_by:
            return sql, None, None, names
        width = len(names)
        positions, extras = [], []
        for ref in stmt.order_by:
            position = self._item_position(stmt, ref)
            if position is None:
                position = width + len(extras)
                extras.append(ast.SelectItem(ref))
            positions.append(position)
        if not extras:
            return sql, positions, None, names
        template = parse_sql(sql)
        widened = ast.SelectStmt(
            template.items + extras,
            template.tables,
            template.predicates,
            template.order_by,
            template.distinct,
        )
        return repr(widened), positions, width, names

    def _column_names(self, stmt):
        names = []
        for item in stmt.items:
            if item.is_star:
                for ref in stmt.tables:
                    schema = self.describe_table(ref.table)
                    names.extend(schema.column_names)
            elif item.alias:
                names.append(item.alias)
            else:
                names.append(item.ref.column)
        return names

    def _item_position(self, stmt, ref):
        """Position of an ORDER BY ref in the projection, or ``None``."""
        position = 0
        for item in stmt.items:
            if item.is_star:
                for table_ref in stmt.tables:
                    schema = self.describe_table(table_ref.table)
                    for column in schema.column_names:
                        if column == ref.column and (
                            ref.qualifier is None
                            or ref.qualifier == table_ref.alias
                        ):
                            return position
                        position += 1
                continue
            if item.ref == ref or (
                item.alias is not None
                and ref.qualifier is None
                and item.alias == ref.column
            ):
                return position
            position += 1
        return None

    # -- health --------------------------------------------------------------------

    def health(self):
        """``shard``: the cumulative scatter tallies; ``resilience``
        (when any member is resilient): the members' health, counters
        summed and breaker states joined in member order, so one
        flapping member is visible without hiding its siblings."""
        shard = {"source": self.server_name, "shards": len(self.members)}
        with self._lock:
            shard.update(self._health)
        health = {"shard": shard}
        reports = [
            report["resilience"]
            for report in (member.health() for member in self.members)
            if "resilience" in report
        ]
        if reports:
            resilience = {"source": self.server_name}
            for key in ("retries", "failures", "timeouts",
                        "circuit_rejections"):
                resilience[key] = sum(r[key] for r in reports)
            states = [r["breaker"] for r in reports]
            resilience["breaker"] = (
                "/".join(str(s) for s in states) if any(states) else None
            )
            resilience["breaker_transitions"] = [
                transition
                for r in reports
                for transition in r["breaker_transitions"]
            ]
            health["resilience"] = resilience
        return health

    def __repr__(self):
        return "ShardedSource({}, {} members, {!r})".format(
            self.server_name, len(self.members), self.partition
        )


def _member_name(member, index):
    """How a member's failures read: its own ``name`` when it has one
    (:func:`~repro.resilience.shard_resilience` already names members
    ``<base>[<index>]``), else ``<server name>[<index>]``."""
    name = getattr(member, "name", None)
    if name:
        return name
    base = member.server_name or type(member).__name__
    return "{}[{}]".format(base, index)


class ShardStream:
    """One shard member's block feed, pumped on a shared thread pool.

    The stream keeps up to ``depth`` blocks buffered ahead of the
    consumer.  Exactly one fetch task is in flight per stream at any
    moment (the member cursor is touched by one thread at a time); a
    completing task re-submits itself while the buffer has room, so all
    members of a scatter keep fetching while the gather consumes.  The
    member cursor itself is *opened* (``opener()``) inside the first
    task, which is what parallelizes the per-shard SQL execution, not
    just the row transfer.

    All consumer-side state is guarded by the gather's condition
    variable (shared so an arrival-order gather can wait on "any stream
    has data" with a single wait).  ``fail(exc)`` turns the member's
    failure into the :class:`ShardError` the consumer sees.
    """

    def __init__(self, index, opener, fail, pool, cond, block_size=64,
                 depth=4):
        self.index = index
        self._opener = opener
        self._fail = fail
        self._pool = pool
        self._cond = cond
        self._block = max(1, int(block_size))
        self._depth = max(1, int(depth))
        self._cursor = None
        self._buffer = deque()     # blocks (lists of rows), oldest first
        self._inflight = False
        self._exhausted = False
        self._error = None         # member failure, delivered once
        self._closed = False
        with cond:
            self._pump()

    # -- producer side (pool threads) ---------------------------------------------

    def _pump(self):
        """Schedule one fetch task (caller holds the condition)."""
        self._inflight = True
        try:
            self._pool.submit(self._fetch_task)
        except RuntimeError:  # pool already shut down
            self._inflight = False

    def _fetch_task(self):
        try:
            if self._cursor is None:
                self._cursor = self._opener()
            rows = self._cursor.fetch_block(self._block)
        except Exception as exc:  # held for the consumer, incl. SourceError
            with self._cond:
                self._error = exc
                self._inflight = False
                self._cond.notify_all()
            return
        with self._cond:
            if rows:
                self._buffer.append(rows)
            else:
                self._exhausted = True
            if (not self._closed and not self._exhausted
                    and len(self._buffer) < self._depth):
                self._pump()
            else:
                self._inflight = False
            self._cond.notify_all()

    # -- consumer side (call holding the condition) --------------------------------

    def has_block(self):
        return bool(self._buffer)

    def finished(self):
        """No data buffered and none coming (failure counts as done
        only after :meth:`take_block` has surfaced it)."""
        return (not self._buffer and not self._inflight
                and self._exhausted and self._error is None)

    def take_block(self, wait=True):
        """The next buffered block; ``[]`` when the stream is over,
        ``None`` when ``wait=False`` and nothing is ready yet.

        A member failure is raised exactly once, through ``fail``,
        after every block fetched before it has been delivered;
        afterwards the stream reads as exhausted, so the gather
        continues on the surviving members.
        """
        while True:
            if self._buffer:
                rows = self._buffer.popleft()
                if (not self._inflight and not self._exhausted
                        and self._error is None and not self._closed):
                    self._pump()
                return rows
            if self._error is not None:
                exc, self._error = self._error, None
                self._exhausted = True
                raise self._fail(exc)
            if self._exhausted or not self._inflight:
                self._exhausted = True
                return []
            if not wait:
                return None
            self._cond.wait()

    def close(self):
        with self._cond:
            self._closed = True


#: Gather modes, decided by :meth:`ShardedSource._scatter`.
ARRIVAL = "arrival"    # whichever member has a block ready first
ORDERED = "ordered"    # member index order (range partitioning)
MERGE = "merge"        # k-way merge on ORDER BY key positions


class _Gather:
    """A scatter's member streams as one row iterator.

    * ``arrival`` interleaves blocks as members produce them (hash
      partitioning; no order to preserve);
    * ``ordered`` concatenates members in index order while later
      members prefetch in the background (range partitioning keeps the
      partition-key order);
    * ``merge`` heap-merges member streams already sorted by the pushed
      ``ORDER BY`` (``sort_positions`` are the key's column positions in
      the shard rows), preserving the global sort exactly.

    ``project_width`` trims rows that were widened with auxiliary
    ORDER-BY columns back to the statement's true projection;
    ``distinct`` re-applies DISTINCT globally (per-shard DISTINCT
    cannot see cross-shard duplicates).

    A member failure raises its :class:`ShardError` from ``next()`` at
    the position where that member's rows stopped — once — and the
    iterator goes on with the surviving members afterwards, which is
    what lets a degrading engine turn a dead shard into one
    ``<mix:error>`` stub plus a partial answer.  Rows are accounted in
    the member cursors (they ship from the members exactly once).
    """

    def __init__(self, streams, cond, mode, sort_positions=None,
                 project_width=None, distinct=False):
        self._streams = streams
        self._cond = cond
        self._fill = {
            ARRIVAL: self._fill_arrival,
            ORDERED: self._fill_ordered,
            MERGE: self._fill_merge,
        }[mode]
        self._sort_positions = sort_positions
        self._project_width = project_width
        self._seen = set() if distinct else None
        self._rows = deque()        # gathered rows, not yet delivered
        self._next_ordered = 0      # ordered: the member being read
        self._heap = []             # merge: one head row per member
        # merge: (stream, rest of its block) whose next row is not on
        # the heap — every member at first, then the one last popped.
        self._refill = deque((stream, iter(())) for stream in streams)

    def __iter__(self):
        return self

    def __next__(self):
        while True:
            if not self._rows:
                with self._cond:
                    self._fill()
                if not self._rows:
                    raise StopIteration
            row = self._rows.popleft()
            if self._project_width is not None:
                row = tuple(row[:self._project_width])
            if self._seen is not None:
                if row in self._seen:
                    continue
                self._seen.add(row)
            return row

    def close(self):
        for stream in self._streams:
            stream.close()

    # -- fills: buffer at least one row, or none when every stream is done ---------

    def _fill_arrival(self):
        while not self._rows:
            live = [s for s in self._streams if not s.finished()]
            if not live:
                return
            # Prefer a stream with a block already buffered; only wait
            # when every live stream is still fetching.
            ready = next((s for s in live if s.has_block()), None)
            target = ready if ready is not None else live[0]
            rows = target.take_block(wait=ready is not None)
            if rows is None:
                self._cond.wait()
            else:
                self._rows.extend(rows)

    def _fill_ordered(self):
        # A member that raised reads as exhausted: the next call moves on.
        while not self._rows and self._next_ordered < len(self._streams):
            rows = self._streams[self._next_ordered].take_block()
            if rows:
                self._rows.extend(rows)
            else:
                self._next_ordered += 1

    def _fill_merge(self):
        # A popped member's next row is pushed on the *next* fill, so
        # its failure surfaces after the row it last delivered.
        while self._refill:
            stream, rest = self._refill.popleft()
            row = next(rest, None)
            if row is None:
                block = stream.take_block()
                if not block:
                    continue
                rest = iter(block)
                row = next(rest)
            key = tuple(sort_key(row[p]) for p in self._sort_positions)
            heapq.heappush(self._heap, (key, stream.index, row, stream, rest))
        if self._heap:
            __, __, row, stream, rest = heapq.heappop(self._heap)
            self._rows.append(row)
            self._refill.append((stream, rest))


class _ShardedChildIterator:
    """Member-order concatenation of the partitioned document's children.

    It speaks the engine's pull protocol: a raise consumes nothing, and
    ``skip()`` abandons what the raise lost.  A member's position-level
    failure passes through unchanged — a transient one stays transient
    (the member's ``retry_safe`` iterator re-attempts it), a permanent
    one is skipped through the member's own ``skip()``.  A member that
    failed to open, whose breaker is open, or that cannot re-attempt or
    skip, fails as a whole: the raise is a :class:`ShardError` and
    ``skip()`` moves on to the next member's children.
    """

    retry_safe = True

    def __init__(self, sharded, doc_id):
        self._sharded = sharded
        self._doc = doc_id
        self._index = 0
        self._inner = None
        self._failed = False

    def __iter__(self):
        return self

    def __next__(self):
        members = self._sharded.members
        while True:
            if self._index >= len(members):
                raise StopIteration
            if self._inner is None:
                try:
                    self._inner = iter(
                        members[self._index].iter_document_children(
                            self._doc
                        )
                    )
                except SourceError as exc:
                    raise self._member_error(exc)
            try:
                return next(self._inner)
            except StopIteration:
                self._advance()
            except SourceError as exc:
                if self._member_recovers(exc):
                    raise
                raise self._member_error(exc)

    def _member_recovers(self, exc):
        """Whether the member's iterator can take ``exc`` back itself:
        re-attempt it (transient) or skip past it (permanent)."""
        inner = self._inner
        if isinstance(exc, (CircuitOpenError, ShardError)) or not getattr(
            inner, "retry_safe", False
        ):
            return False
        return isinstance(exc, TransientSourceError) or hasattr(
            inner, "skip"
        )

    def _member_error(self, exc):
        self._failed = True
        return self._sharded._member_failure(self._index, exc, self._doc)

    def skip(self):
        """Abandon what the last raise lost: the failed member, or the
        failed position of a member that can skip it."""
        if self._failed:
            self._advance()
        else:
            self._inner.skip()

    def _advance(self):
        self._index += 1
        self._inner = None
        self._failed = False

    def __repr__(self):
        return "_ShardedChildIterator({!r}, member={})".format(
            self._doc, self._index
        )
