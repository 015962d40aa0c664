"""Cursors: the pull interface between the mediator and a source.

Every row fetched through a cursor is counted under
:data:`repro.stats.TUPLES_SHIPPED` — this is *the* boundary the paper's
efficiency arguments are about ("the transfer of the minimum amount of
data between the mediator and the sources").

Sharded tables add a second cursor shape: :class:`ShardMergeCursor`
gathers k per-shard cursors — each pumped concurrently on a bounded
thread pool by a :class:`ShardStream` — back into one forward-only
stream with the same ``fetchone``/``fetchmany``/``fetch_block``
surface, so the engines cannot tell a scattered statement from a
single-source one.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from itertools import islice

from repro import stats as statnames
from repro.errors import ShardError, SourceError


class Cursor:
    """A forward-only cursor over a row generator.

    Supports the DB-API-flavoured ``fetchone`` / ``fetchmany`` /
    ``fetchall`` plus plain iteration.  Closing the cursor closes the
    underlying generator, so unread rows are never computed.

    ``after_fetch(n)``, when given, is called at the end of every fetch
    with the number of rows it took (the executor flushes its work
    counters there, inside whatever span asked for the rows).
    """

    def __init__(self, column_names, rows, stats=None, after_fetch=None):
        self.column_names = list(column_names)
        self._rows = iter(rows)
        self._stats = stats
        self._after_fetch = after_fetch
        self._closed = False
        self._pending_exc = None
        self.rows_fetched = 0

    def _pull(self, size):
        """Up to ``size`` rows straight off the generator, accounted as
        one fetch.  Rows pulled before the generator raises are kept:
        ``(rows, exception or None)``."""
        out = []
        failure = None
        try:
            if not self._closed:
                for row in islice(self._rows, size):
                    out.append(row)
                if size is None or len(out) < size:
                    self._closed = True
        except Exception as exc:
            failure = exc
        finally:
            self.rows_fetched += len(out)
            if out and self._stats is not None:
                self._stats.incr(statnames.TUPLES_SHIPPED, len(out))
            if self._after_fetch is not None:
                self._after_fetch(len(out))
        return out, failure

    def fetchone(self):
        """The next row, or ``None`` when exhausted."""
        out, failure = self._pull(1)
        if failure is not None:
            raise failure
        return out[0] if out else None

    def fetchmany(self, size):
        """Up to ``size`` rows (possibly fewer at the end)."""
        out, failure = self._pull(size)
        if failure is not None:
            raise failure
        return out

    def fetch_block(self, size):
        """Up to ``size`` rows as one shipped block (block execution).

        Row accounting is unchanged — every row still counts one
        :data:`~repro.stats.TUPLES_SHIPPED` — but each non-empty batch
        additionally counts one :data:`~repro.stats.BLOCKS_SHIPPED`, so
        block-vs-tuple runs ship identical row totals while the block
        counter exposes the batching.

        A row generator that fails mid-batch loses nothing: the rows
        fetched before the failure are returned as a partial block and
        the exception is re-raised on the *next* call, exactly where a
        ``fetchone`` loop would have surfaced it.
        """
        if self._pending_exc is not None:
            exc, self._pending_exc = self._pending_exc, None
            raise exc
        out, failure = self._pull(size)
        if failure is not None:
            if not out:
                raise failure
            self._pending_exc = failure
        if out and self._stats is not None:
            self._stats.incr(statnames.BLOCKS_SHIPPED)
        return out

    def fetchall(self):
        """All remaining rows."""
        out, failure = self._pull(None)
        if failure is not None:
            raise failure
        return out

    def close(self):
        """Close the row generator; subsequent fetches return ``None``."""
        self._closed = True
        close = getattr(self._rows, "close", None)
        if close is not None:
            close()

    def record(self, on_exhausted):
        """Pass the rows this cursor ships to ``on_exhausted`` once the
        row generator runs out (not on close or failure); fetches and
        their accounting are unchanged.  Returns the cursor."""
        rows = self._rows

        def recording():
            kept = []
            for row in rows:
                kept.append(row)
                yield row
            on_exhausted(kept)

        self._rows = recording()
        return self

    def __iter__(self):
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def __repr__(self):
        state = "closed" if self._closed else "open"
        return "Cursor({}, {} fetched, {})".format(
            self.column_names, self.rows_fetched, state
        )


class ShardStream:
    """One shard member's block feed, pumped on a shared thread pool.

    The stream keeps up to ``depth`` blocks buffered ahead of the
    consumer.  Exactly one fetch task is in flight per stream at any
    moment (the member cursor is touched by one thread at a time); a
    completing task re-submits itself while the buffer has room, so all
    members of a scatter keep fetching while the merge cursor consumes.
    The member cursor itself is *opened* inside the first task, which is
    what parallelizes the per-shard SQL execution, not just the row
    transfer.

    All consumer-side state is guarded by the owning cursor's condition
    variable (shared so an arrival-order gather can wait on "any stream
    has data" with a single wait).
    """

    def __init__(self, index, name, opener, pool, cond, block_size=64,
                 depth=4):
        self.index = index
        self.name = name
        self._opener = opener
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
            fetch = getattr(self._cursor, "fetch_block", None)
            if fetch is not None:
                rows = fetch(self._block)
            else:
                rows = self._cursor.fetchmany(self._block)
        except Exception as exc:  # held for the consumer, incl. SourceError
            with self._cond:
                self._error = exc
                self._inflight = False
                self._cond.notify_all()
            return
        with self._cond:
            if rows:
                self._buffer.append(list(rows))
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

        A member failure is re-raised exactly once — as a
        :class:`~repro.errors.ShardError` — after every block fetched
        before it has been delivered; afterwards the stream reads as
        exhausted, so the gather continues on the surviving members.
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
                raise self._as_shard_error(exc)
            if self._exhausted or not self._inflight:
                self._exhausted = True
                return []
            if not wait:
                return None
            self._cond.wait()

    def _as_shard_error(self, exc):
        if isinstance(exc, ShardError):
            return exc
        message = "shard {!r} failed mid-gather: {}".format(self.name, exc)
        shard_exc = ShardError(
            message,
            sql=getattr(exc, "sql", None),
            source=self.name,
            shard=self.name,
            index=self.index,
        )
        shard_exc.__cause__ = exc
        return shard_exc

    def close(self):
        with self._cond:
            self._closed = True

    def __repr__(self):
        return "ShardStream({}, {!r}, buffered={})".format(
            self.index, self.name, len(self._buffer)
        )


#: Gather modes of :class:`ShardMergeCursor`.
ARRIVAL = "arrival"    # whichever member has a block ready first
ORDERED = "ordered"    # member index order (range partitioning)
MERGE = "merge"        # k-way merge on ORDER BY key positions


class ShardMergeCursor:
    """Gathers per-shard streams into one cursor.

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

    Row/block accounting happens in the *member* cursors (rows still
    ship from the members exactly once); this cursor only counts
    :data:`~repro.stats.SHARDS_FAILED` when a member dies mid-gather.
    A member failure surfaces as a :class:`~repro.errors.ShardError` at
    the stream position where its rows stopped — once — and the cursor
    keeps delivering the surviving members' rows afterwards, which is
    what lets a degrading engine turn a dead shard into one
    ``<mix:error>`` stub plus a partial answer.
    """

    def __init__(self, column_names, streams, gather=ARRIVAL,
                 sort_positions=None, project_width=None, distinct=False,
                 obs=None, on_failure=None):
        self.column_names = list(column_names)
        self._streams = list(streams)
        self._cond = streams[0]._cond if streams else threading.Condition()
        self._gather = MERGE if sort_positions else gather
        self._sort_positions = list(sort_positions or ())
        self._project_width = project_width
        self._distinct = bool(distinct)
        self._seen = set() if distinct else None
        self._obs = obs
        self._on_failure = on_failure
        self._closed = False
        self._pending_exc = None
        self.rows_fetched = 0
        self._block = deque()       # rows ready for delivery
        self._next_ordered = 0      # ordered gather: current member
        self._heap = []             # merge gather
        self._primed = set()        # merge gather: stream indexes seeded
        self._row_buffers = {}      # merge gather: stream -> deque of rows
        self._seq = 0

    # -- failure accounting ---------------------------------------------------------

    def _note_failure(self, exc):
        if self._obs is not None:
            self._obs.incr(statnames.SHARDS_FAILED)
        if self._on_failure is not None:
            self._on_failure(exc)

    # -- gather strategies (fill self._block with raw shard rows) -------------------

    def _fill(self):
        """Buffer at least one raw row, or return with the buffer empty
        when every stream is drained.  Raises ShardError once per failed
        member, at the position its rows stopped."""
        if self._gather == MERGE:
            self._fill_merge()
        elif self._gather == ORDERED:
            self._fill_ordered()
        else:
            self._fill_arrival()

    def _fill_arrival(self):
        with self._cond:
            while not self._block:
                live = [s for s in self._streams if not s.finished()]
                if not live:
                    return
                # Prefer a stream with a block already buffered; only
                # wait when every live stream is still fetching.
                ready = next((s for s in live if s.has_block()), None)
                target = ready if ready is not None else live[0]
                try:
                    rows = target.take_block(wait=ready is not None)
                except ShardError as exc:
                    self._note_failure(exc)
                    raise
                if rows is None:
                    self._cond.wait()
                elif rows:
                    self._block.extend(rows)

    def _fill_ordered(self):
        with self._cond:
            while not self._block:
                if self._next_ordered >= len(self._streams):
                    return
                stream = self._streams[self._next_ordered]
                try:
                    rows = stream.take_block()
                except ShardError as exc:
                    self._note_failure(exc)
                    self._next_ordered += 1
                    raise
                if rows:
                    self._block.extend(rows)
                else:
                    self._next_ordered += 1

    def _fill_merge(self):
        from repro.relational.executor import _sort_key

        with self._cond:
            for stream in self._streams:
                # Seed one row per member; a member that fails here is
                # surfaced and stays marked seeded — the remaining
                # members finish seeding on the next call.
                if stream.index in self._primed:
                    continue
                self._primed.add(stream.index)
                self._push_from(stream, _sort_key)
            if self._heap:
                key, __, row, stream = heapq.heappop(self._heap)
                self._block.append(row)
                self._push_from(stream, _sort_key)

    def _push_from(self, stream, sort_key):
        """Heap-push the stream's next row (call holding the condition).

        A failing member is surfaced immediately, then merging proceeds
        without it — its remaining rows are the lost part of the answer.
        """
        buffer = self._row_buffers.setdefault(stream.index, deque())
        while not buffer:
            try:
                rows = stream.take_block()
            except ShardError as exc:
                self._note_failure(exc)
                raise
            if not rows:
                return
            buffer.extend(rows)
        row = buffer.popleft()
        key = tuple(sort_key(row[p]) for p in self._sort_positions)
        self._seq += 1
        heapq.heappush(self._heap, (key, (stream.index, self._seq), row, stream))

    # -- cursor surface --------------------------------------------------------------

    def fetchone(self):
        """The next gathered row, or ``None`` when every shard is done."""
        if self._closed:
            return None
        while True:
            if not self._block:
                self._fill()
                if not self._block:
                    self._closed = True
                    return None
            row = self._block.popleft()
            if self._project_width is not None:
                row = tuple(row[:self._project_width])
            if self._seen is not None:
                marker = tuple(row)
                if marker in self._seen:
                    continue
                self._seen.add(marker)
            self.rows_fetched += 1
            return row

    def fetchmany(self, size):
        out = []
        for __ in range(size):
            row = self.fetchone()
            if row is None:
                break
            out.append(row)
        return out

    def fetch_block(self, size):
        """Up to ``size`` rows; a shard that dies mid-batch costs
        nothing — the partial batch is returned and its
        :class:`ShardError` re-raised on the next call, matching
        :meth:`Cursor.fetch_block` parking semantics."""
        if self._pending_exc is not None:
            exc, self._pending_exc = self._pending_exc, None
            raise exc
        out = []
        for __ in range(size):
            try:
                row = self.fetchone()
            except SourceError as exc:
                if not out:
                    raise
                self._pending_exc = exc
                break
            if row is None:
                break
            out.append(row)
        return out

    def fetchall(self):
        out = []
        while True:
            row = self.fetchone()
            if row is None:
                return out
            out.append(row)

    def close(self):
        self._closed = True
        for stream in self._streams:
            stream.close()

    def __iter__(self):
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def __repr__(self):
        state = "closed" if self._closed else "open"
        return "ShardMergeCursor({} shards, {}, {} fetched, {})".format(
            len(self._streams), self._gather, self.rows_fetched, state
        )
