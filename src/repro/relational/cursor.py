"""Cursors: the pull interface between the mediator and a source.

Every row fetched through a cursor is counted under
:data:`repro.stats.TUPLES_SHIPPED` — this is *the* boundary the paper's
efficiency arguments are about ("the transfer of the minimum amount of
data between the mediator and the sources").

:class:`Cursor` is the only cursor.  A scattered statement on a sharded
table is one too: :class:`~repro.sources.shard.ShardedSource` wraps its
gather — a plain row iterator over the member streams — in a
``Cursor``, so the engines cannot tell a scattered statement from a
single-source one.
"""

from __future__ import annotations

from itertools import islice

from repro import stats as statnames


class Cursor:
    """A forward-only cursor over a row iterator.

    Supports ``fetchone`` / ``fetch_block`` / ``fetchall`` plus plain
    iteration.  Closing the cursor closes the underlying iterator, so
    unread rows are never computed.

    One parking rule covers every fetch: when the row iterator raises
    after a fetch has taken some rows, the fetch returns those rows and
    the exception is raised by the *next* fetch, exactly where a
    ``fetchone`` loop would have surfaced it.  An iterator that can go
    on after raising (a scatter's gather, past a dead member) is read
    on by the fetch after that.

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

    def _take(self, size):
        """Up to ``size`` rows (all when ``None``) off the iterator,
        accounted as one fetch, under the parking rule."""
        if self._pending_exc is not None:
            exc, self._pending_exc = self._pending_exc, None
            raise exc
        out = []
        try:
            if not self._closed:
                for row in islice(self._rows, size):
                    out.append(row)
                if size is None or len(out) < size:
                    self._closed = True
        except Exception as exc:
            if not out:
                raise
            self._pending_exc = exc
        finally:
            self.rows_fetched += len(out)
            if out and self._stats is not None:
                self._stats.incr(statnames.TUPLES_SHIPPED, len(out))
            if self._after_fetch is not None:
                self._after_fetch(len(out))
        return out

    def fetchone(self):
        """The next row, or ``None`` when exhausted."""
        out = self._take(1)
        return out[0] if out else None

    def fetch_block(self, size):
        """Up to ``size`` rows as one shipped block (block execution).

        Row accounting is unchanged — every row still counts one
        :data:`~repro.stats.TUPLES_SHIPPED` — but each non-empty batch
        additionally counts one :data:`~repro.stats.BLOCKS_SHIPPED`, so
        block-vs-tuple runs ship identical row totals while the block
        counter exposes the batching.
        """
        out = self._take(size)
        if out and self._stats is not None:
            self._stats.incr(statnames.BLOCKS_SHIPPED)
        return out

    def fetchall(self):
        """All remaining rows; a failure on the way raises now."""
        out = self._take(None)
        if self._pending_exc is not None:
            exc, self._pending_exc = self._pending_exc, None
            raise exc
        return out

    def close(self):
        """Close the row iterator; subsequent fetches return nothing."""
        self._closed = True
        close = getattr(self._rows, "close", None)
        if close is not None:
            close()

    def record(self, on_exhausted):
        """Pass the rows this cursor ships to ``on_exhausted`` once the
        row iterator runs out (not on close or failure); fetches and
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
