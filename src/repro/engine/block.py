"""Block-at-a-time dataflow: vectors of binding tuples.

A per-tuple pull pays one merged operator span, one counter bump, and
one Python frame per tuple per operator — the dominant cost on deep lazy
walks per the E-SERVE/E-OPT profiles.  Block execution amortizes that
bookkeeping: operators exchange blocks (plain lists) of up to
``block_size`` tuples and pay the per-pull overhead once per block.

Design invariants (the lattice differential in ``tests/test_lattice.py``
enforces them against the eager oracle, at widths 1 through 1024):

* **Same tuples, same order.**  A block stream flattens to exactly the
  seed's tuple stream — byte-identical serialized answers.
* **Same source traffic.**  ``tuples_shipped`` counts rows, never
  blocks, so the wrapper-boundary counters match at every width;
  blocks add their own :data:`repro.stats.BLOCKS_SHIPPED` tally.
* **Same failures, same positions.**  A lazy stream that raises after
  producing *k* tuples still delivers those *k* tuples first: the
  chunker parks the exception and re-raises it on the next pull.

There is no separate tuple-at-a-time engine: ``block_size=1`` is a
one-tuple block, which pulls, counts and fails exactly where the seed
did (the EXPLAIN goldens and per-hop transcripts rely on it).
"""

from __future__ import annotations

#: The default, and largest, vector width of Mediator block execution.
#: Chosen from the E-BLOCK sweep: past ~64 the span amortization is
#: saturated while the prefetch overshoot on partial walks keeps growing.
#: A cached shape's answers start at its demand (:mod:`repro.engine.lazy`).
DEFAULT_BLOCK_SIZE = 64


class Width:
    """A pipeline's block width: ``size``, grown ×4 per :meth:`grow` up
    to ``limit``.  All blocks and fetches of a pipeline read one."""

    __slots__ = ("size", "limit")

    def __init__(self, size, limit):
        if size < 1:
            raise ValueError("block size must be >= 1, got {}".format(size))
        self.size = size
        self.limit = limit

    def grow(self):
        self.size = min(self.size * 4, self.limit)


class VectorBlocks:
    """Chunk a *vector-yielding* generator (lists of tuples, any length
    including empty) into blocks of exactly ``size`` (an int or a shared
    :class:`Width`; the final block may be partial).

    This is the engine-side chunker: operators emit one list per input
    block, and this layer repacks them so downstream operators always
    see full blocks regardless of filter selectivity or join fan-out.
    Mid-stream exceptions are *parked*: buffered tuples are delivered
    first, the exception re-raises on the next pull.
    """

    __slots__ = ("_inner", "_width", "_buf", "_pending", "_done")

    def __init__(self, vectors, size):
        self._inner = iter(vectors)
        self._width = size if isinstance(size, Width) else Width(size, size)
        self._buf = []
        self._pending = None
        self._done = False

    def __iter__(self):
        return self

    def __next__(self):
        size = self._width.size
        while (len(self._buf) < size and not self._done
               and self._pending is None):
            try:
                chunk = next(self._inner)
            except StopIteration:
                self._done = True
            except Exception as exc:
                if self._buf:
                    self._pending = exc
                else:
                    raise
            else:
                self._buf.extend(chunk)
        if len(self._buf) > size:
            out = self._buf[:size]
            self._buf = self._buf[size:]
            return out
        if self._buf:
            out, self._buf = self._buf, []
            return out
        if self._pending is not None:
            exc, self._pending = self._pending, None
            raise exc
        raise StopIteration

    def __repr__(self):
        return "VectorBlocks(size={}, buffered={})".format(
            self._width.size, len(self._buf)
        )


def flatten(block_iterator):
    """The tuple stream of a block stream (generator)."""
    for block in block_iterator:
        for t in block:
            yield t
