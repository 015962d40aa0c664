"""Block-at-a-time dataflow: column blocks of binding tuples.

A per-tuple pull pays one merged operator span, one counter bump, and
one Python frame per tuple per operator — the dominant cost on deep lazy
walks per the E-SERVE/E-OPT profiles.  Block execution amortizes that
bookkeeping: operators exchange blocks of up to ``block_size`` rows and
pay the per-pull overhead once per block.

A :class:`Block` is a table — the binding list as a relation: one list
per plan variable (``cols``) plus a row count (``n``).  It is the only
block kind.  Consumers that think in tuples (``stream()``, conditions,
table navigation, nested sets) read rows through one view,
:class:`Row`; a nested binding set is a :class:`BlockSet`, a memoized
lazy stream of blocks.

Design invariants (the lattice differential in ``tests/test_lattice.py``
enforces them against the eager oracle, at widths 1 through 1024):

* **Same tuples, same order.**  A block stream read row by row is
  exactly the seed's tuple stream — byte-identical serialized answers.
* **Same source traffic.**  ``tuples_shipped`` counts rows, never
  blocks, so the wrapper-boundary counters match at every width;
  blocks add their own :data:`repro.stats.BLOCKS_SHIPPED` tally.
* **Same failures, same positions.**  A lazy stream that raises after
  producing *k* rows still delivers those *k* rows first: the chunker
  parks the exception and re-raises it on the next pull.
* **Columns are shared, never mutated.**  An operator adds a variable
  as one new column (:meth:`Block.with_column` checks its name once per
  column, not per row), filters and fans out by row indices
  (:meth:`Block.take`), and passes every other column on as is.  Every
  block of one operator binds the same variables.
* **Equal values may be one object.**  ``rQ`` binds a keyed tuple
  object once per run of rows whose columns for it repeat, so a
  presorted gBy compares a run's key once (:mod:`repro.engine.gby`).

There is no separate tuple-at-a-time engine: ``block_size=1`` is a
one-row block, which pulls, counts and fails exactly where the seed
did (the EXPLAIN goldens and per-hop transcripts rely on it).
"""

from __future__ import annotations

from repro.errors import MixError, PlanError
from repro.xmltree.tree import LazyPrefix
from repro.algebra.bindings import BindingSet

#: The default, and largest, vector width of Mediator block execution.
#: Chosen from the E-BLOCK sweep: past ~64 the span amortization is
#: saturated while the prefetch overshoot on partial walks keeps growing.
#: A cached shape's answers start at its demand (:mod:`repro.engine.lazy`).
DEFAULT_BLOCK_SIZE = 64


def check_var(var):
    """A plan variable must look like ``$X`` (checked once per column)."""
    if not isinstance(var, str) or not var.startswith("$"):
        raise MixError("variables must look like '$X', got {!r}".format(var))
    return var


class Block:
    """``n`` binding tuples stored as columns: ``cols`` maps each
    variable to a list of ``n`` values."""

    __slots__ = ("cols", "n")

    def __init__(self, cols, n):
        self.cols = cols
        self.n = n

    def column(self, var):
        try:
            return self.cols[var]
        except KeyError:
            raise PlanError("no binding for {} in tuple over {}".format(
                var, sorted(self.cols)))

    def take(self, indices):
        """The rows at ``indices`` (in that order, repeats allowed)."""
        return Block(
            {v: [col[i] for i in indices] for v, col in self.cols.items()},
            len(indices),
        )

    def slice(self, lo, hi):
        if lo == 0 and hi == self.n:
            return self
        return Block({v: col[lo:hi] for v, col in self.cols.items()}, hi - lo)

    def with_column(self, var, values):
        """The paper's ``b + ($v = w)`` for every row: ``var`` is new."""
        if check_var(var) in self.cols:
            raise PlanError("variable {} already bound".format(var))
        cols = dict(self.cols)
        cols[var] = values
        return Block(cols, self.n)


def concat(pieces):
    """One block holding the rows of ``pieces`` (same variables) in order."""
    if len(pieces) == 1:
        return pieces[0]
    cols = {var: [] for var in pieces[0].cols}
    for piece in pieces:
        for var, col in cols.items():
            col += piece.cols[var]
    return Block(cols, sum(piece.n for piece in pieces))


class Row:
    """One row of a block, read like a binding tuple: ``get``, ``has``,
    ``variables`` and ``items``."""

    __slots__ = ("_cols", "_i")

    def __init__(self, cols, index):
        self._cols = cols
        self._i = index

    def get(self, var):
        try:
            return self._cols[var][self._i]
        except KeyError:
            raise PlanError("no binding for {} in tuple over {}".format(
                var, sorted(self._cols)))

    def has(self, var):
        return var in self._cols

    def variables(self):
        return frozenset(self._cols)

    def items(self):
        i = self._i
        return [(var, col[i]) for var, col in self._cols.items()]


def rows(blocks):
    """The row stream of a block stream (generator)."""
    for block in blocks:
        cols = block.cols
        for i in range(block.n):
            yield Row(cols, i)


class BlockSet(BindingSet):
    """A nested binding set held as a lazy, memoized stream of blocks.

    A :class:`~repro.xmltree.tree.LazyPrefix` over the block stream
    that stores each pulled block as its :class:`Row` views, so tuple
    consumers read it through the :class:`BindingSet` interface, forced
    only as far as they read; ``nestedSrc`` replays it block by block
    (:meth:`blocks`).  A stream that raised stays raised.
    """

    __slots__ = ()

    def __init__(self, blocks):
        LazyPrefix.__init__(self, lazy_tail=iter(blocks))

    def _store(self, block):
        cols = block.cols
        self._items.extend([Row(cols, i) for i in range(block.n)])

    def append(self, binding_tuple):
        raise MixError("cannot append to a lazy BlockSet")

    def blocks(self):
        """The stored blocks again, then the rest of the stream: a block
        is the run of rows from one whose index is 0."""
        stored = self._items
        start = 0
        while start < len(stored) or self.item(start) is not None:
            end = start + 1
            while end < len(stored) and stored[end]._i:
                end += 1
            yield Block(stored[start]._cols, end - start)
            start = end

    def __repr__(self):
        lazy = "+" if self._tail is not None else ""
        return "BlockSet({}{} tuples)".format(len(self._items), lazy)


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
    """Chunk a generator of blocks (any row count, including none) into
    blocks of exactly ``size`` rows (an int or a shared :class:`Width`;
    the final block may be partial).

    This is the engine-side chunker: operators emit one block per input
    block, and this layer repacks them so downstream operators always
    see full blocks regardless of filter selectivity or join fan-out.
    A piece that already has the width passes through uncopied.
    Mid-stream exceptions are *parked*: buffered rows are delivered
    first, the exception re-raises on the next pull.
    """

    __slots__ = ("_inner", "_width", "_pieces", "_buffered", "_pending",
                 "_done")

    def __init__(self, vectors, size):
        self._inner = iter(vectors)
        self._width = size if isinstance(size, Width) else Width(size, size)
        self._pieces = []
        self._buffered = 0
        self._pending = None
        self._done = False

    def __iter__(self):
        return self

    def __next__(self):
        size = self._width.size
        pieces = self._pieces
        while (self._buffered < size and not self._done
               and self._pending is None):
            try:
                chunk = next(self._inner)
            except StopIteration:
                self._done = True
            except Exception as exc:
                if self._buffered:
                    self._pending = exc
                else:
                    raise
            else:
                if chunk.n:
                    pieces.append(chunk)
                    self._buffered += chunk.n
        if not self._buffered:
            if self._pending is not None:
                exc, self._pending = self._pending, None
                raise exc
            raise StopIteration
        block = concat(pieces)
        if block.n > size:
            self._pieces = [block.slice(size, block.n)]
            block = block.slice(0, size)
        else:
            self._pieces = []
        self._buffered -= block.n
        return block

    def __repr__(self):
        return "VectorBlocks(size={}, buffered={})".format(
            self._width.size, self._buffered
        )
