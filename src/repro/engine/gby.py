"""Group-by implementations: presorted stateless and stateful (Section 4).

The paper's Table 1 gives the *presorted stateless* gBy: because the
input arrives sorted on the group-by variables, a group's tuples are the
contiguous run starting at the group's first input tuple, and all the
state the operator needs — the input position ``bs`` and the current
group key — fits in the exported node id.  Here the input is a
:class:`ColumnRun`, the memoized key-sorted columns of the input blocks;
its row indexes play the role of the input node ids, and a partition is
an index range that ``nestedSrc`` passes on as column slices.

The *stateful* gBy makes no sortedness assumption: it buffers the entire
input stream on first pull (counted under ``buffered_tuples``) and then
partitions, exactly as the paper describes ("the stateful gBy ... needs
buffers to store the input stream").
"""

from __future__ import annotations

from repro import stats as statnames
from repro.xmltree.tree import _FORCE_LOCK, LazyPrefix
from repro.algebra.values import value_key
from repro.engine.block import Block, BlockSet, check_var, concat


class ColumnRun(LazyPrefix):
    """The input of a presorted gBy: a
    :class:`~repro.xmltree.tree.LazyPrefix` over the input blocks whose
    items are ``heads`` — the index of each group's first row — and
    which stores the rows pulled so far as columns.

    Each row's key is computed once, when its block arrives; a row whose
    group values are the very objects of the row before (``rQ`` reuses a
    tuple object within a key run) skips even that.
    """

    __slots__ = ("cols", "n", "_group_vars", "_last")

    def __init__(self, blocks, group_vars):
        LazyPrefix.__init__(self, lazy_tail=iter(blocks))
        self._group_vars = tuple(group_vars)
        self.cols, self.n = None, 0
        self._last = (None, None)  # the last row's group values and key

    @property
    def heads(self):
        return self._items

    def _store(self, block):
        group_cols = [block.column(v) for v in self._group_vars]
        if self.cols is None:
            self.cols = {v: [] for v in block.cols}
        for var, col in self.cols.items():
            col += block.cols[var]
        last, last_key = self._last
        for i in range(block.n):
            values = [col[i] for col in group_cols]
            if last is not None and all(
                    a is b for a, b in zip(values, last)):
                continue
            key = tuple(value_key(value) for value in values)
            if key != last_key:
                self._items.append(self.n + i)
                last_key = key
            last = values
        self._last = (last, last_key)
        self.n += block.n

    def end(self, group, cap):
        """The end of ``group``'s rows, capped at ``cap``: pulls only
        until row ``cap - 1`` or the next group's head is known."""
        heads = self._items
        with _FORCE_LOCK:
            while (len(heads) <= group + 1 and self.n < cap
                   and self._pull()):
                pass
            if len(heads) > group + 1:
                return min(heads[group + 1], cap)
            return min(self.n, cap)


def _partition_blocks(run, group, size):
    """A group's rows as column slices of at most ``size`` rows: the
    ``d(<group, bs, [g...]>)`` row of Table 1.  Slices are copies (the
    run's columns grow), and it holds the run, never the
    :class:`BlockSet` it feeds, so no group makes a reference cycle."""
    lo = run.heads[group]
    while True:
        hi = run.end(group, lo + size)
        if hi <= lo:
            return
        yield Block({v: col[lo:hi] for v, col in run.cols.items()}, hi - lo)
        lo = hi


def presorted_gby_blocks(blocks, group_vars, out_var, size):
    """Table 1's presorted stateless gBy over a key-sorted block stream.

    Yields blocks of group tuples: the group variables plus ``out_var``
    bound to a *lazy* :class:`BlockSet` whose rows are pulled from below
    only when navigation enters the group.  A block holds the groups
    whose first rows are known; the next group needs the input only up
    to its first row — the Table-1 ``r(<binding, ...>)`` loop, "repeat
    b's = r(bs) ... until g != g'".
    """
    check_var(out_var)
    run = ColumnRun(blocks, group_vars)
    group = 0
    while run.item(group) is not None:  # the group's first row
        stop = len(run.heads)
        heads = run.heads[group:stop]
        cols = {v: [run.cols[v][h] for h in heads] for v in group_vars}
        cols[out_var] = [
            BlockSet(_partition_blocks(run, g, size))
            for g in range(group, stop)
        ]
        yield Block(cols, stop - group)
        group = stop


def stateful_gby_blocks(blocks, group_vars, out_var, stats=None):
    """Stateful gBy: buffer everything, then emit one tuple per group."""
    check_var(out_var)
    buffered = [block for block in blocks if block.n]
    if stats is not None:
        stats.incr(statnames.BUFFERED_TUPLES, sum(b.n for b in buffered))
    if not buffered:
        return
    block = concat(buffered)
    group_cols = [block.column(v) for v in group_vars]
    partitions = {}
    for i in range(block.n):
        key = tuple(value_key(col[i]) for col in group_cols)
        partitions.setdefault(key, []).append(i)
    firsts = [indices[0] for indices in partitions.values()]
    cols = {v: [col[i] for i in firsts]
            for v, col in zip(group_vars, group_cols)}
    cols[out_var] = [
        BlockSet([block.take(indices)]) for indices in partitions.values()
    ]
    yield Block(cols, len(firsts))


def input_is_sorted_for(sorted_vars, group_vars):
    """Does a stream sorted on ``sorted_vars`` cluster ``group_vars``?

    True when some prefix of the sort key covers exactly the group-by
    variables (order within the list does not matter for clustering).
    """
    group_set = set(group_vars)
    if not group_set:
        return True
    prefix = set()
    for var in sorted_vars:
        prefix.add(var)
        if prefix == group_set:
            return True
        if not prefix <= group_set:
            return False
    return False
