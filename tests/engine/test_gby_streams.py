"""Unit tests for BlockSet tuple streams and the Table-1 group-by over
column runs."""

import pytest

from repro.errors import MixError
from repro.obs import Instrument
from repro import stats as statnames
from repro.xmltree import leaf
from repro.engine.block import Block, BlockSet, Row, rows
from repro.engine.gby import (
    input_is_sorted_for,
    presorted_gby_blocks,
    stateful_gby_blocks,
)


def blocks_for(keys, per_block=1):
    """Column blocks of one row per key, with a distinct payload per
    position, ``per_block`` rows to a block."""
    out = []
    for lo in range(0, len(keys), per_block):
        chunk = keys[lo:lo + per_block]
        out.append(Block({
            "$G": [leaf(k) for k in chunk],
            "$P": [leaf(i) for i in range(lo, lo + len(chunk))],
        }, len(chunk)))
    return out


def one_row_blocks(values):
    return [Block({"$x": [v]}, 1) for v in values]


def xs(tuples):
    return [t.get("$x") for t in tuples]


class TestBlockSet:
    """The memoized, index-addressable tuple stream of an operator."""

    def test_get_pulls_prefix(self):
        pulled = []

        def source():
            for i in range(10):
                pulled.append(i)
                yield Block({"$x": [i]}, 1)

        stream = BlockSet(source())
        assert stream.tuple_at(2).get("$x") == 2
        assert pulled == [0, 1, 2]

    def test_get_past_end(self):
        stream = BlockSet(one_row_blocks([1, 2]))
        assert stream.tuple_at(5) is None
        assert len(stream) == 2

    def test_memoization(self):
        calls = []

        def source():
            calls.append(1)
            yield Block({"$x": [1]}, 1)

        stream = BlockSet(source())
        assert stream.tuple_at(0).get("$x") == 1
        assert stream.tuple_at(0).get("$x") == 1
        assert calls == [1]

    def test_iteration(self):
        stream = BlockSet(one_row_blocks([1, 2, 3]))
        assert xs(stream) == [1, 2, 3]
        assert xs(stream) == [1, 2, 3]  # re-iterable thanks to the memo

    def test_materialize(self):
        assert xs(BlockSet(one_row_blocks("ab")).tuples) == ["a", "b"]

    def test_negative_index(self):
        assert BlockSet(one_row_blocks([1])).tuple_at(-1) is None

    def test_lazy_tail(self):
        def source():
            for i in range(5):
                yield Block({"$A": [leaf(i)]}, 1)

        s = BlockSet(source())
        assert s.tuple_at(1).get("$A").label == 1
        assert s.materialized_count == 2  # only the prefix was forced
        assert len(s) == 5

    def test_append_to_lazy_rejected(self):
        s = BlockSet(iter(()))
        with pytest.raises(MixError):
            s.append(Row({}, 0))


def presorted(blocks, size=1):
    """The group rows of the column-run presorted gBy over ``blocks``."""
    return list(rows(presorted_gby_blocks(iter(blocks), ("$G",), "$X", size)))


def stateful(blocks, stats=None):
    return list(rows(stateful_gby_blocks(iter(blocks), ("$G",), "$X", stats)))


class TestPresortedGby:
    def test_groups_sorted_input(self):
        groups = presorted(blocks_for(["a", "a", "b", "c", "c", "c"]))
        assert [g.get("$G").label for g in groups] == ["a", "b", "c"]
        assert [len(g.get("$X")) for g in groups] == [2, 1, 3]

    def test_partition_tuples_preserved(self):
        groups = presorted(blocks_for(["a", "a", "b"]))
        first_partition = groups[0].get("$X")
        assert [t.get("$P").label for t in first_partition] == [0, 1]

    def test_partition_is_lazy(self):
        pulled = []

        def source():
            for i, k in enumerate(["a"] * 5 + ["b"]):
                pulled.append(i)
                yield Block({"$G": [leaf(k)], "$P": [leaf(i)]}, 1)

        stream = rows(presorted_gby_blocks(source(), ("$G",), "$X", 1))
        group = next(stream)
        # Producing the group tuple needs only the first input tuple.
        assert pulled == [0]
        assert group.get("$X").tuple_at(2).get("$P").label == 2
        assert pulled == [0, 1, 2]

    def test_unsorted_input_splits_runs(self):
        # Presorted gBy on unsorted input groups *runs*, not keys —
        # exactly Table 1's behaviour; the engine guards against this
        # by only selecting it for clustered inputs.
        groups = presorted(blocks_for(["a", "b", "a"]))
        assert [g.get("$G").label for g in groups] == ["a", "b", "a"]

    def test_empty_input(self):
        assert presorted([]) == []

    def test_partitions_are_column_slices_at_every_width(self):
        keys = ["a"] * 5 + ["b"] * 2 + ["c"]
        for size in (1, 2, 3, 64):
            groups = presorted(blocks_for(keys, per_block=3), size)
            partition = groups[0].get("$X")
            assert [b.n for b in partition.blocks()] == (
                [min(size, 5 - lo) for lo in range(0, 5, size)]
            )
            assert [[t.get("$P").label for t in g.get("$X")]
                    for g in groups] == [[0, 1, 2, 3, 4], [5, 6], [7]]

    def test_replayed_partition_blocks_do_not_grow_with_the_run(self):
        keys = ["a"] * 3 + ["b"] * 3
        stream = rows(presorted_gby_blocks(
            iter(blocks_for(keys, per_block=3)), ("$G",), "$X", 3))
        first = next(stream).get("$X")
        (block,) = first.blocks()  # the whole run pulled so far
        assert list(stream)        # pulls the rest of the run
        (replayed,) = first.blocks()
        assert replayed.cols is block.cols  # replayed from the stored rows
        assert all(len(col) == block.n == 3 for col in block.cols.values())

    def test_a_reused_tuple_object_is_one_key(self):
        shared = leaf("a")
        block = Block({"$G": [shared, shared, leaf("a"), leaf("b")],
                       "$P": [leaf(i) for i in range(4)]}, 4)
        groups = presorted([block])
        assert [len(g.get("$X")) for g in groups] == [3, 1]


class TestStatefulGby:
    def test_groups_unsorted_input(self):
        groups = stateful(blocks_for(["a", "b", "a", "c", "b"]))
        assert [g.get("$G").label for g in groups] == ["a", "b", "c"]
        assert [len(g.get("$X")) for g in groups] == [2, 2, 1]

    def test_buffering_counted(self):
        stats = Instrument()
        stateful(blocks_for(["a", "b", "a"]), stats=stats)
        assert stats.get(statnames.BUFFERED_TUPLES) == 3

    def test_agreement_with_presorted_on_sorted_input(self):
        keys = ["a", "a", "b", "b", "b", "c"]
        lazy_groups = presorted(blocks_for(keys))
        stateful_groups = stateful(blocks_for(keys))
        assert len(lazy_groups) == len(stateful_groups)
        for a, b in zip(lazy_groups, stateful_groups):
            assert a.get("$G").label == b.get("$G").label
            assert len(a.get("$X")) == len(b.get("$X"))


class TestSortednessPredicate:
    def test_exact_prefix(self):
        assert input_is_sorted_for(("$A", "$B"), ("$A",))
        assert input_is_sorted_for(("$A", "$B"), ("$A", "$B"))
        assert input_is_sorted_for(("$A", "$B"), ("$B", "$A"))

    def test_non_prefix(self):
        assert not input_is_sorted_for(("$A", "$B"), ("$B",))
        assert not input_is_sorted_for((), ("$A",))

    def test_empty_group_list(self):
        assert input_is_sorted_for((), ())
