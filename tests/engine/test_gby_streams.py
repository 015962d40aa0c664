"""Unit tests for LazyList streams and the Table-1 group-by."""

from repro.obs import Instrument
from repro import stats as statnames
from repro.xmltree import leaf
from repro.algebra import BindingTuple
from repro.engine.gby import (
    input_is_sorted_for,
    presorted_gby_stream,
    stateful_gby_stream,
)
from repro.engine.streams import LazyList


def tuples_for(keys):
    """One binding tuple per key, with a distinct payload per position."""
    return [
        BindingTuple({"$G": leaf(k), "$P": leaf(i)})
        for i, k in enumerate(keys)
    ]


class TestLazyList:
    def test_get_pulls_prefix(self):
        pulled = []

        def source():
            for i in range(10):
                pulled.append(i)
                yield i

        lst = LazyList(source())
        assert lst.get(2) == 2
        assert pulled == [0, 1, 2]
        assert lst.pulled_count == 3

    def test_get_past_end(self):
        lst = LazyList(iter([1, 2]))
        assert lst.get(5) is None
        assert lst.exhausted

    def test_memoization(self):
        calls = []

        def source():
            calls.append(1)
            yield 1

        lst = LazyList(source())
        assert lst.get(0) == 1
        assert lst.get(0) == 1
        assert calls == [1]

    def test_iteration(self):
        lst = LazyList(iter([1, 2, 3]))
        assert list(lst) == [1, 2, 3]
        assert list(lst) == [1, 2, 3]  # re-iterable thanks to the memo

    def test_materialize(self):
        assert LazyList(iter("ab")).materialize() == ["a", "b"]

    def test_negative_index(self):
        assert LazyList(iter([1])).get(-1) is None


class TestPresortedGby:
    def test_groups_sorted_input(self):
        source = LazyList(iter(tuples_for(["a", "a", "b", "c", "c", "c"])))
        groups = list(presorted_gby_stream(source, ("$G",), "$X"))
        assert [g.get("$G").label for g in groups] == ["a", "b", "c"]
        assert [len(g.get("$X")) for g in groups] == [2, 1, 3]

    def test_partition_tuples_preserved(self):
        source = LazyList(iter(tuples_for(["a", "a", "b"])))
        groups = list(presorted_gby_stream(source, ("$G",), "$X"))
        first_partition = groups[0].get("$X")
        assert [t.get("$P").label for t in first_partition] == [0, 1]

    def test_partition_is_lazy(self):
        pulled = []

        def source():
            for i, k in enumerate(["a"] * 5 + ["b"]):
                pulled.append(i)
                yield BindingTuple({"$G": leaf(k), "$P": leaf(i)})

        stream = presorted_gby_stream(LazyList(source()), ("$G",), "$X")
        group = next(stream)
        # Producing the group tuple needs only the first input tuple.
        assert pulled == [0]
        assert group.get("$X").tuple_at(2).get("$P").label == 2
        assert pulled == [0, 1, 2]

    def test_unsorted_input_splits_runs(self):
        # Presorted gBy on unsorted input groups *runs*, not keys —
        # exactly Table 1's behaviour; the engine guards against this
        # by only selecting it for clustered inputs.
        source = LazyList(iter(tuples_for(["a", "b", "a"])))
        groups = list(presorted_gby_stream(source, ("$G",), "$X"))
        assert [g.get("$G").label for g in groups] == ["a", "b", "a"]

    def test_empty_input(self):
        assert list(presorted_gby_stream(LazyList(iter(())), ("$G",), "$X")) == []


class TestStatefulGby:
    def test_groups_unsorted_input(self):
        source = LazyList(iter(tuples_for(["a", "b", "a", "c", "b"])))
        groups = list(stateful_gby_stream(source, ("$G",), "$X"))
        assert [g.get("$G").label for g in groups] == ["a", "b", "c"]
        assert [len(g.get("$X")) for g in groups] == [2, 2, 1]

    def test_buffering_counted(self):
        stats = Instrument()
        source = LazyList(iter(tuples_for(["a", "b", "a"])))
        list(stateful_gby_stream(source, ("$G",), "$X", stats=stats))
        assert stats.get(statnames.BUFFERED_TUPLES) == 3

    def test_agreement_with_presorted_on_sorted_input(self):
        keys = ["a", "a", "b", "b", "b", "c"]
        lazy_groups = list(
            presorted_gby_stream(LazyList(iter(tuples_for(keys))), ("$G",), "$X")
        )
        stateful_groups = list(
            stateful_gby_stream(LazyList(iter(tuples_for(keys))), ("$G",), "$X")
        )
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
