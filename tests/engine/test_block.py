"""Block boundary and edge-case battery for :mod:`repro.engine.block`.

The differential suite proves every block width agrees with the eager
oracle end to end; this file pins the primitives' contracts directly —
empty and partial blocks, oversized widths, exception *parking* (partial
output first, the failure re-raised at its width-1 position), the column
block and its row view, ``rQ`` filling columns (one tuple object per key
run), prefetch surviving a broken lazy tail, and mid-block faults
through the fault injector.
"""

from __future__ import annotations

import pytest

from repro import Database, Instrument, Mediator, RelationalWrapper
from repro import stats as statnames
from repro.algebra import GetD, RelQuery, RQVar
from repro.algebra.plan import find_operators
from repro.engine.block import Block, BlockSet, VectorBlocks, rows
from repro.engine.lazy import LazyEngine
from repro.errors import MixError, PlanError
from repro.relational.cursor import Cursor
from repro.resilience import FaultInjectingSource, ManualClock
from repro.xmltree import serialize
from repro.workloads import build_customers_orders
from repro.xmltree.paths import Path
from repro.xmltree.tree import Node


class Boom(Exception):
    pass


def failing_after(values, exc=None):
    """A generator yielding ``values`` then raising."""
    for value in values:
        yield value
    raise exc or Boom("stream died")


# -- VectorBlocks --------------------------------------------------------------------


def column(values, var="$x"):
    """A one-column block holding ``values``."""
    values = list(values)
    return Block({var: values}, len(values))


def values_of(blocks, var="$x"):
    """The blocks' ``var`` column, one list per block."""
    return [list(block.column(var)) for block in blocks]


class TestVectorBlocks:
    def test_repacks_uneven_vectors_to_fixed_blocks(self):
        vectors = iter(map(column, [[1], [], [2, 3, 4], [], [5, 6], [7]]))
        blocks = list(VectorBlocks(vectors, 3))
        assert values_of(blocks) == [[1, 2, 3], [4, 5, 6], [7]]
        assert [b.n for b in blocks] == [3, 3, 1]

    def test_empty_vectors_produce_no_blocks(self):
        empties = iter([column([]), column([]), column([])])
        assert list(VectorBlocks(empties, 4)) == []

    def test_oversized_vector_is_split(self):
        blocks = list(VectorBlocks(iter([column(range(10))]), 4))
        assert [b.n for b in blocks] == [4, 4, 2]
        assert [r.get("$x") for r in rows(blocks)] == list(range(10))

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            VectorBlocks(iter(()), 0)

    def test_buffered_tuples_survive_a_failure(self):
        def vectors():
            yield column([1, 2])
            raise Boom("vector source died")

        chunker = VectorBlocks(vectors(), 8)
        assert values_of([next(chunker)]) == [[1, 2]]
        with pytest.raises(Boom):
            next(chunker)

    def test_failure_with_empty_buffer_raises_immediately(self):
        chunker = VectorBlocks(failing_after([]), 8)
        with pytest.raises(Boom):
            next(chunker)

    def test_width_larger_than_stream_is_one_partial_block(self):
        blocks = VectorBlocks(iter([column([0, 1]), column([2])]), 1024)
        assert values_of(blocks) == [[0, 1, 2]]

    def test_width_one_is_one_tuple_blocks(self):
        vectors = iter([column([1, 2]), column([]), column([3])])
        assert values_of(VectorBlocks(vectors, 1)) == [[1], [2], [3]]

    def test_repr_shows_shape(self):
        assert "buffered=0" in repr(VectorBlocks(iter(()), 4))

    def test_full_width_piece_passes_through_uncopied(self):
        piece = column([1, 2, 3])
        assert next(VectorBlocks(iter([piece]), 3)) is piece

    def test_columns_stay_aligned_across_repacking(self):
        def pair(lo, hi):
            return Block({"$a": list(range(lo, hi)),
                          "$b": [-i for i in range(lo, hi)]}, hi - lo)

        blocks = list(VectorBlocks(iter([pair(0, 3), pair(3, 4),
                                         pair(4, 9)]), 4))
        assert [b.n for b in blocks] == [4, 4, 1]
        assert all(r.get("$b") == -r.get("$a") for r in rows(blocks))
        assert [r.get("$a") for r in rows(blocks)] == list(range(9))


# -- the column block and its row view -----------------------------------------------


class TestColumnBlock:
    def test_with_column_shares_untouched_columns(self):
        block = column([1, 2])
        wider = block.with_column("$y", ["a", "b"])
        assert wider.cols["$x"] is block.cols["$x"]
        assert "$y" not in block.cols
        assert [r.get("$y") for r in rows([wider])] == ["a", "b"]
        with pytest.raises(PlanError):
            wider.column("$z")

    def test_with_column_rejects_a_bound_variable(self):
        with pytest.raises(PlanError):
            column([1]).with_column("$x", [2])

    def test_with_column_rejects_a_name_without_sigil(self):
        with pytest.raises(MixError):
            column([1]).with_column("y", [2])

    def test_take_repeats_and_reorders_rows(self):
        block = column([10, 20, 30]).take([2, 0, 0])
        assert block.n == 3
        assert block.column("$x") == [30, 10, 10]

    def test_row_view_reads_like_a_binding_tuple(self):
        (row,) = rows([Block({"$a": [1], "$b": [2]}, 1)])
        assert row.get("$b") == 2
        assert row.has("$a") and not row.has("$c")
        assert row.variables() == {"$a", "$b"}
        assert sorted(row.items()) == [("$a", 1), ("$b", 2)]
        with pytest.raises(PlanError):
            row.get("$c")

    def test_block_set_replays_blocks_and_rows(self):
        pulled = []

        def source():
            for lo in (0, 2):
                pulled.append(lo)
                yield column([lo, lo + 1])

        nested = BlockSet(source())
        assert nested.tuple_at(1).get("$x") == 1
        assert pulled == [0]
        assert values_of(nested.blocks()) == [[0, 1], [2, 3]]
        assert [t.get("$x") for t in nested] == [0, 1, 2, 3]
        assert values_of(nested.blocks()) == [[0, 1], [2, 3]]
        assert pulled == [0, 2]


# -- rQ fills the columns --------------------------------------------------------------


JOIN_VIEW = (
    "FOR $C IN document(root1)/customer $O IN document(root2)/order "
    "WHERE $C/id/data() = $O/cid/data() "
    "RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}"
)


class _RowsServer:
    """A catalog with one server whose every statement returns ``rows``."""

    def __init__(self, rows):
        self._rows = rows

    def server(self, name):
        return self

    def execute_sql(self, sql, params=()):
        return Cursor(["c{}".format(i) for i in range(3)], iter(self._rows))


def customer_entry(var="$C"):
    return RQVar(var, "customer", [(0, "id"), (1, "name")], [0])


def rq_rows(rows, varmap, block_size=1):
    plan = RelQuery("s", "SELECT", varmap)
    engine = LazyEngine(_RowsServer(rows), block_size=block_size)
    return engine.stream(plan, {}).tuples


class TestRelQueryColumns:
    def test_join_view_shares_one_customer_object_per_key_run(self):
        built = build_customers_orders(n_customers=3, orders_per_customer=5)
        mediator = Mediator(cache=False).add_source(built.wrapper)
        plan = mediator.query(JOIN_VIEW).view.exec_plan()
        (rq,) = find_operators(plan, RelQuery)
        for size in (1, 4, 64):
            out = LazyEngine(mediator.catalog, block_size=size).stream(
                rq, {}).tuples
            customers = [t.get("$C") for t in out]
            assert len(customers) == 15
            for first in range(0, 15, 5):
                run = customers[first:first + 5]
                assert all(c is run[0] for c in run)
            assert len({id(c) for c in customers}) == 3
            assert len({id(t.get("$O")) for t in out}) == 15

    def test_repeated_key_with_other_columns_changed_gets_its_own_object(self):
        out = rq_rows(
            [("A", "x", 1), ("A", "x", 2), ("A", "y", 3)],
            [customer_entry()],
        )
        first, second, third = [t.get("$C") for t in out]
        assert first is second
        assert third is not second
        assert third.find("name").children[0].label == "y"

    def test_reuse_spans_fetch_batches(self):
        out = rq_rows([("A", "x", 1)] * 3, [customer_entry()], block_size=2)
        assert len({id(t.get("$C")) for t in out}) == 1

    def test_row_with_a_null_field_is_still_dropped(self):
        varmap = [
            customer_entry(),
            RQVar("$V", "value", [(2, "value")], [], kind="leaf"),
        ]
        out = rq_rows([("A", "x", 1), ("A", "x", None), ("B", "z", 3)],
                      varmap)
        assert [t.get("$V").label for t in out] == [1, 3]
        assert [t.get("$C").oid for t in out] == ["&A", "&B"]

    def test_variable_without_sigil_raises(self):
        with pytest.raises(MixError):
            rq_rows([("A", "x", 1)], [customer_entry(var="C")])

    def test_lazy_operator_binding_a_name_without_sigil_raises(self):
        plan = GetD("$C", Path.parse("customer.id"), "I",
                    RelQuery("s", "SELECT", [customer_entry()]))
        engine = LazyEngine(_RowsServer([("A", "x", 1)]))
        with pytest.raises(MixError):
            engine.stream(plan, {}).tuples


# -- Cursor.fetch_block --------------------------------------------------------------


class TestCursorFetchBlock:
    def test_batches_and_counters(self):
        stats = Instrument()
        cursor = Cursor(["a"], iter([(i,) for i in range(5)]), stats=stats)
        assert cursor.fetch_block(2) == [(0,), (1,)]
        assert cursor.fetch_block(2) == [(2,), (3,)]
        assert cursor.fetch_block(2) == [(4,)]
        assert cursor.fetch_block(2) == []
        # Rows count per row, blocks per non-empty batch.
        assert stats.get(statnames.TUPLES_SHIPPED) == 5
        assert stats.get(statnames.BLOCKS_SHIPPED) == 3

    def test_midbatch_failure_parks_the_exception(self):
        cursor = Cursor(["a"], failing_after([(1,), (2,), (3,)]))
        assert cursor.fetch_block(8) == [(1,), (2,), (3,)]
        with pytest.raises(Boom):
            cursor.fetch_block(8)

    def test_failure_on_first_row_raises_immediately(self):
        cursor = Cursor(["a"], failing_after([]))
        with pytest.raises(Boom):
            cursor.fetch_block(8)


# -- prefetch over broken lazy tails -------------------------------------------------


class TestPrefetchBrokenTail:
    def broken_node(self, good, exc=None):
        """A node whose lazy tail yields ``good`` children then dies."""
        children = (Node("&c{}".format(i), "child") for i in range(good))
        return Node("&p", "parent",
                    lazy_tail=failing_after(children, exc=exc))

    def test_prefetch_parks_failure_past_the_demanded_child(self):
        node = self.broken_node(3)
        # Demand child 0, prefetch 63 more: the tail dies at child 3,
        # but the prefetch must not surface that ...
        node.prefetch_children(1, 63)
        assert node.materialized_child_count == 3
        # ... reads of the materialized prefix never raise ...
        for i in range(3):
            assert node.child(i).label == "child"
        # ... and genuine demand past the prefix raises, exactly where
        # tuple mode would have.
        with pytest.raises(Boom):
            node.child(3)
        # A dead tail stays dead: re-demanding re-raises, never
        # truncates.
        with pytest.raises(Boom):
            node.child(3)

    def test_strict_prefix_still_raises(self):
        node = self.broken_node(1)
        with pytest.raises(Boom):
            node.prefetch_children(3, 10)


# -- mid-block faults through the PR-2 injector --------------------------------------


ORDERS = "FOR $O IN document(root2)/order RETURN $O"


def injected_mediator(block_size, positions, on_error="raise",
                      n_orders=20):
    """A navigation-only mediator over a faulty scaled orders table."""
    stats = Instrument()
    db = Database("faulty", stats=stats)
    db.run("CREATE TABLE customer (id TEXT, name TEXT, addr TEXT,"
           " PRIMARY KEY (id))")
    db.run("CREATE TABLE orders (orid INT, cid TEXT, value INT,"
           " PRIMARY KEY (orid))")
    db.run("INSERT INTO customer VALUES ('XYZ', 'XYZInc.', 'LA')")
    for i in range(n_orders):
        db.run("INSERT INTO orders VALUES ({}, 'XYZ', {})".format(
            i, 100 * (i + 1)))
    wrapper = (
        RelationalWrapper(db)
        .register_document("root1", "customer")
        .register_document("root2", "orders", element_label="order")
    )
    faulty = FaultInjectingSource(
        wrapper, clock=ManualClock(), seed=0, obs=stats
    )
    for position in positions:
        faulty.fail_pull("root2", position, kind="permanent")
    mediator = Mediator(
        stats=stats, push_sql=False, block_size=block_size,
        on_source_error=on_error, cache=False,
    )
    return stats, mediator.add_source(faulty)


class TestMidBlockFaults:
    def test_block_mode_raises_at_the_same_answer_prefix(self):
        """A permanent fault mid-block: every block size delivers the
        same set of answers before the failure surfaces."""
        survivors = {}
        for size in (1, 7, 64):
            __, mediator = injected_mediator(size, positions=[11])
            root = mediator.query(ORDERS)
            seen = []
            with pytest.raises(MixError):
                node = root.d()
                while node is not None:
                    seen.append(str(node.fl()))
                    node = node.r()
            survivors[size] = seen
        # Tuple mode walks 11 orders before the fault; block mode may
        # *discover* the fault earlier (prefetch forces ahead) but must
        # never deliver fewer answers than it materialized, and the
        # failure must keep surfacing on re-demand.
        assert survivors[1] == ["order"] * 11
        assert survivors[7] == survivors[1]
        assert survivors[64] == survivors[1]

    def test_degrade_mode_is_byte_identical_across_block_sizes(self):
        """With degradation on, a mid-block fault becomes a stub in the
        same position at every block size (single-scan plans pull in
        scan order regardless of batching)."""
        reference = None
        for size in (1, 2, 7, 64):
            __, mediator = injected_mediator(
                size, positions=[5, 13], on_error="degrade"
            )
            answer = serialize(mediator.query(ORDERS).to_tree())
            assert "mix:error" in answer
            if reference is None:
                reference = answer
            else:
                assert answer == reference, (
                    "degraded answers diverged at block_size={}"
                    .format(size)
                )
