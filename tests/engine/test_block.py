"""Block boundary and edge-case battery for :mod:`repro.engine.block`.

The differential suite proves every block width agrees with the eager
oracle end to end; this file pins the primitives' contracts directly —
empty and partial blocks, oversized widths, exception *parking* (partial
output first, the failure re-raised at its width-1 position), prefetch
surviving a broken lazy tail, and mid-block faults through the PR-2
injector.
"""

from __future__ import annotations

import pytest

from repro import Database, Instrument, Mediator, RelationalWrapper
from repro import stats as statnames
from repro.engine.block import VectorBlocks, flatten
from repro.errors import MixError
from repro.relational.cursor import Cursor
from repro.resilience import FaultInjectingSource, ManualClock
from repro.xmltree import serialize
from repro.xmltree.tree import Node


class Boom(Exception):
    pass


def failing_after(values, exc=None):
    """A generator yielding ``values`` then raising."""
    for value in values:
        yield value
    raise exc or Boom("stream died")


# -- VectorBlocks --------------------------------------------------------------------


class TestVectorBlocks:
    def test_repacks_uneven_vectors_to_fixed_blocks(self):
        vectors = iter([[1], [], [2, 3, 4], [], [5, 6], [7]])
        blocks = list(VectorBlocks(vectors, 3))
        assert [list(b) for b in blocks] == [[1, 2, 3], [4, 5, 6], [7]]

    def test_empty_vectors_produce_no_blocks(self):
        assert list(VectorBlocks(iter([[], [], []]), 4)) == []

    def test_oversized_vector_is_split(self):
        blocks = list(VectorBlocks(iter([list(range(10))]), 4))
        assert [len(b) for b in blocks] == [4, 4, 2]
        assert list(flatten(iter(blocks))) == list(range(10))

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            VectorBlocks(iter(()), 0)

    def test_buffered_tuples_survive_a_failure(self):
        def vectors():
            yield [1, 2]
            raise Boom("vector source died")

        chunker = VectorBlocks(vectors(), 8)
        assert list(next(chunker)) == [1, 2]
        with pytest.raises(Boom):
            next(chunker)

    def test_failure_with_empty_buffer_raises_immediately(self):
        chunker = VectorBlocks(failing_after([]), 8)
        with pytest.raises(Boom):
            next(chunker)

    def test_width_larger_than_stream_is_one_partial_block(self):
        assert list(VectorBlocks(iter([[0, 1], [2]]), 1024)) == [[0, 1, 2]]

    def test_width_one_is_one_tuple_blocks(self):
        blocks = list(VectorBlocks(iter([[1, 2], [], [3]]), 1))
        assert blocks == [[1], [2], [3]]

    def test_repr_shows_shape(self):
        assert "buffered=0" in repr(VectorBlocks(iter(()), 4))


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
