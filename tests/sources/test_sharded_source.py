"""Unit tests for the sharded source (parallel scatter-gather pushdown).

A :class:`ShardedSource` must be observationally a single relational
source: same catalog surface, same answers, same ``tuples_shipped`` —
only the EXPLAIN footer and the shard counters betray the fleet.
"""

import threading
import time

import pytest

from repro import Database, Instrument, RelationalWrapper
from repro import stats as statnames
from repro.errors import ShardError, SourceError
from repro.resilience import ERROR_LABEL, find_error_stubs, shard_resilience
from repro.sources import Partition, ShardedSource, Source, hash_shard
from repro.sources.shard import HASH, RANGE
from repro.workloads import (
    build_customers_orders,
    build_sharded_customers_orders,
)
from repro.xmltree import serialize
from tests.conftest import DyingCursor

LAYOUTS = [(HASH, "cid"), (HASH, "orid"), (RANGE, "orid"), (RANGE, "value")]


def sharded(shards=3, scheme=HASH, key="cid", **kwargs):
    kwargs.setdefault("n_customers", 6)
    kwargs.setdefault("orders_per_customer", 3)
    return build_sharded_customers_orders(
        shards=shards, scheme=scheme, partition_key=key, **kwargs
    )


def unsharded(**kwargs):
    kwargs.setdefault("n_customers", 6)
    kwargs.setdefault("orders_per_customer", 3)
    return build_customers_orders(**kwargs)


class TestPlacement:
    def test_hash_shard_is_stable_and_in_range(self):
        for value in ("C000001", 42, None, "x"):
            index = hash_shard(value, 4)
            assert index == hash_shard(value, 4)
            assert 0 <= index < 4

    def test_bad_scheme_rejected(self):
        with pytest.raises(ValueError):
            Partition("orders", "cid", scheme="modulo")

    def test_empty_member_list_rejected(self):
        with pytest.raises(ValueError):
            ShardedSource([], Partition("orders", "cid"))

    def test_members_hold_a_true_partition(self):
        sw = sharded(shards=4)
        slices = [
            set(r[0] for r in m.execute_sql(
                "SELECT orid FROM orders").fetchall())
            for m in sw.members
        ]
        assert sum(len(s) for s in slices) == 18
        union = set().union(*slices)
        assert len(union) == 18
        sw.sharded.close()


class TestRouting:
    def test_partitioned_statement_scatters_to_every_member(self):
        sw = sharded(shards=3)
        rows = sw.sharded.execute_sql("SELECT orid FROM orders").fetchall()
        assert len(rows) == 18
        assert sw.stats.get(statnames.SHARDS_SCATTERED) == 3

    def test_replicated_statement_routes_to_first_member(self):
        sw = sharded(shards=3)
        rows = sw.sharded.execute_sql("SELECT id FROM customer").fetchall()
        assert len(rows) == 6
        assert sw.stats.get(statnames.SHARDS_SCATTERED) == 0

    def test_non_replicated_second_table_is_rejected(self):
        sw = sharded(shards=2)
        with pytest.raises(SourceError, match="non-replicated"):
            sw.sharded.execute_sql(
                "SELECT o.orid FROM orders o, nosuch n"
                " WHERE o.orid = n.orid"
            )

    def test_self_join_on_partitioned_table_is_rejected(self):
        sw = sharded(shards=2)
        with pytest.raises(SourceError, match="self-join"):
            sw.sharded.execute_sql(
                "SELECT a.orid FROM orders a, orders b"
                " WHERE a.orid = b.orid"
            )

    def test_non_select_is_rejected(self):
        sw = sharded(shards=2)
        with pytest.raises(SourceError):
            sw.sharded.execute_sql(
                "INSERT INTO orders VALUES (99, 'C1', 5)"
            )

    def test_member_local_join_matches_unsharded(self):
        sql = ("SELECT c.name, o.orid FROM customer c, orders o"
               " WHERE c.id = o.cid")
        want = sorted(unsharded().wrapper.execute_sql(sql).fetchall())
        sw = sharded(shards=4)
        assert sorted(sw.sharded.execute_sql(sql).fetchall()) == want


class TestGather:
    def test_same_multiset_as_unsharded(self):
        want = sorted(
            unsharded().wrapper.execute_sql(
                "SELECT orid, cid, value FROM orders").fetchall()
        )
        for scheme, key in ((HASH, "cid"), (RANGE, "orid"), (RANGE, "value")):
            sw = sharded(shards=4, scheme=scheme, key=key)
            got = sorted(sw.sharded.execute_sql(
                "SELECT orid, cid, value FROM orders").fetchall())
            assert got == want, (scheme, key)
            sw.sharded.close()

    def test_range_gather_preserves_key_order_without_order_by(self):
        sw = sharded(shards=4, scheme=RANGE, key="orid")
        got = [r[0] for r in sw.sharded.execute_sql(
            "SELECT orid FROM orders").fetchall()]
        assert got == sorted(got)

    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    @pytest.mark.parametrize("scheme,key", LAYOUTS)
    def test_order_by_forces_an_exact_merge(self, shards, scheme, key):
        sw = sharded(shards=shards, scheme=scheme, key=key)
        rows = sw.sharded.execute_sql(
            "SELECT orid, value FROM orders ORDER BY value, orid"
        ).fetchall()
        keys = [(value, orid) for orid, value in rows]
        assert keys == sorted(keys) and len(keys) == 18
        sw.sharded.close()

    def test_order_by_column_outside_projection_is_trimmed(self):
        sw = sharded(shards=3, scheme=HASH, key="cid")
        rows = sw.sharded.execute_sql(
            "SELECT cid FROM orders ORDER BY orid").fetchall()
        assert {len(r) for r in rows} == {1}
        want = [
            r[0] for r in unsharded().wrapper.execute_sql(
                "SELECT cid FROM orders ORDER BY orid").fetchall()
        ]
        assert [r[0] for r in rows] == want

    def test_star_projection_with_order_by(self):
        sw = sharded(shards=3, scheme=HASH, key="cid")
        cursor = sw.sharded.execute_sql(
            "SELECT * FROM orders ORDER BY orid")
        assert cursor.column_names == ["orid", "cid", "value"]
        got = [r[0] for r in cursor.fetchall()]
        assert got == sorted(got)

    def test_distinct_deduplicates_across_members(self):
        # Hash on orid spreads one customer's orders over members, so
        # each member ships the cid and the gather must dedup globally.
        sw = sharded(shards=4, scheme=HASH, key="orid")
        rows = sw.sharded.execute_sql(
            "SELECT DISTINCT cid FROM orders").fetchall()
        assert sorted(rows) == sorted(set(rows))
        assert len(rows) == 6

    def test_tuples_shipped_is_conserved(self):
        base = unsharded()
        base.wrapper.execute_sql("SELECT orid FROM orders").fetchall()
        want = base.stats.get(statnames.TUPLES_SHIPPED)
        sw = sharded(shards=4)
        sw.sharded.execute_sql("SELECT orid FROM orders").fetchall()
        assert sw.stats.get(statnames.TUPLES_SHIPPED) == want


class TestPruning:
    def prune_workload(self):
        sw = sharded(shards=4, scheme=RANGE, key="value",
                     n_customers=8, orders_per_customer=4,
                     value_mode="tiered")
        sw.sharded.analyze()
        return sw

    def test_range_predicate_prunes_members(self):
        sw = self.prune_workload()
        values = [r[0] for r in sw.sharded.execute_sql(
            "SELECT value FROM orders").fetchall()]
        threshold = sorted(values)[len(values) // 8]
        before = sw.stats.get(statnames.SHARDS_PRUNED)
        rows = sw.sharded.execute_sql(
            "SELECT orid, value FROM orders WHERE value < {}".format(
                threshold)).fetchall()
        assert sw.stats.get(statnames.SHARDS_PRUNED) > before
        assert sorted(r[1] for r in rows) == sorted(
            v for v in values if v < threshold)

    def test_all_members_pruned_yields_empty_cursor(self):
        sw = self.prune_workload()
        cursor = sw.sharded.execute_sql(
            "SELECT orid FROM orders WHERE value > 99999999")
        assert cursor.column_names == ["orid"]
        assert cursor.fetchall() == []
        assert sw.stats.get(statnames.SHARDS_PRUNED) == 4
        assert sw.stats.get(statnames.SHARDS_SCATTERED) == 0

    def test_stale_statistics_disable_pruning(self):
        sw = self.prune_workload()
        # A write to one member makes that member's stats stale; a
        # stale member can never be pruned (soundness over savings).
        sw.members[0].database.run(
            "INSERT INTO orders VALUES (9999, 'C000000', 1)")
        before = sw.stats.get(statnames.SHARDS_PRUNED)
        sw.sharded.execute_sql(
            "SELECT orid FROM orders WHERE value > 99999999").fetchall()
        assert sw.stats.get(statnames.SHARDS_PRUNED) == before + 3

    def test_merged_statistics_cover_the_logical_table(self):
        sw = self.prune_workload()
        merged = sw.sharded.table_statistics("orders")
        assert merged.row_count == 32
        column = merged.column("value")
        lows = [m.table_statistics("orders").column("value").min
                for m in sw.members]
        highs = [m.table_statistics("orders").column("value").max
                 for m in sw.members]
        assert column.min == min(lows)
        assert column.max == max(highs)


class TestNavigation:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7])
    def test_partitioned_document_concatenates_members(self, shards):
        # Range members in key order: the unsharded document order.
        sw = sharded(shards=shards, scheme=RANGE, key="orid")
        oids = [child.oid
                for child in sw.sharded.iter_document_children("root2")]
        assert oids == ["&{}".format(i) for i in range(18)]
        sw.sharded.close()

    def test_replicated_document_reads_one_member(self):
        sw = sharded(shards=3)
        assert len(list(sw.sharded.iter_document_children("root1"))) == 6
        assert sw.stats.get(statnames.TUPLES_SHIPPED) == 6

    def test_document_catalog_is_delegated(self):
        sw = sharded(shards=2)
        assert sw.sharded.document_ids() == ["root1", "root2"]
        assert sw.sharded.table_for_document("root2") == "orders"
        assert sw.sharded.label_for_document("root2") == "order"
        assert sw.sharded.supports_sql()


class TestFailure:
    def kill(self, sw, index):
        def boom(sql, params=()):
            raise SourceError("member down", sql=sql, source="dead")
        sw.members[index].execute_sql = boom

    def test_dead_member_raises_shard_error_once_then_survivors(self):
        sw = sharded(shards=4)
        dead = [r[0] for r in sw.members[2].execute_sql(
            "SELECT orid FROM orders").fetchall()]
        self.kill(sw, 2)
        cursor = sw.sharded.execute_sql("SELECT orid FROM orders")
        rows, errors = [], []
        while True:
            try:
                row = cursor.fetchone()
            except ShardError as exc:
                errors.append(exc)
                continue
            if row is None:
                break
            rows.append(row[0])
        assert len(errors) == 1
        assert errors[0].index == 2
        assert sorted(rows) == sorted(set(range(18)) - set(dead))
        assert sw.stats.get(statnames.SHARDS_FAILED) == 1

    def test_failed_navigation_supports_skip(self):
        sw = sharded(shards=3, scheme=RANGE, key="orid")
        sw.members[1].iter_document_children = None  # force the error

        def boom(doc_id):
            raise SourceError("member down", doc_id=doc_id)
        sw.members[1].iter_document_children = boom
        iterator = sw.sharded.iter_document_children("root2")
        seen = []
        while True:
            try:
                seen.append(next(iterator))
            except StopIteration:
                break
            except ShardError:
                iterator.skip()
        assert len(seen) == 12
        assert sw.stats.get(statnames.SHARDS_FAILED) == 1

    @pytest.mark.parametrize("victim", range(4))
    def test_killing_one_member_degrades_not_fails(self, victim):
        sw = sharded(shards=4, member_wrapper=shard_resilience)
        member = sw.members[victim].inner
        dead = len(member.execute_sql("SELECT orid FROM orders").fetchall())

        def boom(sql, params=()):
            raise SourceError("member down", sql=sql)
        member.execute_sql = boom
        mediator = sw.mediator(on_source_error="degrade")
        text = serialize(mediator.query(
            "FOR $O IN document(root2)/order RETURN $O").to_tree())
        assert text.count("<order>") == 18 - dead
        # The dead member fails its stream even when its slice was
        # empty: exactly one failure, exactly one stub.
        assert text.count("<" + ERROR_LABEL + ">") == 1
        assert sw.stats.get(statnames.SHARDS_FAILED) == 1
        sw.sharded.close()

    def test_shard_health_reports_the_fleet(self):
        sw = sharded(shards=3)
        sw.sharded.execute_sql("SELECT orid FROM orders").fetchall()
        health = sw.sharded.health()["shard"]
        assert health["source"] == "s"
        assert health["shards"] == 3
        assert health["scattered"] == 3
        assert health["failed"] == 0


class TestMediatorIntegration:
    QUERY = """
    FOR $C IN source(root1)/customer
        $O IN document(root2)/order
    WHERE $C/id/data() = $O/cid/data()
    RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}
    """

    def test_query_answers_match_unsharded(self):
        base = unsharded()
        want = serialize(base.mediator().query(self.QUERY).to_tree())
        sw = sharded(shards=4)
        got = serialize(sw.mediator().query(self.QUERY).to_tree())
        assert got == want
        assert sw.stats.get(statnames.SHARDS_SCATTERED) == 4
        sw.sharded.close()

    def test_explain_carries_the_shard_footer(self):
        sw = sharded(shards=3)
        text = sw.mediator().explain(self.QUERY, mask_times=True)
        assert "-- shard[s]: shards=3 scattered=3 pruned=0 failed=0" in text
        sw.sharded.close()

    def test_data_version_tracks_member_writes(self):
        sw = sharded(shards=2)
        before = sw.sharded.data_version()
        assert before[0] == "shard"
        sw.members[1].database.run(
            "INSERT INTO orders VALUES (777, 'C000000', 5)")
        assert sw.sharded.data_version() != before

    def test_block_size_is_forwarded(self):
        sw = sharded(shards=2)
        sw.sharded.set_block_size(7)
        assert all(m._block_size == 7 for m in sw.members)


class TestCatalogSurface:
    """The smaller protocol surface: config forwarding, versioning,
    estimates, delegation — each must behave as one logical source."""

    def test_reprs_name_the_fleet(self):
        sw = sharded(shards=3)
        assert "Partition(orders" in repr(sw.sharded.partition)
        assert "3 members" in repr(sw.sharded)
        iterator = sw.sharded.iter_document_children("root2")
        assert "_ShardedChildIterator" in repr(iterator)
        cursor = sw.sharded.execute_sql("SELECT orid FROM orders")
        assert repr(cursor) == "Cursor(['orid'], 0 fetched, open)"
        cursor.fetchall()
        assert repr(cursor) == "Cursor(['orid'], 18 fetched, closed)"
        sw.sharded.close()

    def test_sql_cache_forwarding(self):
        sw = sharded(shards=2)
        sw.sharded.enable_sql_cache(maxsize=8)
        sw.sharded.enable_sql_cache(0)
        rows = sw.sharded.execute_sql("SELECT orid FROM orders").fetchall()
        assert len(rows) == 18
        sw.sharded.close()

    def test_data_version_none_when_any_member_unversioned(self):
        sw = sharded(shards=2)
        sw.members[1].data_version = lambda: None
        assert sw.sharded.data_version() is None

    def test_estimate_sql_sums_member_estimates(self):
        sw = sharded(shards=3)
        sw.sharded.analyze()
        scatter = sw.sharded.estimate_sql("SELECT orid FROM orders")
        replicated = sw.sharded.estimate_sql("SELECT id FROM customer")
        member_rows = [
            m.estimate_sql("SELECT orid FROM orders") for m in sw.members
        ]
        if all(e is not None for e in member_rows):
            assert scatter == sum(member_rows)
        assert replicated == sw.members[0].estimate_sql(
            "SELECT id FROM customer")
        assert sw.sharded.estimate_sql("SELECT bogus syntax(((") is None
        sw.sharded.close()

    def test_oid_to_key_delegates(self):
        sw = sharded(shards=2)
        key = sw.sharded.oid_to_key("orders", "&0")
        assert key == sw.members[0].oid_to_key("orders", "&0")

    def test_unparseable_pushed_sql_raises_source_error(self):
        sw = sharded(shards=2)
        with pytest.raises(SourceError, match="could not parse"):
            sw.sharded.execute_sql("SELECT FROM WHERE (((")

    def test_order_by_alias_and_star_positions(self):
        sw = sharded(shards=3)
        starred = sw.sharded.execute_sql(
            "SELECT * FROM orders ORDER BY cid, orid").fetchall()
        keys = [(r[1], r[0]) for r in starred]
        assert keys == sorted(keys)
        # An ORDER BY ref naming a projection alias resolves to that
        # item's position (the merge sorts on it without widening).
        aliased = sw.sharded.execute_sql(
            "SELECT value AS v FROM orders").fetchall()
        assert sorted(r[0] for r in aliased) == sorted(
            r[2] for r in starred)
        stmt = sw.sharded._parse_select(
            "SELECT value AS v FROM orders ORDER BY v")
        assert sw.sharded._item_position(stmt, stmt.order_by[0]) == 0
        stmt = sw.sharded._parse_select(
            "SELECT *, value AS vv FROM orders ORDER BY vv")
        assert sw.sharded._item_position(stmt, stmt.order_by[0]) == 3
        sw.sharded.close()

    def test_table_statistics_none_on_member_gap(self):
        sw = sharded(shards=2)
        sw.sharded.analyze()
        assert sw.sharded.table_statistics("orders") is not None

        def gone(table_name):
            raise SourceError("statistics lost")

        sw.members[0].table_statistics = gone
        assert sw.sharded.table_statistics("orders") is None
        del sw.members[0].table_statistics
        sw.members[1].table_statistics = lambda table_name: None
        assert sw.sharded.table_statistics("orders") is None


class TestNavigationFailureMidStream:
    def test_source_error_mid_iteration_wraps_as_shard_error(self):
        sw = sharded(shards=2)

        real = sw.members[1].iter_document_children

        def flaky(doc_id):
            children = list(real(doc_id))
            yield children[0]
            raise SourceError("member lost mid-stream")

        sw.members[1].iter_document_children = flaky
        iterator = sw.sharded.iter_document_children("root2")
        with pytest.raises(ShardError, match="during navigation"):
            list(iterator)
        assert sw.stats.get(statnames.SHARDS_FAILED) == 1

    def test_shard_error_from_member_passes_through(self):
        sw = sharded(shards=2)
        original = ShardError("already typed", index=1)

        def flaky(doc_id):
            raise original
            yield  # pragma: no cover

        sw.members[1].iter_document_children = flaky
        iterator = sw.sharded.iter_document_children("root2")
        with pytest.raises(ShardError) as caught:
            list(iterator)
        assert caught.value is original

    def test_member_name_falls_back_to_type_name(self):
        from repro.sources.shard import _member_name

        class Opaque(Source):
            pass

        assert _member_name(Opaque(), 2) == "Opaque[2]"


class TestMemberNames:
    """A member is named once: the name its ``ResilientSource`` and
    breaker carry is the one its ``ShardError`` and its stub show."""

    QUERY = "FOR $O IN document(root2)/order RETURN $O"

    def resilient_fleet_with_dead_member(self, victim):
        sw = sharded(shards=3, member_wrapper=shard_resilience)

        def boom(*args):
            raise SourceError("member down")

        sw.members[victim].inner.execute_sql = boom
        sw.members[victim].inner.iter_document_children = boom
        return sw

    @pytest.mark.parametrize("victim", range(3))
    @pytest.mark.parametrize("push_sql", [True, False],
                             ids=["scatter", "navigation"])
    def test_stub_source_is_the_member_name(self, push_sql, victim):
        sw = self.resilient_fleet_with_dead_member(victim)
        mediator = sw.mediator(on_source_error="degrade", push_sql=push_sql)
        stubs = find_error_stubs(mediator.query(self.QUERY).to_tree())
        assert len(stubs) == 1
        source = stubs[0].children[0]
        assert source.label == "source"
        assert source.children[0].label == sw.members[victim].name
        sw.sharded.close()

    @pytest.mark.parametrize("victim", range(3))
    def test_shard_error_names_the_member_on_scatter(self, victim):
        sw = self.resilient_fleet_with_dead_member(victim)
        cursor = sw.sharded.execute_sql("SELECT orid FROM orders")
        with pytest.raises(ShardError) as caught:
            cursor.fetchall()
        name = sw.members[victim].name
        assert (caught.value.shard, caught.value.source) == (name, name)
        assert caught.value.index == victim
        sw.sharded.close()

    @pytest.mark.parametrize("victim", range(3))
    def test_shard_error_names_the_member_on_navigation(self, victim):
        sw = self.resilient_fleet_with_dead_member(victim)
        with pytest.raises(ShardError) as caught:
            list(sw.sharded.iter_document_children("root2"))
        name = sw.members[victim].name
        assert (caught.value.shard, caught.value.source) == (name, name)
        assert caught.value.index == victim

    def test_plain_members_are_indexed(self):
        sw = sharded(shards=3)

        def boom(doc_id):
            raise SourceError("member down")

        sw.members[2].iter_document_children = boom
        with pytest.raises(ShardError) as caught:
            list(sw.sharded.iter_document_children("root2"))
        assert caught.value.shard == "s2[2]"


class TestCursorContract:
    """One cursor contract, whether a cursor reads one statement or
    gathers a scatter: when its rows fail mid-fetch, ``fetch_block``
    returns the partial block, the next call raises once, and the call
    after goes on with whatever survives — the other members' rows, or
    nothing on a single statement.  ``rows_fetched`` counts the rows
    delivered."""

    VICTIM = 1
    KEEP = 2      # rows the victim member ships before its cursor dies
    BIG = 100     # more rows than any case holds
    #: gather -> (scheme, key, pushed SQL, SQL of one member's stream
    #: as the gather sees it, in shipping order)
    GATHERS = {
        "arrival": (HASH, "orid", "SELECT orid, value FROM orders", None),
        "ordered": (RANGE, "orid", "SELECT orid, value FROM orders", None),
        "merge": (HASH, "orid",
                  "SELECT orid, value FROM orders ORDER BY value, orid",
                  None),
        "distinct": (HASH, "orid",
                     "SELECT DISTINCT cid FROM orders ORDER BY orid",
                     "SELECT cid FROM orders ORDER BY orid"),
    }

    def drain(self, cursor, error):
        first = cursor.fetch_block(self.BIG)
        assert 0 < len(first) < self.BIG      # the partial block
        with pytest.raises(error):
            cursor.fetch_block(self.BIG)
        rest = []
        while True:
            block = cursor.fetch_block(self.BIG)
            if not block:
                break
            rest.extend(block)
        assert cursor.rows_fetched == len(first) + len(rest)
        return first, rest

    def test_plain_cursor(self):
        base = unsharded()
        sql = self.GATHERS["arrival"][2]
        cursor = base.wrapper.database.execute(sql)
        rows = cursor._rows

        def dying():
            for __ in range(self.KEEP):
                yield next(rows)
            raise SourceError("statement died mid-stream")

        cursor._rows = dying()
        first, rest = self.drain(cursor, SourceError)
        assert first == base.wrapper.execute_sql(sql).fetchall()[:self.KEEP]
        assert rest == []
        assert base.stats.get(statnames.TUPLES_SHIPPED) == self.KEEP + 18

    @pytest.mark.parametrize("gather", sorted(GATHERS))
    def test_scattered_cursor(self, gather):
        scheme, key, sql, member_sql = self.GATHERS[gather]
        sw = sharded(shards=3, scheme=scheme, key=key)
        expected = []
        for index, member in enumerate(sw.members):
            rows = member.execute_sql(member_sql or sql).fetchall()
            expected.extend(rows[:self.KEEP] if index == self.VICTIM
                            else rows)
        member = sw.members[self.VICTIM]
        real = member.execute_sql
        member.execute_sql = lambda sql, params=(): DyingCursor(
            real(sql, params), self.KEEP
        )

        first, rest = self.drain(sw.sharded.execute_sql(sql), ShardError)
        got = first + rest
        if gather == "ordered":
            assert got == expected
        elif gather == "merge":
            assert got == sorted(expected, key=lambda r: (r[1], r[0]))
        elif gather == "distinct":
            assert sorted(got) == sorted(set(expected))
        else:
            assert sorted(got) == sorted(expected)
        assert sw.stats.get(statnames.SHARDS_FAILED) == 1
        assert sw.sharded.health()["shard"]["failed"] == 1
        sw.sharded.close()

    @pytest.mark.parametrize("gather", sorted(GATHERS))
    def test_close_stops_member_pumping(self, gather):
        scheme, key, sql, __ = self.GATHERS[gather]
        sw = sharded(shards=3, scheme=scheme, key=key)
        sw.sharded.set_block_size(1)   # 6 blocks a member, 4 read ahead
        gate = threading.Event()
        fetches = [[] for __ in sw.members]

        class Gated:
            def __init__(self, inner, log):
                self._inner, self._log = inner, log

            def fetch_block(self, size):
                gate.wait(5)
                self._log.append(size)
                return self._inner.fetch_block(size)

        for member, log in zip(sw.members, fetches):
            member.execute_sql = (
                lambda sql, params=(), real=member.execute_sql, log=log:
                Gated(real(sql, params), log)
            )
        cursor = sw.sharded.execute_sql(sql)
        cursor.close()
        gate.set()    # each member's first fetch was in flight
        deadline = time.monotonic() + 5
        while (any(not log for log in fetches)
               and time.monotonic() < deadline):
            time.sleep(0.005)
        time.sleep(0.05)
        assert fetches == [[1], [1], [1]]
        assert cursor.fetch_block(self.BIG) == []
        sw.sharded.close()
