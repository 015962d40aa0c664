"""Cost-based physical planning: join order, build side, index choice."""

import pytest

from repro.optimizer.cost import SelectPlanner, estimate_select
from repro.relational import Database
from repro.relational.executor import resolve_select
from repro.relational.parser import parse_sql


def planner_for(db, sql):
    binding, predicates = resolve_select(db, parse_sql(sql))
    return SelectPlanner(binding, predicates)


@pytest.fixture
def db():
    database = Database("plandb")
    database.run(
        "CREATE TABLE customer (id TEXT, name TEXT, addr TEXT,"
        " PRIMARY KEY (id))"
    )
    database.run(
        "CREATE TABLE orders (orid INT, cid TEXT, value INT,"
        " PRIMARY KEY (orid))"
    )
    for i in range(50):
        database.run(
            "INSERT INTO customer VALUES ('C{:03d}', 'N{}', 'City{}')"
            .format(i, i, 0 if i < 45 else i % 5)
        )
        for j in range(4):
            database.run(
                "INSERT INTO orders VALUES ({}, 'C{:03d}', {})".format(
                    i * 4 + j, i, (i * 4 + j) % 100 + 1
                )
            )
    database.analyze()
    return database


class TestJoinOrder:
    def test_starts_from_smallest_filtered_alias(self, db):
        plan = planner_for(
            db,
            "SELECT c.id FROM customer c, orders o"
            " WHERE c.id = o.cid AND o.value <= 2",
        ).join_order()
        # ~2% of orders survive the filter; 50 customers do not shrink.
        assert [s.alias for s in plan] == ["o", "c"]
        assert plan[0].build_new is None

    def test_unfiltered_starts_from_smaller_table(self, db):
        plan = planner_for(
            db,
            "SELECT c.id FROM customer c, orders o WHERE c.id = o.cid",
        ).join_order()
        assert plan[0].alias == "c"

    def test_adversarial_self_join_is_deferred(self, db):
        # The E-OPT shape: the skewed addr self-join explodes, the
        # filtered orders scan is tiny — the plan must start at orders
        # and meet the skew last.
        plan = planner_for(
            db,
            "SELECT c.id FROM customer c, customer c2, orders o"
            " WHERE c.addr = c2.addr AND c.id = o.cid AND o.value <= 2",
        ).join_order()
        assert plan[0].alias == "o"
        assert plan[1].alias == "c"
        assert plan[2].alias == "c2"

    def test_estimates_are_monotone_records(self, db):
        plan = planner_for(
            db,
            "SELECT c.id FROM customer c, orders o WHERE c.id = o.cid",
        ).join_order()
        assert all(s.estimate >= 0 for s in plan)

    def test_build_side_picks_smaller_input(self, db):
        planner = planner_for(
            db,
            "SELECT c.id FROM orders o, customer c"
            " WHERE c.id = o.cid AND o.value <= 2",
        )
        plan = planner.join_order()
        # Stream after the filtered orders scan is ~4 rows; customer is
        # 50: the join step streams customer and builds on the stream.
        step = plan[1]
        assert step.alias == "c"
        assert step.build_new is False

    def test_disconnected_graph_prefers_filtered_alias(self, db):
        plan = planner_for(
            db,
            "SELECT c.id FROM customer c, orders o WHERE o.value <= 2",
        ).join_order()
        # No join predicate: the cross product starts from the smallest
        # side, which is the filtered orders scan.
        assert plan[0].alias == "o"


class TestChooseIndex:
    def test_fully_bound_index_always_wins(self, db):
        db.run("CREATE INDEX by_cid ON orders (cid)")
        planner = planner_for(
            db, "SELECT o.orid FROM orders o WHERE o.cid = 'C001'"
        )
        choice = planner.choose_index("o", [(("cid",), 1)])
        assert choice == (("cid",), 1)

    def test_selective_prefix_wins(self, db):
        db.run("CREATE INDEX by_cid_value ON orders (cid, value)")
        planner = planner_for(
            db, "SELECT o.orid FROM orders o WHERE o.cid = 'C001'"
        )
        # cid has NDV 50 over 200 rows: a prefix probe reads ~4 rows.
        assert planner.choose_index(
            "o", [(("cid", "value"), 1)]
        ) == (("cid", "value"), 1)

    def test_unselective_prefix_falls_back_to_scan(self):
        # Every row shares the one addr value (NDV 1): the prefix probe
        # would walk the whole index, so the planner keeps the scan.
        database = Database("flat")
        database.run(
            "CREATE TABLE t (id INT, addr TEXT, name TEXT,"
            " PRIMARY KEY (id))"
        )
        for i in range(40):
            database.run(
                "INSERT INTO t VALUES ({}, 'City0', 'N{}')".format(i, i)
            )
        database.run("CREATE INDEX by_addr_name ON t (addr, name)")
        database.analyze()
        planner = planner_for(
            database, "SELECT t.id FROM t t WHERE t.addr = 'City0'"
        )
        assert planner.choose_index(
            "t", [(("addr", "name"), 1)]
        ) is None

    def test_most_selective_candidate_chosen(self, db):
        planner = planner_for(
            db,
            "SELECT o.orid FROM orders o"
            " WHERE o.cid = 'C001' AND o.value = 5",
        )
        choice = planner.choose_index(
            "o", [(("value",), 1), (("cid", "value"), 2)]
        )
        assert choice == (("cid", "value"), 2)

    def test_no_candidates(self, db):
        planner = planner_for(db, "SELECT o.orid FROM orders o")
        assert planner.choose_index("o", []) is None


class TestEstimateSelect:
    def test_point_query_estimate(self, db):
        est = estimate_select(
            db, parse_sql("SELECT * FROM orders WHERE cid = 'C001'")
        )
        assert est == pytest.approx(4.0, rel=0.5)

    def test_join_estimate_tracks_actual(self, db):
        sql = (
            "SELECT c.id, o.orid FROM customer c, orders o"
            " WHERE c.id = o.cid"
        )
        est = estimate_select(db, parse_sql(sql))
        actual = len(db.execute(sql).fetchall())
        assert actual / 4 <= est <= actual * 4

    def test_database_estimate_wrapper(self, db):
        assert db.estimate("SELECT * FROM orders") == pytest.approx(200.0)

    def test_estimate_rejects_dml(self, db):
        from repro.errors import SqlError

        with pytest.raises(SqlError):
            db.estimate("DELETE FROM orders WHERE orid = 1")


def ordered_plan_for(db, sql):
    """``(planner, plan)`` the way ``execute_select`` asks for it."""
    stmt = parse_sql(sql)
    binding, predicates = resolve_select(db, stmt)
    planner = SelectPlanner(binding, predicates)
    order_by = [binding.resolve(c) for c in stmt.order_by]
    shown = None
    if stmt.distinct:
        shown = {a for a, _ in order_by}
        shown |= {binding.resolve(item.ref)[0] for item in stmt.items}
    return planner, planner.ordered_plan(order_by, shown)


class TestOrderedPlan:
    VIEW = (
        "SELECT c.id, o.orid FROM customer c, orders o"
        " WHERE c.id = o.cid ORDER BY c.id, o.orid"
    )
    REFINE = (
        "SELECT DISTINCT c2.id, o2.orid"
        " FROM customer c1, orders o1, customer c2, orders o2"
        " WHERE o1.value > 50 AND c1.id = o1.cid AND c2.id = o2.cid"
        " AND c1.id = c2.id ORDER BY c2.id, o2.orid"
    )

    def test_key_led_order_by_drives_that_alias(self, db):
        planner, plan = ordered_plan_for(db, self.VIEW)
        assert plan.driver == "c" and plan.sorted_prefix == 1
        (step,) = plan.steps
        assert (step.alias, step.access, step.columns) == (
            "o", "index", ("cid",)
        )
        assert step.semi is None and len(step.lookups) == 1
        assert plan.cost <= planner.sort_plan_cost()

    def test_unshown_aliases_become_a_semijoin_group(self, db):
        _, plan = ordered_plan_for(db, self.REFINE)
        assert plan.driver == "c2"
        assert [(s.alias, s.access) for s in plan.steps] == [
            ("c1", "key"), ("o1", "index"), ("o2", "index")
        ]
        # Joined right after c2, the only alias the group attaches to.
        assert [s.semi is not None for s in plan.steps] == [
            True, True, False
        ]
        assert plan.steps[0].semi == plan.steps[1].semi
        # A key lookup yields at most one row, whatever the NDV guess.
        assert plan.steps[0].estimate <= 50

    def test_no_semijoin_without_distinct(self, db):
        _, plan = ordered_plan_for(
            db, self.REFINE.replace("DISTINCT ", "")
        )
        assert plan is not None
        assert all(step.semi is None for step in plan.steps)

    @pytest.mark.parametrize("order_by", [
        "c.name", "o.cid, o.orid", "c.name, c.id",
    ])
    def test_order_not_led_by_a_key_has_no_plan(self, db, order_by):
        _, plan = ordered_plan_for(
            db,
            "SELECT c.id FROM customer c, orders o WHERE c.id = o.cid"
            " ORDER BY " + order_by,
        )
        assert plan is None

    def test_keyless_table_has_no_plan(self):
        database = Database("keyless")
        database.run("CREATE TABLE t (a INT, b INT)")
        _, plan = ordered_plan_for(database, "SELECT a FROM t ORDER BY a")
        assert plan is None

    def test_composite_key_prefix(self):
        database = Database("composite")
        database.run(
            "CREATE TABLE t (x INT, y INT, v INT, PRIMARY KEY (x, y))"
        )
        for order_by, prefix in (
            ("t.x", 1), ("t.x, t.y", 2), ("t.x, t.v", 1), ("t.x, t.y, t.v", 2),
        ):
            _, plan = ordered_plan_for(
                database, "SELECT t.v FROM t t ORDER BY " + order_by
            )
            assert plan.sorted_prefix == prefix, order_by
        _, plan = ordered_plan_for(
            database, "SELECT t.v FROM t t ORDER BY t.y, t.x"
        )
        assert plan is None

    def test_ddl_index_on_the_join_columns_is_used(self, db):
        db.run("CREATE INDEX by_cid_value ON orders (cid, value)")
        _, plan = ordered_plan_for(db, self.VIEW)
        # (cid, value) is not covered by the one equijoin: join index.
        assert plan.steps[0].columns == ("cid",)
        _, plan = ordered_plan_for(
            db,
            "SELECT c.id FROM customer c, orders o, orders p"
            " WHERE c.id = o.cid AND p.cid = o.cid AND p.value = o.value"
            " ORDER BY c.id",
        )
        by_alias = {step.alias: step for step in plan.steps}
        assert by_alias["p"].columns == ("cid", "value")
        assert [
            (p.left.column, p.right.column) for p in by_alias["p"].lookups
        ] == [("cid", "cid"), ("value", "value")]

    def test_alias_without_equality_is_looped(self, db):
        _, plan = ordered_plan_for(
            db,
            "SELECT c.id FROM customer c, orders o WHERE o.value <= 2"
            " ORDER BY c.id",
        )
        (step,) = plan.steps
        assert step.access == "loop" and step.lookups == []

    def test_selective_indexed_filter_elsewhere_still_sorts(self, db):
        # An index probe makes the hash plan read 2 orders and 50
        # customers; driving customer in key order would read all 200
        # orders through the join index.
        db.run("CREATE INDEX by_value ON orders (value)")
        sql = (
            "SELECT c.id, o.orid FROM customer c, orders o"
            " WHERE c.id = o.cid AND o.value = 2 ORDER BY c.id, o.orid"
        )
        assert ordered_plan_for(db, sql)[1] is None
        db.optimizer = False
        reference = db.execute(sql).fetchall()
        db.optimizer = True
        assert db.execute(sql).fetchall() == reference != []
