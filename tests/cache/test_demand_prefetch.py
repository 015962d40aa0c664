"""Demand-sized prefetch: an answer's first pull is as wide as earlier
answers of its prepared plan were navigated.

Every :class:`~repro.cache.shapes.PreparedPlan` keeps one ``demand``
integer — the root children navigation reached on its answers, capped
at the block size.  The next answer of the plan starts its root export
pipeline (and its pushed-SQL fetches) at that width and grows ×4 per
root pull; with no history (a new shape, ``cache=False``) every width is
``block_size``, and ``block_size=1`` is the seed's execution.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import Database, Instrument, Mediator, RelationalWrapper
from repro import stats as sn
from repro.errors import SourceError
from repro.resilience import ERROR_LABEL, FaultInjectingSource, ManualClock
from repro.workloads import build_customers_orders
from repro.xmltree import serialize

VIEW = (
    "FOR $C IN document(root1)/customer $O IN document(root2)/order "
    "WHERE $C/id/data() = $O/cid/data() "
    "RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}"
)
REFINE = (
    "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
    "WHERE $S/order/value/data() > {} RETURN $R"
)
FILTER = (
    "FOR $O IN document(root2)/order WHERE $O/value/data() > {} "
    "RETURN $O"
)
ORDERS = "FOR $O IN document(root2)/order RETURN $O"
ORDERS_PER = 5
BLOCK = 64


def deployment(block_size=BLOCK, cache=True, customers=100):
    built = build_customers_orders(
        n_customers=customers, orders_per_customer=ORDERS_PER
    )
    mediator = Mediator(
        stats=built.stats, cache=cache, block_size=block_size
    ).add_source(built.wrapper)
    return built.stats, mediator


def browse(root, k, content=False):
    """``d`` then ``r`` until ``k`` root children were landed on; their
    labels and oids (with ``content``, their serialized subtrees — which
    reads each child's nested orders), in order."""
    seen = []
    node = root.d()
    while node is not None and len(seen) < k:
        seen.append((node.fl(), str(node.oid)))
        if content:
            seen[-1] += (serialize(node.to_tree()),)
        if len(seen) < k:
            node = node.r()
    return seen


def shipped_by(stats, action):
    before = stats.get(sn.TUPLES_SHIPPED)
    result = action()
    return stats.get(sn.TUPLES_SHIPPED) - before, result


def prepared_plans(mediator):
    return [
        entry for entry in mediator.cache.plan_cache.values()
        if hasattr(entry, "demand")
    ]


# -- the schedule -----------------------------------------------------------------------


def test_first_answer_ships_a_block_and_a_repeat_ships_its_demand():
    stats, mediator = deployment()
    view = mediator.query(VIEW)
    first, __ = shipped_by(stats, lambda: browse(view.q(REFINE.format(250)), 5))
    # No history: one full block of CustRecs, 64 groups of orders.
    assert first == BLOCK * ORDERS_PER
    assert stats.get(sn.DEMAND_SIZED) == 0
    second, __ = shipped_by(stats, lambda: browse(view.q(REFINE.format(260)), 5))
    # The predecessor reached 5 root children: about 5 groups ship.
    assert second == 5 * ORDERS_PER
    assert stats.get(sn.DEMAND_SIZED) == 1
    assert mediator.cache_stats()["plan_cache"]["demand_recorded"] >= 1


@pytest.mark.parametrize("k", [1, 3, 7])
def test_repeat_ships_about_k_groups(k):
    stats, mediator = deployment()
    view = mediator.query(VIEW)
    browse(view.q(REFINE.format(250)), k)
    shipped, answer = shipped_by(
        stats, lambda: browse(view.q(REFINE.format(260)), k)
    )
    assert len(answer) == k
    # Presorted gBy yields group k at its first row; the fetch that
    # brings it in is k rows wide.
    assert (k - 1) * ORDERS_PER < shipped <= (k + 1) * ORDERS_PER


def test_navigating_past_the_demand_ramps_to_full_width():
    stats, mediator = deployment()
    view = mediator.query(VIEW)
    browse(view.q(REFINE.format(250)), 2)
    _, cold = deployment(cache=False)
    expected = browse(cold.query(VIEW).q(REFINE.format(260)), 90)
    # Ramps 2 -> 8 -> 32 -> 64 root children per pull: same children.
    assert browse(view.q(REFINE.format(260)), 90) == expected
    assert stats.get(sn.DEMAND_SIZED) == 1


@pytest.mark.parametrize("bulk", [
    lambda root: root.walk(),
    lambda root: root.walk(3),
    lambda root: root.children(),
    lambda root: root.d_many(),
    lambda root: root.to_tree(),
])
def test_root_bulk_commands_record_full_demand(bulk):
    stats, mediator = deployment()
    view = mediator.query(VIEW)
    full, __ = shipped_by(stats, lambda: view.q(REFINE.format(250)).d())
    browse(view.q(REFINE.format(260)), 2)
    bulk(view.q(REFINE.format(270)))
    # The next answer's first pull is full width again.
    again, __ = shipped_by(stats, lambda: view.q(REFINE.format(280)).d())
    assert again == full
    assert all(plan.demand in (None, BLOCK)
               for plan in prepared_plans(mediator))


def test_bulk_below_the_root_records_nothing():
    stats, mediator = deployment()
    view = mediator.query(VIEW)
    record = view.q(REFINE.format(250)).d()
    record.to_tree()
    record.walk()
    record.children()
    refined = [plan for plan in prepared_plans(mediator)
               if plan.demand is not None]
    assert [plan.demand for plan in refined] == [1]


def test_d_many_records_its_count():
    __, mediator = deployment()
    view = mediator.query(VIEW)
    view.q(REFINE.format(250)).d_many(6)
    assert sorted(
        plan.demand for plan in prepared_plans(mediator)
        if plan.demand is not None
    ) == [6]


# -- no history: the fixed-width execution ---------------------------------------------------


def session(mediator, value):
    """The refinement part of a served session: view, q, five records."""
    return browse(mediator.query(VIEW).q(REFINE.format(value)), 5)


def counted_sessions(stats, mediator, values):
    out = []
    for value in values:
        tuples = stats.get(sn.TUPLES_SHIPPED)
        blocks = stats.get(sn.BLOCKS_SHIPPED)
        transcript = session(mediator, value)
        out.append((
            stats.get(sn.TUPLES_SHIPPED) - tuples,
            stats.get(sn.BLOCKS_SHIPPED) - blocks,
            transcript,
        ))
    return out


def test_cache_off_every_session_runs_at_full_width():
    stats, mediator = deployment(cache=False)
    runs = counted_sessions(stats, mediator, (250, 260, 270))
    # One block of 64 CustRecs, in 5 fetches of 64 rows, every time.
    assert [run[:2] for run in runs] == [(320, 5)] * 3
    assert stats.get(sn.DEMAND_SIZED) == 0


def test_width_one_is_unchanged_by_history():
    stats, cached = deployment(block_size=1)
    cold_stats, cold = deployment(block_size=1, cache=False)
    values = (250, 260, 270)
    warm = counted_sessions(stats, cached, values)
    # Five records read up to the first row of the sixth: 21 one-row
    # fetches, with or without a cache and its history.
    assert [run[:2] for run in warm] == [(21, 21)] * 3
    assert warm == counted_sessions(cold_stats, cold, values)
    assert stats.get(sn.DEMAND_SIZED) == 0
    assert cold_stats.get(sn.DEMAND_SIZED) == 0


# -- concurrency ------------------------------------------------------------------------------


def test_sixteen_threads_two_shapes():
    stats, cached = deployment(customers=30)
    __, cold = deployment(customers=30, cache=False)
    values = (150, 250, 350, 450)
    depths = (1, 2, 5, 40)
    cold_view = cold.query(VIEW)
    expected = {}
    for value in values:
        for depth in depths:
            expected["f", value, depth] = browse(
                cold.query(FILTER.format(value)), depth, content=True
            )
            expected["q", value, depth] = browse(
                cold_view.q(REFINE.format(value)), depth, content=True
            )
    barrier = threading.Barrier(16)
    wrong = []

    def work(worker):
        try:
            barrier.wait(timeout=30)
            for step in range(24):
                value = values[(worker * 3 + step) % len(values)]
                depth = depths[(worker + step) % len(depths)]
                if (worker + step) % 2:
                    kind, root = "f", cached.query(FILTER.format(value))
                else:
                    kind = "q"
                    root = cached.query(VIEW).q(REFINE.format(value))
                answer = browse(root, depth, content=True)
                if answer != expected[kind, value, depth]:
                    wrong.append((worker, step, kind, value, depth))
        except Exception as exc:  # noqa: BLE001 - reported below
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(w,)) for w in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    demands = [plan.demand for plan in prepared_plans(cached)]
    assert all(d is None or 1 <= d <= BLOCK for d in demands)
    assert stats.get(sn.DEMAND_SIZED) > 0


# -- faults past the demanded prefix ---------------------------------------------------------


def faulty_mediator(position, policy, n_orders=20):
    """A caching block-64 mediator whose orders document fails
    permanently at pull ``position`` (no SQL push, so pulls are
    per element)."""
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
    faulty.fail_pull("root2", position, kind="permanent")
    mediator = Mediator(
        stats=stats, cache=True, push_sql=False, on_source_error=policy,
        block_size=BLOCK,
    )
    return stats, mediator.add_source(faulty)


def test_fault_past_the_demanded_prefix_stays_parked():
    stats, mediator = faulty_mediator(position=5, policy="raise")
    first = mediator.query(FILTER.format(0))
    # Full width: the best-effort prefetch runs into the fault and parks
    # it; the client, two children in, never sees it.
    assert len(browse(first, 2)) == 2
    assert stats.get(sn.FAULTS_INJECTED) == 1
    second = mediator.query(FILTER.format(50))
    node = second.d()
    # Demand 2: the first pull stops short of the poisoned position.
    assert stats.get(sn.FAULTS_INJECTED) == 1
    for __ in range(4):
        node = node.r()
    # Reaching child 4 ramped past position 5: fired, but still parked.
    assert stats.get(sn.FAULTS_INJECTED) == 2
    assert node is not None
    with pytest.raises(SourceError):
        node.r()


def test_stub_past_the_demanded_prefix_is_never_served():
    stats, mediator = faulty_mediator(position=5, policy="degrade")
    browse(mediator.query(ORDERS), 2)
    degraded = stats.get(sn.DEGRADED_RESULTS)
    second = mediator.query(ORDERS)
    browse(second, 4)
    # Demand-sized, and ramped past the fault: the stub is materialized
    # behind the client's back, like a full-width prefetch's.
    assert stats.get(sn.DEMAND_SIZED) == 1
    assert stats.get(sn.DEGRADED_RESULTS) > degraded
    assert ERROR_LABEL in serialize(second.to_tree())
    degraded = stats.get(sn.DEGRADED_RESULTS)
    third = mediator.query(ORDERS)
    serialize(third.to_tree())
    assert stats.get(sn.NAV_MEMO_HITS) == 0
    assert stats.get(sn.DEGRADED_RESULTS) > degraded


# -- observability ---------------------------------------------------------------------------


def test_demand_sized_reaches_the_stats_op():
    from repro.server import LoopbackClient, MediatorService

    stats, mediator = deployment()
    view = mediator.query(VIEW)
    browse(view.q(REFINE.format(250)), 3)
    browse(view.q(REFINE.format(260)), 3)
    with LoopbackClient(MediatorService(mediator)) as client:
        result = client.call("stats")
    assert result["counters"][sn.DEMAND_SIZED] == 1
    # The refinement's shape has one; the never-navigated view has none.
    plans = result["cache"]["plan_cache"]
    assert (plans["shapes"], plans["demand_recorded"]) == (2, 1)
