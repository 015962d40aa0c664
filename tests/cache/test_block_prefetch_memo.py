"""Bulk prefetch vs the navigation memo's poison fences.

Block execution changes *when* source pulls happen (prefetch-k forces
children the client never asked for yet), not what the memo may serve.
Two invariants ride on that:

* a clean prefetched prefix is as shareable as a tuple-mode one — memo
  hits over block-mode entries re-ship nothing and answer byte-
  identically;
* a prefix degraded **mid-prefetch** (a ``<mix:error>`` stub the client
  has not even navigated to yet) must still disqualify the entry — the
  PR-3 poison fences have to see through bulk materialization.
"""

from __future__ import annotations

from repro import Database, Instrument, Mediator, RelationalWrapper
from repro import stats as sn
from repro.resilience import ERROR_LABEL, FaultInjectingSource, ManualClock
from repro.xmltree import serialize

from tests.conftest import Q1, make_paper_wrapper

ORDERS = "FOR $O IN document(root2)/order RETURN $O"


def caching_block_mediator(**kwargs):
    stats = Instrument()
    mediator = Mediator(stats=stats, cache=True, **kwargs)
    return mediator.add_source(make_paper_wrapper(stats=stats))


def faulty_block_mediator(position, block_size=64, n_orders=20):
    """A degrading block-mode caching mediator whose orders document is
    poisoned at ``position`` (fires once, mid-prefetch)."""
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
        stats=stats, cache=True, push_sql=False,
        on_source_error="degrade", block_size=block_size,
    )
    return stats, mediator.add_source(faulty)


def test_clean_prefetched_prefix_is_memo_shareable():
    mediator = caching_block_mediator()
    cold = serialize(mediator.query(Q1).to_tree())
    shipped = mediator.stats.get(sn.TUPLES_SHIPPED)
    warm = serialize(mediator.query(Q1).to_tree())
    assert warm == cold
    assert mediator.stats.get(sn.TUPLES_SHIPPED) == shipped
    assert mediator.stats.get(sn.NAV_MEMO_HITS) == 1


def test_partial_bulk_prefix_is_shared_without_reshipping():
    mediator = caching_block_mediator()
    first = mediator.query(ORDERS)
    first.d()            # one command; prefetch materializes the prefix
    shipped = mediator.stats.get(sn.TUPLES_SHIPPED)
    second = mediator.query(ORDERS)          # memo hit: same root Node
    children = second.d_many(3)
    assert len(children) == 3
    # All three landed on the prefix the first session prefetched.
    assert mediator.stats.get(sn.TUPLES_SHIPPED) == shipped
    assert mediator.stats.get(sn.PREFETCH_HITS) > 0


def test_stub_materialized_mid_prefetch_is_never_served():
    stats, mediator = faulty_block_mediator(position=5)
    first = mediator.query(ORDERS)
    # The client looks at one child; prefetch-64 materializes the whole
    # document behind its back — including the degraded stub at 5 the
    # client never navigated to.
    assert first.d() is not None
    assert stats.get(sn.DEGRADED_RESULTS) >= 1
    # Walking the full first answer shows the stub (honest answer) ...
    assert ERROR_LABEL in serialize(first.to_tree())
    # ... but the poisoned prefix must not become anyone else's answer:
    # the re-query evaluates fresh (degrading again on the permanent
    # fault) instead of hitting the memo.
    degraded = stats.get(sn.DEGRADED_RESULTS)
    second = mediator.query(ORDERS)
    serialize(second.to_tree())
    assert stats.get(sn.NAV_MEMO_HITS) == 0
    # Fresh evaluation hit the (permanent) fault again — the answer was
    # re-derived, not replayed from the poisoned entry.  (Rows may ride
    # the SQL result cache; that one holds clean relational rows, not
    # the degraded tree.)
    assert stats.get(sn.DEGRADED_RESULTS) > degraded


def test_degraded_prefetch_agrees_with_tuple_mode():
    """Mid-prefetch degradation is not a new failure mode: under the
    same fault schedule, the block-mode answer (stub position included)
    is byte-identical to the tuple-mode answer — prefetch only changes
    when the stub is materialized, not where it lands."""
    __, block = faulty_block_mediator(position=3, block_size=64)
    __, tuple_mode = faulty_block_mediator(position=3, block_size=1)
    assert serialize(block.query(ORDERS).to_tree()) == serialize(
        tuple_mode.query(ORDERS).to_tree()
    )
