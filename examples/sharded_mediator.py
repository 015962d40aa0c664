"""Sharded federation: one logical table, four members, parallel
scatter-gather pushdown — with pruning and a mid-query shard outage.

The ``orders`` table is horizontally partitioned over four sqlite
members (range on ``value``: each member holds one value band) while
``customer`` replicates to every member, so the pushed Fig.-3 join
stays member-local.  The mediator never learns the table is sharded.

The script then:

1. runs the paper's Q1 over the fleet and shows the shard footer,
2. ANALYZEs the members and shows a value predicate pruning shards,
3. kills one member and shows the degraded partial answer.

Run:  python examples/sharded_mediator.py
"""

from repro import stats as statnames
from repro.errors import SourceError
from repro.resilience import ERROR_LABEL, shard_resilience
from repro.workloads import build_sharded_customers_orders
from repro.xmltree import serialize

Q1 = """
FOR $C IN source(root1)/customer
    $O IN document(root2)/order
WHERE $C/id/data() = $O/cid/data()
RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}
"""

SCAN = "FOR $O IN document(root2)/order RETURN $O"

# -- 1. the fleet, and the paper's join over it -----------------------------------

sharded = build_sharded_customers_orders(
    shards=4,
    scheme="range",
    partition_key="value",
    backend="sqlite",
    n_customers=8,
    orders_per_customer=3,
    value_mode="tiered",
    member_wrapper=shard_resilience,
)
mediator = sharded.mediator(on_source_error="degrade")

print("== Q1 over 4 range-partitioned sqlite members ==")
answer = mediator.query(Q1).to_tree()
print("  CustRec elements: {}".format(len(answer.children)))
print("  shards_scattered={} tuples_shipped={}".format(
    sharded.stats.get(statnames.SHARDS_SCATTERED),
    sharded.stats.get(statnames.TUPLES_SHIPPED)))
print()
print("== EXPLAIN (note the -- shard: footer) ==")
for line in mediator.explain(Q1, mask_times=True).splitlines():
    if line.startswith("--"):
        print("  " + line)

# -- 2. ANALYZE, then watch the fleet shrink --------------------------------------

print()
print("== shard pruning after ANALYZE ==")
sharded.sharded.analyze()
values = sorted(r[0] for r in sharded.sharded.execute_sql(
    "SELECT value FROM orders").fetchall())
threshold = values[len(values) // 4]
before = sharded.stats.get(statnames.SHARDS_PRUNED)
rows = sharded.sharded.execute_sql(
    "SELECT orid, value FROM orders WHERE value < {}".format(threshold)
).fetchall()
print("  value < {}: {} rows, {} of 4 shards pruned".format(
    threshold, len(rows),
    sharded.stats.get(statnames.SHARDS_PRUNED) - before))

# -- 3. one member dies mid-federation --------------------------------------------

print()
print("== killing member 2 ==")
victim = sharded.members[2].inner


def outage(sql, params=()):
    raise SourceError("shard 2 is unreachable", sql=sql, source="s2")


victim.execute_sql = outage
text = serialize(sharded.mediator(on_source_error="degrade")
                 .query(SCAN).to_tree())
survivors = text.count("<order")
stubs = text.count("<" + ERROR_LABEL)
print("  degraded answer: {} orders survived, {} error stub(s)".format(
    survivors, stubs))
print("  shards_failed={} (its siblings kept serving)".format(
    sharded.stats.get(statnames.SHARDS_FAILED)))
sharded.sharded.close()
