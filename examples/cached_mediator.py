"""The multi-level query cache: plan / pushed-SQL / navigation memo.

A tour of :mod:`repro.cache` on the paper's running-example view:

1. cold vs warm — the first run compiles, pushes SQL and ships tuples;
   the repeat is served by the plan cache plus the navigation memo and
   ships **zero** tuples;
2. version-based invalidation — one INSERT makes exactly the next run
   cold again (per-table write versions, never time-based), and a view
   redefinition clears everything compiled against the old definition;
3. the explain footer — ``plan_cache: hit`` and the per-source cache
   counter lines that E-CACHE in EXPERIMENTS.md is built from.

Run:  python examples/cached_mediator.py
"""

from repro import stats as sn
from repro.workloads import build_customers_orders

VIEW = """
FOR $C IN document(root1)/customer
    $O IN document(root2)/order
WHERE $C/id/data() = $O/cid/data()
RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}
"""

built = build_customers_orders(
    n_customers=40, orders_per_customer=5, value_mode="tiered",
    value_step=100, tiers=10,
)
mediator = built.mediator(cache=True, cache_size=64)
obs = mediator.stats


def run_once(label):
    before = obs.get(sn.TUPLES_SHIPPED)
    tree = mediator.query(VIEW).to_tree()
    shipped = obs.get(sn.TUPLES_SHIPPED) - before
    print("  {:<22} answers={:<4} tuples_shipped={}".format(
        label, len(tree.children), shipped))
    return tree


# -- 1: cold vs warm ---------------------------------------------------------------

print("=" * 70)
print("Cold run, then two warm repeats:")
run_once("cold (all miss)")
run_once("warm (memo hit)")
run_once("warm again")
stats = mediator.cache_stats()
print("  plan_cache: {hits} hits / {misses} misses".format(
    **stats["plan_cache"]))
print("  nav_memo:   {hits} hits / {misses} misses".format(
    **stats["nav_memo"]))

# -- 2: exact invalidation ---------------------------------------------------------

print()
print("=" * 70)
print("One INSERT invalidates; the re-run re-warms:")
built.wrapper.database.run(
    "INSERT INTO orders VALUES (999999, 'C00000', 12345)")
run_once("after INSERT (cold)")
run_once("warm again")
print("  nav_memo invalidations: {}".format(
    mediator.cache_stats()["nav_memo"]["invalidations"]))

print()
print("A view redefinition clears compiled plans too:")
mediator.define_view("big", """
FOR $O IN document(root2)/order
WHERE $O/value/data() > 500
RETURN <Big> $O </Big>
""")
big = mediator.query("FOR $B IN document(big)/Big RETURN $B").to_tree()
print("  big orders via view: {}".format(len(big.children)))
mediator.define_view("big", """
FOR $O IN document(root2)/order
WHERE $O/value/data() > 900
RETURN <Big> $O </Big>
""")
big = mediator.query("FOR $B IN document(big)/Big RETURN $B").to_tree()
print("  after redefinition : {} (old plans were not replayed)".format(
    len(big.children)))

# -- 3: the explain footer ---------------------------------------------------------

print()
print("=" * 70)
print("The cache footer of EXPLAIN ANALYZE (warm run):")
mediator.explain(VIEW)  # re-warm: the redefinition above cleared plans
explanation = mediator.explain(VIEW)
for line in explanation.splitlines():
    if line.startswith("--"):
        print("  " + line)
