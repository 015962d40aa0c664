"""Navigation-level tracing: EXPLAIN ANALYZE and causal traces.

Supersedes the old ``explain_profiling.py``: the per-operator tuple
counts it printed are now one facet of the unified observability bus
(:mod:`repro.obs`).  This example shows the full surface on the paper's
running-example view over a scaled database:

1. ``EXPLAIN ANALYZE`` — the optimized XMAS plan, annotated with the
   tuples every operator actually produced and the exact SQL pushed to
   the source (the Fig. 22 pipeline, measured);
2. per-command traces — every QDOM navigation command opens a span, and
   the lazy operator pulls it forces hang below it, so you can see
   *which* command paid for *which* source work;
3. JSON export of a trace, for offline analysis.

Run:  python examples/tracing.py
"""

from repro.obs import trace_to_json
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
mediator = built.mediator()
obs = mediator.stats

# -- 1: EXPLAIN ANALYZE ------------------------------------------------------------

print("=" * 70)
print("EXPLAIN ANALYZE of the running-example view:")
print(mediator.explain(VIEW))

# -- 2: traced navigation ----------------------------------------------------------

print()
print("=" * 70)
print("A browsing session, one trace per QDOM command:")
root = mediator.query(VIEW)
obs.clear_traces()

node = root.d()     # forces the first join group (and the pushed SQL)
node = node.r()     # moves the cursor one group further
node.fl()           # a free command: the label is already materialized

for trace in obs.traces():
    print()
    print(trace.render())
    forced = trace.total_counter("rq_statements")
    if forced:
        print("  -> this command forced {} SQL statement(s)".format(forced))
    else:
        print("  -> free: no new source work")

# -- 3: JSON export ----------------------------------------------------------------

print()
print("=" * 70)
print("The first trace, exported as JSON (times masked for readability):")
print(trace_to_json(obs.traces()[0], mask_times=True))

print()
print("Bus counters after the session: tuples_shipped={}"
      " sql_queries={} qdom_commands={}".format(
          obs.get("tuples_shipped"), obs.get("sql_queries"),
          obs.get("qdom_commands")))
