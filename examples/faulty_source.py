"""Fault tolerance at the source layer: inject, retry, break, degrade.

The mediator's sources live on the other side of a network in the
paper's architecture (Fig. 1), so the interesting failures are partial:
a pull that fails once, a pull that is slow, a source that goes down
mid-answer.  This example wires the paper's running-example wrapper
through the two halves of :mod:`repro.resilience`:

1. ``FaultInjectingSource`` — a proxy that injects *deterministic,
   seeded* faults (no wall-clock randomness, so every run replays);
2. ``ResilientSource`` — retry with capped exponential backoff, a
   latency budget and a circuit breaker, composed as one decorator over
   any wrapper.  It raises once its budget is spent; a mediator built
   with ``on_source_error="degrade"`` turns what it raises into
   ``<mix:error>`` stubs.

Everything runs on a ``ManualClock``: the "slow" pull, the backoff
sleeps, and the breaker cooldown are all simulated time.

Run:  python examples/faulty_source.py
"""

from repro import Instrument, Mediator
from repro.resilience import (
    CircuitBreaker,
    FaultInjectingSource,
    ManualClock,
    ResilientSource,
    RetryPolicy,
    Timeout,
    find_error_stubs,
    strip_error_stubs,
)
from repro.workloads import build_customers_orders

QUERY = "FOR $C IN document(root1)/customer RETURN $C"

clock = ManualClock()
stats = Instrument()
built = build_customers_orders(n_customers=6, orders_per_customer=2)

# -- 1. a flaky source, and the retry that hides it --------------------------------

faulty = FaultInjectingSource(built.wrapper, clock=clock, seed=42)
faulty.fail_pulls_randomly("root1", rate=0.5)   # seeded: replayable
faulty.slow_pull("root1", 2, delay=0.6)         # one pull over budget

resilient = ResilientSource(
    faulty,
    retry=RetryPolicy(attempts=3, base_delay=0.05, sleep=clock.sleep),
    timeout=Timeout(0.25, clock=clock),
    breaker=CircuitBreaker(failure_threshold=4, cooldown=5.0, clock=clock),
    obs=stats,
)
mediator = Mediator(stats=stats, push_sql=False).add_source(resilient)

answer = mediator.query(QUERY).to_tree()
print("with retry: {} customers, 0 stubs".format(len(answer.children)))
print("health:", resilient.health()["resilience"])
print("simulated sleeps:", clock.sleeps)

# -- 2. the same faults, degraded instead of retried -------------------------------

clock2 = ManualClock()
faulty2 = FaultInjectingSource(built.wrapper, clock=clock2, seed=42)
faulty2.fail_pulls_randomly("root1", rate=0.5)

degrading = ResilientSource(faulty2)
partial = Mediator(
    push_sql=False, on_source_error="degrade"
).add_source(degrading).query(QUERY).to_tree()

stubs = find_error_stubs(partial)
print("\nwithout retry: {} children, {} <mix:error> stubs".format(
    len(partial.children), len(stubs)
))
# Transient stubs are *inserted*: stripping them recovers the full answer.
stripped = strip_error_stubs(partial)
print("stripped back to {} customers".format(len(stripped.children)))

# -- 3. an outage trips the breaker -------------------------------------------------

clock3 = ManualClock()
faulty3 = FaultInjectingSource(built.wrapper, clock=clock3, seed=0)
faulty3.fail_pull("root1", 0, kind="permanent")
faulty3.fail_pull("root1", 1, kind="permanent")

broken = ResilientSource(
    faulty3,
    breaker=CircuitBreaker(failure_threshold=2, cooldown=5.0, clock=clock3),
)
down = Mediator(
    push_sql=False, on_source_error="degrade"
).add_source(broken).query(QUERY).to_tree()
health = broken.health()["resilience"]
print("\noutage: breaker={} transitions={}".format(
    health["breaker"], health["breaker_transitions"]
))

clock3.advance(5.0)  # cooldown elapses: the next probe is admitted
print("after cooldown: breaker={}".format(broken.breaker.state))

# -- 4. explain shows the resilience story ------------------------------------------

print("\n" + "\n".join(
    line for line in mediator.explain(QUERY).splitlines()
    if line.startswith("-- resilience")
))
