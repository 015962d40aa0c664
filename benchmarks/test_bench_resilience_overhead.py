"""E-RESIL: the fault-tolerance decorator must be (near) free.

``ResilientSource`` sits on *every* pull when navigation reaches a
wrapped source, so its healthy-path cost matters: the guard here walks
the Fig. 22 workload (the running-example view, full navigation) over
the plain wrapper and over the same wrapper behind the full policy
stack (retry + timeout + breaker, no faults injected) and asserts the
decorator costs < 5% wall time.

SQL push-down is disabled so the engines actually pull element by
element through the decorator — the worst case for per-pull overhead.
"""

from __future__ import annotations

import gc
import time

from repro import Instrument, Mediator
from repro.engine.vtree import walk_fully
from repro.resilience import (
    CircuitBreaker,
    ManualClock,
    ResilientSource,
    RetryPolicy,
    Timeout,
)

from benchmarks.conftest import VIEW_QUERY, build_workload, print_series

N_CUSTOMERS = 200
ORDERS_PER = 6
REPEATS = 11
OVERHEAD_BUDGET = 0.05


def wrap_resilient(wrapper):
    clock = ManualClock()
    return ResilientSource(
        wrapper,
        retry=RetryPolicy(attempts=3, base_delay=0.05, sleep=clock.sleep),
        timeout=Timeout(5.0, clock=clock),
        breaker=CircuitBreaker(failure_threshold=5, cooldown=30.0,
                               clock=clock),
    )


def one_walk_time(wrap):
    """One timed full *navigation* walk (QDOM commands, the path that
    actually crosses the decorator per pull) of the Fig. 22 view, with
    the collector parked: dropping the previous walk's tree inside a
    timed region is the dominant noise at this workload size."""
    __, wrapper = build_workload(N_CUSTOMERS, ORDERS_PER)
    source = wrap(wrapper)
    mediator = Mediator(
        stats=Instrument(), push_sql=False
    ).add_source(source)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        walk_fully(mediator.query(VIEW_QUERY))
        return time.perf_counter() - start
    finally:
        gc.enable()


def test_resilient_source_overhead_under_budget():
    """The variants run in back-to-back pairs and the guard is the
    *median* per-pair ratio: pairing cancels clock-speed drift and the
    median survives a noise burst landing inside a few pairs."""
    pairs = [
        (one_walk_time(lambda wrapper: wrapper),
         one_walk_time(wrap_resilient))
        for __ in range(REPEATS)
    ]
    ratios = sorted(res / base for base, res in pairs)
    overhead = ratios[len(ratios) // 2] - 1.0
    plain = min(base for base, __ in pairs)
    resilient = min(res for __, res in pairs)
    print_series(
        "E-RESIL: full-walk wall time, plain vs ResilientSource "
        "({} customers x {} orders)".format(N_CUSTOMERS, ORDERS_PER),
        ("variant", "best-of-{} (s)".format(REPEATS), "median overhead"),
        [
            ("plain", round(plain, 4), "-"),
            ("resilient", round(resilient, 4),
             "{:+.1%}".format(overhead)),
        ],
    )
    assert overhead < OVERHEAD_BUDGET, (
        "ResilientSource healthy-path overhead {:.1%} exceeds "
        "{:.0%}".format(overhead, OVERHEAD_BUDGET)
    )


def test_resilient_walk_is_fault_free_and_counted_free():
    __, wrapper = build_workload(50, 4)
    source = wrap_resilient(wrapper)
    mediator = Mediator(
        stats=Instrument(), push_sql=False
    ).add_source(source)
    mediator.query(VIEW_QUERY).to_tree()
    health = source.health()["resilience"]
    assert health["retries"] == 0
    assert health["failures"] == 0
    assert health["breaker"] == "closed"
