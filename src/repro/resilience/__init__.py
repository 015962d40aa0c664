"""Fault tolerance for the source layer.

MIX mediates over *remote, autonomous* sources (paper §1, Fig. 1): they
can fail, stall, and come back.  This package keeps one failing pull
from unwinding the whole lazy-mediator stack:

* :class:`FaultInjectingSource` — a proxy that injects deterministic,
  seeded failures (exception on the Nth pull, slow pulls, SQL failures;
  transient or permanent) into any wrapper, for tests and demos;
* :class:`RetryPolicy` / :class:`Timeout` / :class:`CircuitBreaker` —
  the policy layer, all with injectable clocks (no real sleeps);
* :class:`ResilientSource` — the decorator applying those policies
  uniformly to every wrapper; it raises once its budget is spent;
* :mod:`repro.resilience.stub` — the ``<mix:error>`` stub and the one
  degradation rule the engines apply under ``on_source_error="degrade"``;
* :class:`ManualClock` — the deterministic clock the whole layer (and
  its test suite) runs on.

See docs/API.md "Fault tolerance" and ``examples/faulty_source.py``.
"""

from repro.resilience.clock import ManualClock, MonotonicClock
from repro.resilience.faults import FaultInjectingSource
from repro.resilience.policy import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    RetryPolicy,
    Timeout,
)
from repro.resilience.resilient import ResilientSource, shard_resilience
from repro.resilience.stub import (
    DEGRADE,
    ERROR_LABEL,
    RAISE,
    degraded_stub,
    find_error_stubs,
    is_error_stub,
    make_error_stub,
    prefix_has_error_stub,
    strip_error_stubs,
)

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "DEGRADE",
    "ERROR_LABEL",
    "FaultInjectingSource",
    "HALF_OPEN",
    "ManualClock",
    "MonotonicClock",
    "OPEN",
    "RAISE",
    "ResilientSource",
    "RetryPolicy",
    "Timeout",
    "degraded_stub",
    "find_error_stubs",
    "is_error_stub",
    "make_error_stub",
    "prefix_has_error_stub",
    "shard_resilience",
    "strip_error_stubs",
]
