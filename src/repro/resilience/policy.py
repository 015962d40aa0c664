"""Resilience policies: retry with backoff, latency budgets, breakers.

All three policies are plain objects with injectable clocks (see
:mod:`repro.resilience.clock`), so the full suite — including every
backoff schedule and breaker cooldown — runs without a single real
sleep.  :class:`~repro.resilience.resilient.ResilientSource` composes
them around any :class:`~repro.sources.base.Source`.
"""

from __future__ import annotations

from repro.errors import (
    CircuitOpenError,
    SourceTimeoutError,
    TransientSourceError,
)
from repro.resilience.clock import MonotonicClock


class RetryPolicy:
    """Capped exponential backoff over a classified exception set.

    Args:
        attempts: total tries, including the first (``1`` disables
            retrying).
        base_delay: seconds to wait before the first retry.
        multiplier: backoff growth factor per retry.
        max_delay: cap on any single delay.
        retry_on: exception classes considered transient; everything
            else propagates immediately.
        sleep: the wait function (inject ``ManualClock().sleep`` in
            tests); defaults to a real monotonic clock.

    ``delays()`` exposes the deterministic schedule so tests can assert
    it; the retry loops themselves live in
    :class:`~repro.resilience.ResilientSource` (a failed pull must not
    restart its stream).  The policy is stateless, so one instance may
    serve any number of sources.
    """

    def __init__(self, attempts=3, base_delay=0.05, multiplier=2.0,
                 max_delay=2.0, retry_on=(TransientSourceError,),
                 sleep=None):
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        self.attempts = int(attempts)
        self.base_delay = float(base_delay)
        self.multiplier = float(multiplier)
        self.max_delay = float(max_delay)
        self.retry_on = tuple(retry_on)
        self._sleep = sleep if sleep is not None else MonotonicClock().sleep

    def delays(self):
        """The backoff schedule: one delay per retry, in order."""
        out = []
        delay = self.base_delay
        for __ in range(self.attempts - 1):
            out.append(min(delay, self.max_delay))
            delay *= self.multiplier
        return out

    def backoff(self, retry_index):
        """Sleep for the ``retry_index``-th (0-based) delay."""
        delay = min(
            self.base_delay * (self.multiplier ** retry_index),
            self.max_delay,
        )
        self._sleep(delay)
        return delay

    def __repr__(self):
        return "RetryPolicy(attempts={}, base={}, x{}, cap={})".format(
            self.attempts, self.base_delay, self.multiplier, self.max_delay
        )


class Timeout:
    """A per-call latency budget, checked cooperatively.

    Python generators cannot be preempted, so the budget is enforced
    *post hoc*: the call runs, its duration is measured on the injected
    clock, and a :class:`SourceTimeoutError` is raised when the budget
    was exceeded.  Results of timed-out idempotent calls are discarded;
    timed-out *pulls* keep their late value buffered (see
    ``ResilientSource``) so no stream element is lost.  The budget
    holds no state, so one instance may serve any number of sources.
    """

    def __init__(self, limit, clock=None):
        if limit <= 0:
            raise ValueError("timeout limit must be positive")
        self.limit = float(limit)
        self.clock = clock or MonotonicClock()

    def check(self, elapsed, doc_id=None, source=None):
        """Raise :class:`SourceTimeoutError` when ``elapsed`` > limit."""
        if elapsed > self.limit:
            raise SourceTimeoutError(
                "source call exceeded its {:.3f}s budget "
                "({:.3f}s elapsed)".format(self.limit, elapsed),
                doc_id=doc_id,
                source=source,
                limit=self.limit,
                elapsed=elapsed,
            )

    def guard(self, fn, doc_id=None, source=None):
        """Run ``fn`` and enforce the budget (idempotent calls only)."""
        start = self.clock.time()
        result = fn()
        self.check(self.clock.time() - start, doc_id=doc_id, source=source)
        return result

    def __repr__(self):
        return "Timeout({}s)".format(self.limit)


#: Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """A per-source breaker with the classic three-state protocol.

    * **closed** — requests flow; ``failure_threshold`` *consecutive*
      failures trip the breaker;
    * **open** — requests fail fast with :class:`CircuitOpenError`
      (the source is not touched) until ``cooldown`` clock seconds pass;
    * **half-open** — one probe request is admitted; success closes the
      breaker, failure re-opens it and restarts the cooldown.

    The clock is injectable, so the open→half-open transition is driven
    by ``clock.advance`` in tests, never by real waiting.  Every
    transition is recorded in :attr:`transitions` and reported through
    the optional ``on_transition`` callback (the hook
    :class:`ResilientSource` uses to emit obs events).
    """

    def __init__(self, failure_threshold=5, cooldown=30.0, clock=None,
                 name=None, on_transition=None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self.clock = clock or MonotonicClock()
        self.name = name
        self.on_transition = on_transition
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = None
        self.transitions = []  # list of (from_state, to_state)
        #: The ResilientSource this breaker is attached to, if any.  A
        #: breaker counts *one* source's consecutive failures; attaching
        #: it to a second source would let that source's faults open the
        #: circuit for the first (and vice versa), so ResilientSource
        #: refuses shared breakers — see :meth:`clone`.
        self._owner = None

    @property
    def state(self):
        """The current state, applying any due open→half-open move."""
        if self._state == OPEN and self._cooldown_remaining() <= 0:
            self._transition(HALF_OPEN)
        return self._state

    def _cooldown_remaining(self):
        return self.cooldown - (self.clock.time() - self._opened_at)

    def _transition(self, to_state):
        from_state = self._state
        if from_state == to_state:
            return
        self._state = to_state
        if to_state == OPEN:
            self._opened_at = self.clock.time()
        self.transitions.append((from_state, to_state))
        if self.on_transition is not None:
            self.on_transition(from_state, to_state)

    def allow(self, doc_id=None):
        """Admit a request or raise :class:`CircuitOpenError`."""
        if self.state == OPEN:
            raise CircuitOpenError(
                "circuit breaker for {!r} is open "
                "({:.3f}s until half-open)".format(
                    self.name, max(0.0, self._cooldown_remaining())
                ),
                doc_id=doc_id,
                source=self.name,
                retry_after=max(0.0, self._cooldown_remaining()),
            )

    def record_success(self):
        self._consecutive_failures = 0
        if self._state == HALF_OPEN:
            self._transition(CLOSED)

    def record_failure(self):
        if self._state == HALF_OPEN:
            # The probe failed: re-open and restart the cooldown.
            self._consecutive_failures = self.failure_threshold
            self._transition(OPEN)
            return
        self._consecutive_failures += 1
        if (self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold):
            self._transition(OPEN)

    def clone(self, name=None):
        """A fresh, unattached breaker with this breaker's configuration.

        State (failure counts, open/half-open, transition history) and
        the ``on_transition`` hook are *not* carried over: the clone
        belongs to a different source, and the hook is rebound when a
        :class:`~repro.resilience.ResilientSource` attaches it.  This is
        how per-shard composition hands every member its own circuit —
        one flapping shard can then never open the breaker for its
        siblings.
        """
        return CircuitBreaker(
            failure_threshold=self.failure_threshold,
            cooldown=self.cooldown,
            clock=self.clock,
            name=name,
        )

    def __repr__(self):
        return "CircuitBreaker({}, state={}, failures={})".format(
            self.name, self._state, self._consecutive_failures
        )
