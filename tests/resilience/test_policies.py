"""Unit tests for the policy objects: clocks, retry, timeout, breaker.

Everything runs on :class:`ManualClock`; the breaker walks all three
transitions (closed→open→half-open→{closed,open}) driven purely by
``clock.advance`` — no real waiting anywhere.
"""

import pytest

from repro.errors import (
    CircuitOpenError,
    SourceTimeoutError,
    TransientSourceError,
)
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    ManualClock,
    RetryPolicy,
    Timeout,
)


class TestManualClock:
    def test_sleep_advances_and_records(self):
        clock = ManualClock()
        clock.sleep(0.5)
        clock.sleep(0.25)
        assert clock.time() == pytest.approx(0.75)
        assert clock.sleeps == [0.5, 0.25]

    def test_advance_does_not_record(self):
        clock = ManualClock(start=10.0)
        clock.advance(5)
        assert clock.time() == pytest.approx(15.0)
        assert clock.sleeps == []


class TestRetryPolicy:
    def test_delays_schedule_is_capped_exponential(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.35
        )
        assert policy.delays() == pytest.approx([0.1, 0.2, 0.35, 0.35])

    def test_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)


class TestTimeout:
    def test_fast_call_passes(self):
        clock = ManualClock()
        timeout = Timeout(1.0, clock=clock)
        assert timeout.guard(lambda: "fast") == "fast"

    def test_slow_call_raises_with_payload(self):
        clock = ManualClock()
        timeout = Timeout(0.25, clock=clock)

        def slow():
            clock.advance(0.4)
            return "late"

        with pytest.raises(SourceTimeoutError) as info:
            timeout.guard(slow, doc_id="root1", source="s")
        assert info.value.limit == pytest.approx(0.25)
        assert info.value.elapsed == pytest.approx(0.4)
        assert info.value.doc_id == "root1"
        assert isinstance(info.value, TransientSourceError)

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            Timeout(0)


class TestCircuitBreaker:
    def make(self, threshold=2, cooldown=5.0):
        clock = ManualClock()
        breaker = CircuitBreaker(
            failure_threshold=threshold, cooldown=cooldown, clock=clock,
            name="s",
        )
        return clock, breaker

    def test_all_three_transitions_to_recovery(self):
        clock, breaker = self.make()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == CLOSED  # below threshold
        breaker.record_failure()
        assert breaker.state == OPEN

        with pytest.raises(CircuitOpenError) as info:
            breaker.allow("root1")
        assert info.value.retry_after == pytest.approx(5.0)

        clock.advance(5.0)
        assert breaker.state == HALF_OPEN  # cooldown elapsed: probe time
        breaker.allow("root1")  # the probe is admitted
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.transitions == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED),
        ]

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        clock, breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN
        breaker.record_failure()  # the probe failed
        assert breaker.state == OPEN
        clock.advance(4.9)
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN

    def test_success_resets_consecutive_failures(self):
        __, breaker = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never two *consecutive* failures

    def test_transition_hook_fires(self):
        clock, breaker = self.make(threshold=1)
        seen = []
        breaker.on_transition = lambda a, b: seen.append((a, b))
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN
        assert seen == [(CLOSED, OPEN), (OPEN, HALF_OPEN)]

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
