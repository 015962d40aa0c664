"""``ResilientSource``: retry, timeout buffering and circuit breaking —
all timing on ``ManualClock``, no real sleeps anywhere.  The source
raises once its budget is spent; the degradation cases scan it with an
engine built with ``on_source_error="degrade"``, the one place a
failure becomes a ``<mix:error>`` stub."""

import pytest

from repro import Instrument
from repro import stats as statnames
from repro.errors import (
    CircuitOpenError,
    SourceError,
    SourceTimeoutError,
    TransientSourceError,
)
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    FaultInjectingSource,
    ManualClock,
    ResilientSource,
    RetryPolicy,
    Timeout,
    is_error_stub,
)
from repro.resilience.faults import PERMANENT

from tests.conftest import make_paper_wrapper
from tests.resilience.conftest import FlakyListSource, degraded_scan


def make_faulty(clock=None, seed=0):
    return FaultInjectingSource(
        make_paper_wrapper(), clock=clock or ManualClock(), seed=seed
    )


def stream_labels(source, doc_id):
    return [n.label for n in source.iter_document_children(doc_id)]


class TestRetry:
    def test_transient_fault_is_absorbed_in_place(self):
        clock = ManualClock()
        faulty = make_faulty().fail_pull("root1", 1)
        resilient = ResilientSource(
            faulty, retry=RetryPolicy(attempts=3, base_delay=0.1,
                                      sleep=clock.sleep)
        )
        assert stream_labels(resilient, "root1") == ["customer"] * 3
        health = resilient.health()["resilience"]
        assert health["retries"] == 1
        assert health["failures"] == 1
        assert clock.sleeps == pytest.approx([0.1])  # one backoff

    def test_stream_matches_fault_free_reference(self):
        faulty = make_faulty().fail_pull("root1", 0, times=2)
        resilient = ResilientSource(
            faulty, retry=RetryPolicy(attempts=3, sleep=ManualClock().sleep)
        )
        reference = make_paper_wrapper()
        got = list(resilient.iter_document_children("root1"))
        want = list(reference.iter_document_children("root1"))
        assert [n.label for n in got] == [n.label for n in want]
        assert [len(n.children) for n in got] == [
            len(n.children) for n in want
        ]

    def test_exhausted_budget_reraises(self):
        clock = ManualClock()
        faulty = make_faulty().fail_pull("root1", 0, times=5)
        resilient = ResilientSource(
            faulty, retry=RetryPolicy(attempts=2, sleep=clock.sleep)
        )
        with pytest.raises(TransientSourceError):
            list(resilient.iter_document_children("root1"))
        health = resilient.health()["resilience"]
        assert health["retries"] == 1
        assert health["failures"] == 2
        assert len(clock.sleeps) == 1

    def test_no_retry_policy_means_single_attempt(self):
        faulty = make_faulty().fail_pull("root1", 0)
        resilient = ResilientSource(faulty)
        with pytest.raises(TransientSourceError):
            list(resilient.iter_document_children("root1"))

    def test_dead_generator_is_reopened_and_fast_forwarded(self):
        # FlakyListSource's stream is a plain generator: the raise kills
        # it, so the retry must reopen and skip the delivered prefix.
        clock = ManualClock()
        flaky = FlakyListSource("d", ["a", "b", "c", "e"], fail_at=2)
        resilient = ResilientSource(
            flaky, retry=RetryPolicy(attempts=2, sleep=clock.sleep)
        )
        assert stream_labels(resilient, "d") == ["a", "b", "c", "e"]
        assert flaky.opens == 2  # original open + one recovery reopen
        assert resilient.health()["resilience"]["retries"] == 1


class TestTimeout:
    def test_timed_out_value_is_buffered_not_lost(self):
        clock = ManualClock()
        faulty = make_faulty(clock=clock).slow_pull("root1", 1, delay=0.5)
        resilient = ResilientSource(
            faulty,
            timeout=Timeout(0.25, clock=clock),
            retry=RetryPolicy(attempts=2, base_delay=0.05,
                              sleep=clock.sleep),
        )
        # The slow pull times out, but its late value is delivered by
        # the retry: the stream is complete, nothing lost or duplicated.
        assert stream_labels(resilient, "root1") == ["customer"] * 3
        health = resilient.health()["resilience"]
        assert health["timeouts"] == 1
        assert health["retries"] == 1
        # The injected delay and the backoff both ran on the manual clock.
        assert clock.sleeps == pytest.approx([0.5, 0.05])

    def test_timeout_without_retry_raises(self):
        clock = ManualClock()
        faulty = make_faulty(clock=clock).slow_pull("root1", 0, delay=1.0)
        resilient = ResilientSource(faulty, timeout=Timeout(0.25, clock=clock))
        with pytest.raises(SourceTimeoutError) as info:
            next(iter(resilient.iter_document_children("root1")))
        assert info.value.limit == pytest.approx(0.25)

    def test_degrade_emits_stub_then_late_value(self):
        clock = ManualClock()
        faulty = make_faulty(clock=clock).slow_pull("root1", 1, delay=0.5)
        resilient = ResilientSource(
            faulty, timeout=Timeout(0.25, clock=clock)
        )
        nodes = degraded_scan(resilient, "root1")
        assert [is_error_stub(n) for n in nodes] == [
            False, True, False, False,
        ]
        # Stripping stubs recovers the fault-free stream: the late value
        # follows its stub instead of being dropped.
        kept = [n.label for n in nodes if not is_error_stub(n)]
        assert kept == ["customer"] * 3


class TestBreaker:
    def make_resilient(self, faulty, clock, threshold=2):
        breaker = CircuitBreaker(
            failure_threshold=threshold, cooldown=5.0, clock=clock
        )
        return ResilientSource(faulty, breaker=breaker)

    def test_all_three_transitions_with_injected_clock(self):
        clock = ManualClock()
        faulty = make_faulty(clock=clock).fail_pull("root1", 0, times=2)
        resilient = self.make_resilient(faulty, clock)

        for __ in range(2):  # two failures trip the breaker
            with pytest.raises(TransientSourceError):
                next(iter(resilient.iter_document_children("root1")))
        assert resilient.breaker.state == OPEN

        # While open, calls are rejected without touching the source.
        with pytest.raises(CircuitOpenError) as info:
            resilient.iter_document_children("root1")
        assert info.value.retry_after == pytest.approx(5.0)
        assert resilient.health()["resilience"]["circuit_rejections"] == 1

        clock.advance(5.0)
        assert resilient.breaker.state == HALF_OPEN
        # The probe is admitted; the fault budget is spent, so it
        # succeeds and closes the breaker.
        assert stream_labels(resilient, "root1") == ["customer"] * 3
        assert resilient.breaker.state == CLOSED
        assert resilient.breaker.transitions == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED),
        ]
        assert resilient.health()["resilience"]["breaker_transitions"] == [
            "closed->open", "open->half_open", "half_open->closed",
        ]

    def test_failed_probe_reopens(self):
        clock = ManualClock()
        faulty = make_faulty(clock=clock).fail_pull("root1", 0, times=5)
        resilient = self.make_resilient(faulty, clock)
        for __ in range(2):
            with pytest.raises(TransientSourceError):
                next(iter(resilient.iter_document_children("root1")))
        clock.advance(5.0)
        with pytest.raises(TransientSourceError):  # the probe fails too
            next(iter(resilient.iter_document_children("root1")))
        assert resilient.breaker.state == OPEN
        assert (HALF_OPEN, OPEN) in resilient.breaker.transitions

    def test_transitions_are_counted_on_the_instrument(self):
        clock = ManualClock()
        obs = Instrument()
        faulty = make_faulty(clock=clock).fail_pull("root1", 0, times=2)
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown=5.0, clock=clock
        )
        resilient = ResilientSource(faulty, breaker=breaker, obs=obs)
        for __ in range(2):
            with pytest.raises(TransientSourceError):
                next(iter(resilient.iter_document_children("root1")))
        clock.advance(5.0)
        stream_labels(resilient, "root1")
        assert obs.get("breaker_transitions") == 3

    def test_open_breaker_degrades_to_single_stub_stream(self):
        clock = ManualClock()
        faulty = make_faulty(clock=clock).fail_pull(
            "root1", 0, kind=PERMANENT
        )
        resilient = self.make_resilient(faulty, clock, threshold=1)
        # First scan: the permanent fault trips the breaker and is
        # stubbed and skipped, then the open breaker ends the scan with
        # one more stub.
        first = degraded_scan(resilient, "root1")
        assert [is_error_stub(n) for n in first] == [True, True]
        # A scan opened while the breaker is open degrades to exactly
        # one stub: the open itself raised.
        second = degraded_scan(resilient, "root1")
        assert len(second) == 1 and is_error_stub(second[0])
        assert resilient.breaker.state == OPEN


class TestDegrade:
    def test_transient_stub_is_inserted_before_the_real_element(self):
        stats = Instrument()
        faulty = make_faulty().fail_pull("root1", 1)
        resilient = ResilientSource(faulty)
        nodes = degraded_scan(resilient, "root1", stats=stats)
        # Insertion semantics: the stub marks the failed attempt, the
        # re-pulled real element follows it.
        assert [is_error_stub(n) for n in nodes] == [
            False, True, False, False,
        ]
        # The source counts the failure, the engine the stub.
        assert resilient.health()["resilience"]["failures"] == 1
        assert stats.get(statnames.DEGRADED_RESULTS) == 1

    def test_permanent_stub_replaces_the_element(self):
        faulty = make_faulty().fail_pull("root1", 1, kind=PERMANENT)
        resilient = ResilientSource(faulty)
        nodes = degraded_scan(resilient, "root1")
        # Replacement semantics: the poisoned position is abandoned.
        assert [is_error_stub(n) for n in nodes] == [False, True, False]

    def test_dead_generator_degrades_without_truncation(self):
        flaky = FlakyListSource("d", ["a", "b", "c"], fail_at=1)
        resilient = ResilientSource(flaky)
        nodes = degraded_scan(resilient, "d")
        assert [is_error_stub(n) for n in nodes] == [
            False, True, False, False,
        ]
        assert [n.label for n in nodes if not is_error_stub(n)] == [
            "a", "b", "c",
        ]

    def test_dead_generator_with_permanent_fault_ends_after_stub(self):
        def permanent(pos):
            return SourceError("hard failure", doc_id="d", source="flaky")

        flaky = FlakyListSource(
            "d", ["a", "b", "c"], fail_at=1, fail_times=99,
            exc_factory=permanent,
        )
        resilient = ResilientSource(flaky)
        nodes = degraded_scan(resilient, "d")
        # The replay cannot get past the poisoned position: the stream
        # ends after the stub instead of leaking the error.
        assert [n.label for n in nodes] == ["a", "mix:error"]

    def test_degraded_materialize_carries_stubs(self):
        faulty = make_faulty().fail_pull("root1", 0, kind=PERMANENT)
        resilient = ResilientSource(faulty)
        # A plain read raises; the degrading eager engine stubs instead.
        with pytest.raises(SourceError):
            list(resilient.iter_document_children("root1"))
        nodes = degraded_scan(resilient, "root1", lazy=False)
        flags = [is_error_stub(c) for c in nodes]
        assert flags == [True, False, False]

    def test_stub_records_source_and_reason(self):
        faulty = make_faulty().fail_pull("root1", 0)
        resilient = ResilientSource(faulty, name="s1")
        stub = degraded_scan(resilient, "root1")[0]
        assert is_error_stub(stub)
        texts = [
            grandchild.label
            for child in stub.children
            for grandchild in child.children
        ]
        # The stub names the source that gave up, and why.
        assert texts == ["s1", "injected transient fault on pull of "
                               "'root1' (position 0)"]


class TestIdempotentCalls:
    def test_execute_sql_is_retried(self):
        clock = ManualClock()
        faulty = make_faulty().fail_sql(times=1)
        resilient = ResilientSource(
            faulty, retry=RetryPolicy(attempts=2, sleep=clock.sleep)
        )
        rows = list(resilient.execute_sql("SELECT * FROM orders"))
        assert len(rows) == 4
        assert resilient.health()["resilience"]["retries"] == 1

    def test_execute_sql_budget_exhaustion_raises_with_sql(self):
        faulty = make_faulty().fail_sql(times=9)
        resilient = ResilientSource(
            faulty, retry=RetryPolicy(attempts=2, sleep=ManualClock().sleep)
        )
        with pytest.raises(TransientSourceError) as info:
            resilient.execute_sql("SELECT * FROM orders")
        assert info.value.sql == "SELECT * FROM orders"

    def test_permanent_sql_error_is_not_retried(self):
        clock = ManualClock()
        faulty = make_faulty().fail_sql(kind=PERMANENT)
        resilient = ResilientSource(
            faulty, retry=RetryPolicy(attempts=5, sleep=clock.sleep)
        )
        with pytest.raises(SourceError):
            resilient.execute_sql("SELECT * FROM orders")
        assert len(faulty.injected) == 1
        assert clock.sleeps == []

    def test_planning_surface_passes_through(self):
        resilient = ResilientSource(make_faulty())
        assert resilient.supports_sql()
        assert resilient.server_name == "s"
        assert resilient.document_ids() == ["root1", "root2"]
        assert resilient.table_for_document("root2") == "orders"
        assert resilient.describe_table("orders").name == "orders"

    def test_name_defaults_to_inner_server_name(self):
        assert ResilientSource(make_faulty()).name == "s"
        assert ResilientSource(
            FlakyListSource("d", ["a"])
        ).name == "FlakyListSource"
