"""Per-shard resilience composition: every member gets its own circuit.

The regression this file pins down: sharing one ``CircuitBreaker``
instance across shard members lets one flapping member open the circuit
for the whole fleet — a single slow disk then blacks out the logical
table.  :func:`shard_resilience` clones the breaker template per member,
and :class:`ResilientSource` now rejects an already-attached breaker.
"""

import pytest

from repro import Instrument
from repro import stats as statnames
from repro.errors import CircuitOpenError, SourceError
from repro.resilience import (
    CircuitBreaker,
    ManualClock,
    ResilientSource,
    RetryPolicy,
    Timeout,
    shard_resilience,
)
from repro.workloads import build_sharded_customers_orders


class FlakySource:
    """A minimal SQL source that always fails."""

    server_name = "flaky"

    def supports_sql(self):
        return True

    def execute_sql(self, sql, params=()):
        raise SourceError("down", sql=sql, source=self.server_name)


class SteadySource:
    server_name = "steady"

    def supports_sql(self):
        return True

    def execute_sql(self, sql, params=()):
        return iter(())


class TestBreakerOwnership:
    def test_shared_breaker_is_rejected(self):
        breaker = CircuitBreaker(failure_threshold=2)
        ResilientSource(SteadySource(), breaker=breaker)
        with pytest.raises(ValueError, match="already attached"):
            ResilientSource(FlakySource(), breaker=breaker)

    def test_clone_is_fresh_and_attachable(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown=9.0,
                                 clock=clock)
        breaker.record_failure()
        breaker.record_failure()  # trips the original
        clone = breaker.clone(name="m[1]")
        assert clone.failure_threshold == 2
        assert clone.cooldown == 9.0
        assert clone.clock is clock
        assert clone.state == "closed"
        assert clone.transitions == []
        assert clone.name == "m[1]"
        # both attachable: they are different instances
        ResilientSource(SteadySource(), breaker=breaker.clone())
        ResilientSource(FlakySource(), breaker=clone)

    def test_retry_and_timeout_are_shared(self):
        clock = ManualClock()
        retry = RetryPolicy(attempts=4, base_delay=0.5, sleep=clock.sleep)
        timeout = Timeout(1.5, clock=clock)
        wrapped = shard_resilience(
            [SteadySource(), SteadySource()], retry=retry, timeout=timeout
        )
        # Stateless policies: every member runs the one instance.
        assert [m.retry for m in wrapped] == [retry, retry]
        assert [m.timeout for m in wrapped] == [timeout, timeout]


class TestShardResilienceFactory:
    def test_members_get_independent_breakers(self):
        template = CircuitBreaker(failure_threshold=1, cooldown=60.0,
                                  clock=ManualClock())
        wrapped = shard_resilience(
            [FlakySource(), SteadySource()], breaker=template
        )
        breakers = {id(w.breaker) for w in wrapped}
        assert len(breakers) == 2
        assert template not in [w.breaker for w in wrapped]

    def test_member_names_index_the_fleet(self):
        wrapped = shard_resilience(
            [SteadySource(), SteadySource()], name="orders"
        )
        assert [w.name for w in wrapped] == ["orders[0]", "orders[1]"]

    def test_default_names_use_member_server_names(self):
        wrapped = shard_resilience([FlakySource(), SteadySource()])
        assert [w.name for w in wrapped] == ["flaky[0]", "steady[1]"]


class TestBlastRadius:
    """One flapping member must never open its siblings' circuits."""

    def fleet(self):
        stats = Instrument()
        clock = ManualClock()
        template = CircuitBreaker(failure_threshold=2, cooldown=60.0,
                                  clock=clock)
        members = [FlakySource(), SteadySource(), SteadySource()]
        wrapped = shard_resilience(
            members, breaker=template, obs=stats
        )
        return stats, wrapped

    def test_only_the_flapping_member_trips(self):
        stats, wrapped = self.fleet()
        flaky, steady_a, steady_b = wrapped
        for _ in range(2):
            with pytest.raises(SourceError):
                flaky.execute_sql("SELECT 1 FROM t")
        assert flaky.breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            flaky.execute_sql("SELECT 1 FROM t")
        # Siblings keep serving on closed circuits.
        assert steady_a.breaker.state == "closed"
        assert steady_b.breaker.state == "closed"
        steady_a.execute_sql("SELECT 1 FROM t")
        steady_b.execute_sql("SELECT 1 FROM t")

    def test_sharded_scatter_survives_one_open_circuit(self):
        """End to end: breaker opens on member 1, the fleet still
        answers with the surviving members' rows."""
        from repro.errors import ShardError

        clock = ManualClock()
        template = CircuitBreaker(failure_threshold=1, cooldown=60.0,
                                  clock=clock)
        sw = build_sharded_customers_orders(
            shards=3, n_customers=6, orders_per_customer=3,
            member_wrapper=lambda ms: shard_resilience(
                ms, breaker=template),
        )
        dead_rows = len(sw.members[1].inner.execute_sql(
            "SELECT orid FROM orders").fetchall())

        def boom(sql, params=()):
            raise SourceError("disk gone", sql=sql, source="s1")
        sw.members[1].inner.execute_sql = boom

        survivors, errors = [], 0
        cursor = sw.sharded.execute_sql("SELECT orid FROM orders")
        while True:
            try:
                row = cursor.fetchone()
            except ShardError:
                errors += 1
                continue
            if row is None:
                break
            survivors.append(row)
        assert errors == 1
        assert len(survivors) == 18 - dead_rows
        assert sw.members[1].breaker.state == "open"
        assert sw.members[0].breaker.state == "closed"
        assert sw.members[2].breaker.state == "closed"
        # The open circuit now fails fast — and still only shard 1.
        with pytest.raises(ShardError):
            sw.sharded.execute_sql("SELECT orid FROM orders").fetchall()
        sw.sharded.close()

    def test_fleet_resilience_health_shows_every_breaker(self):
        clock = ManualClock()
        template = CircuitBreaker(failure_threshold=1, cooldown=60.0,
                                  clock=clock)
        sw = build_sharded_customers_orders(
            shards=2, n_customers=4, orders_per_customer=2,
            member_wrapper=lambda ms: shard_resilience(
                ms, breaker=template),
        )

        def boom(sql, params=()):
            raise SourceError("down", sql=sql, source="s0")
        sw.members[0].inner.execute_sql = boom
        try:
            sw.sharded.execute_sql("SELECT orid FROM orders").fetchall()
        except SourceError:
            pass
        health = sw.sharded.health()["resilience"]
        assert health["source"] == "s"
        assert health["failures"] == 1
        assert health["breaker"].count("/") == 1  # one state per member
        assert "open" in health["breaker"]
        assert "closed" in health["breaker"]
        sw.sharded.close()
