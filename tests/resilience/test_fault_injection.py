"""The fault injector: deterministic, seeded, retry-safe."""

import pytest

from repro import Instrument
from repro.algebra import operators as ops
from repro.engine import EagerEngine
from repro.errors import SourceError, TransientSourceError
from repro.resilience import FaultInjectingSource, ManualClock
from repro.resilience.faults import ANY_DOC, PERMANENT
from repro.sources import SourceCatalog

from tests.conftest import make_paper_wrapper


def make_faulty(seed=0, clock=None, obs=None):
    return FaultInjectingSource(
        make_paper_wrapper(), clock=clock or ManualClock(), seed=seed,
        obs=obs,
    )


def labels(source, doc_id):
    return [c.label for c in source.iter_document_children(doc_id)]


class TestScheduledFaults:
    def test_transient_pull_fires_once_then_succeeds(self):
        faulty = make_faulty().fail_pull("root1", 1)
        it = iter(faulty.iter_document_children("root1"))
        first = next(it)
        assert first.label == "customer"
        with pytest.raises(TransientSourceError) as info:
            next(it)
        assert info.value.doc_id == "root1"
        # Retry-safe: the raise consumed nothing — the same position
        # succeeds on the next attempt and the stream is complete.
        rest = [n.label for n in it]
        assert len([first] + rest) == 3
        assert faulty.injected == [("pull", "root1", 1, "transient")]

    def test_permanent_pull_fires_every_attempt(self):
        faulty = make_faulty().fail_pull("root1", 0, kind=PERMANENT)
        for __ in range(3):
            it = iter(faulty.iter_document_children("root1"))
            with pytest.raises(SourceError):
                next(it)

    def test_times_budget_is_shared_across_iterators(self):
        faulty = make_faulty().fail_pull("root1", 0, times=2)
        for __ in range(2):
            with pytest.raises(TransientSourceError):
                next(iter(faulty.iter_document_children("root1")))
        assert labels(faulty, "root1") == ["customer"] * 3

    def test_any_doc_wildcard(self):
        faulty = make_faulty().fail_pull(ANY_DOC, 0, times=2)
        with pytest.raises(TransientSourceError):
            next(iter(faulty.iter_document_children("root1")))
        with pytest.raises(TransientSourceError):
            next(iter(faulty.iter_document_children("root2")))

    def test_slow_pull_sleeps_on_the_injected_clock(self):
        clock = ManualClock()
        faulty = make_faulty(clock=clock).slow_pull("root1", 0, delay=0.7)
        assert labels(faulty, "root1") == ["customer"] * 3
        assert clock.sleeps == [0.7]
        assert clock.time() == pytest.approx(0.7)

    def test_skip_abandons_the_poisoned_position(self):
        faulty = make_faulty().fail_pull("root1", 1, kind=PERMANENT)
        it = iter(faulty.iter_document_children("root1"))
        next(it)
        with pytest.raises(SourceError):
            next(it)
        it.skip()
        assert len(list(it)) == 1  # 3 children, one abandoned

    def test_fail_sql_with_match_and_budget(self):
        faulty = make_faulty().fail_sql(times=1, match="orders")
        sql = "SELECT * FROM orders"
        with pytest.raises(TransientSourceError) as info:
            faulty.execute_sql(sql)
        assert info.value.sql == sql
        # Budget spent: the next statement reaches the wrapper.
        assert len(list(faulty.execute_sql(sql))) == 4
        # Non-matching statements never fault.
        faulty.fail_sql(times=1, match="orders")
        assert len(list(faulty.execute_sql("SELECT * FROM customer"))) == 3

    def test_pull_faults_fire_on_the_eager_path_too(self):
        faulty = make_faulty().fail_pull("root1", 1)
        engine = EagerEngine(SourceCatalog().register(faulty))
        plan = ops.TD("$X", ops.MkSrc("root1", "$X"), root_oid="scan")
        with pytest.raises(TransientSourceError):
            engine.evaluate_tree(plan)
        assert faulty.injected == [("pull", "root1", 1, "transient")]


class TestSeededRandomFaults:
    def test_same_seed_same_schedule(self):
        logs = []
        for __ in range(2):
            faulty = make_faulty(seed=7).fail_pulls_randomly("root1", 0.5)
            events = []
            it = iter(faulty.iter_document_children("root1"))
            while True:
                try:
                    node = next(it)
                except TransientSourceError:
                    events.append("fault")
                except StopIteration:
                    break
                else:
                    events.append(node.label)
            logs.append(events)
        assert logs[0] == logs[1]
        assert logs[0].count("customer") == 3  # every element delivered

    def test_different_seeds_differ_somewhere(self):
        outcomes = set()
        for seed in range(8):
            faulty = make_faulty(seed=seed)
            faulty.fail_pulls_randomly("root1", 0.5)
            faulty.fail_pulls_randomly("root2", 0.5)
            fired = []
            for doc in ("root1", "root2"):
                it = iter(faulty.iter_document_children(doc))
                while True:
                    try:
                        next(it)
                    except TransientSourceError:
                        fired.append(doc)
                    except StopIteration:
                        break
            outcomes.add(tuple(fired))
        assert len(outcomes) > 1

    def test_rate_zero_never_fires_rate_checked_per_position(self):
        faulty = make_faulty().fail_pulls_randomly("root1", 0.0)
        assert labels(faulty, "root1") == ["customer"] * 3
        assert faulty.injected == []


class TestProxySurface:
    def test_delegates_wrapper_surface(self):
        faulty = make_faulty()
        assert faulty.supports_sql()
        assert faulty.server_name == "s"
        assert faulty.table_for_document("root2") == "orders"
        assert faulty.document_ids() == ["root1", "root2"]
        assert faulty.describe_table("orders").name == "orders"

    def test_obs_counts_faults(self):
        obs = Instrument()
        faulty = FaultInjectingSource(
            make_paper_wrapper(), obs=obs
        ).fail_pull("root1", 0)
        with pytest.raises(TransientSourceError):
            next(iter(faulty.iter_document_children("root1")))
        assert obs.get("faults_injected") == 1
