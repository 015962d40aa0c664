"""Graceful degradation through the engines, the mediator, and explain.

``on_source_error="degrade"`` turns source failures into ``<mix:error>``
stubs instead of unwinding the navigation stack; the stub contract
(poison paths, false conditions, strip-equals-fault-free for transients)
is exercised end to end here.
"""

import json

import pytest

from repro.algebra.translator import translate_query
from repro.engine.eager import EagerEngine
from repro.engine.lazy import LazyEngine
from repro.engine.vtree import VNode, vnode_to_tree
from repro.errors import SourceError, TransientSourceError
from repro.obs.export import trace_to_json
from repro.qdom.mediator import Mediator
from repro.qdom.session import Session
from repro.resilience import (
    ERROR_LABEL,
    FaultInjectingSource,
    ManualClock,
    ResilientSource,
    RetryPolicy,
    find_error_stubs,
    is_error_stub,
    strip_error_stubs,
)
from repro.resilience.faults import PERMANENT
from repro.rewriter import push_to_sources
from repro.sources import SourceCatalog
from repro.xmltree import deep_equals

from tests.conftest import make_paper_wrapper

Q_CUSTOMERS = "FOR $C IN document(root1)/customer RETURN $C"
Q_ORDERS = "FOR $O IN document(root2)/order RETURN $O"
Q_BIG = "FOR $O IN document(root2)/order RETURN <Big> $O </Big>"
Q_FILTERED = (
    "FOR $O IN document(root2)/order"
    " WHERE $O/value/data() > 0 RETURN $O"
)


def faulty_catalog(**kwargs):
    faulty = FaultInjectingSource(
        make_paper_wrapper(), clock=ManualClock(), **kwargs
    )
    return faulty, SourceCatalog().register(faulty)


def lazy_tree(catalog, query, policy="degrade"):
    plan = translate_query(query, root_oid="res")
    engine = LazyEngine(catalog, on_source_error=policy)
    return vnode_to_tree(VNode.root(engine.evaluate_tree(plan)))


def eager_tree(catalog, query, policy="degrade"):
    plan = translate_query(query, root_oid="res")
    return EagerEngine(catalog, on_source_error=policy).evaluate_tree(plan)


class TestLazyDegrade:
    def test_permanent_fault_becomes_stub(self):
        faulty, catalog = faulty_catalog()
        faulty.fail_pull("root1", 0, kind=PERMANENT)
        tree = lazy_tree(catalog, Q_CUSTOMERS)
        labels = [c.label for c in tree.children]
        assert labels == [ERROR_LABEL, "customer", "customer"]

    def test_transient_strip_equals_fault_free(self):
        faulty, catalog = faulty_catalog()
        faulty.fail_pull("root1", 1)
        degraded = lazy_tree(catalog, Q_CUSTOMERS)
        assert len(find_error_stubs(degraded)) == 1
        __, clean_catalog = faulty_catalog()
        fault_free = lazy_tree(clean_catalog, Q_CUSTOMERS)
        assert deep_equals(strip_error_stubs(degraded), fault_free)

    def test_raise_policy_propagates(self):
        faulty, catalog = faulty_catalog()
        faulty.fail_pull("root1", 0)
        with pytest.raises(TransientSourceError):
            lazy_tree(catalog, Q_CUSTOMERS, policy="raise")

    def test_where_condition_drops_stubs(self):
        # Conditions on stubs are false (SQL-NULL semantics): the stub
        # never reaches the filtered result.
        faulty, catalog = faulty_catalog()
        faulty.fail_pull("root2", 0, kind=PERMANENT)
        tree = lazy_tree(catalog, Q_FILTERED)
        assert find_error_stubs(tree) == []
        assert [c.label for c in tree.children] == ["order"] * 3

    def test_pushed_sql_failure_degrades(self):
        faulty, catalog = faulty_catalog()
        faulty.fail_sql(times=1)
        plan = push_to_sources(
            translate_query(Q_ORDERS, root_oid="res"), catalog
        )
        engine = LazyEngine(catalog, on_source_error="degrade")
        tree = vnode_to_tree(VNode.root(engine.evaluate_tree(plan)))
        assert len(find_error_stubs(tree)) >= 1

    def test_bad_policy_rejected(self):
        __, catalog = faulty_catalog()
        with pytest.raises(ValueError):
            LazyEngine(catalog, on_source_error="bogus")


class TestEagerDegrade:
    def test_permanent_fault_becomes_stub(self):
        faulty, catalog = faulty_catalog()
        faulty.fail_pull("root1", 0, kind=PERMANENT)
        tree = eager_tree(catalog, Q_CUSTOMERS)
        labels = [c.label for c in tree.children]
        assert labels == [ERROR_LABEL, "customer", "customer"]

    def test_transient_strip_equals_fault_free(self):
        faulty, catalog = faulty_catalog()
        faulty.fail_pull("root1", 1)
        degraded = eager_tree(catalog, Q_CUSTOMERS)
        __, clean_catalog = faulty_catalog()
        fault_free = eager_tree(clean_catalog, Q_CUSTOMERS)
        assert deep_equals(strip_error_stubs(degraded), fault_free)

    def test_raise_policy_propagates(self):
        faulty, catalog = faulty_catalog()
        faulty.fail_pull("root1", 0)
        with pytest.raises(TransientSourceError):
            eager_tree(catalog, Q_CUSTOMERS, policy="raise")

    def test_bad_policy_rejected(self):
        __, catalog = faulty_catalog()
        with pytest.raises(ValueError):
            EagerEngine(catalog, on_source_error="bogus")


class TestMediatorPolicy:
    def test_degrading_mediator_returns_partial_result(self):
        faulty, catalog = faulty_catalog()
        faulty.fail_pull("root1", 0, kind=PERMANENT)
        mediator = Mediator(
            catalog=catalog, push_sql=False, on_source_error="degrade"
        )
        root = mediator.query(Q_CUSTOMERS)
        tree = root.to_tree()
        assert [c.label for c in tree.children] == [
            ERROR_LABEL, "customer", "customer",
        ]

    def test_navigation_lands_on_the_stub(self):
        faulty, catalog = faulty_catalog()
        faulty.fail_pull("root1", 0, kind=PERMANENT)
        mediator = Mediator(
            catalog=catalog, push_sql=False, on_source_error="degrade"
        )
        first = mediator.query(Q_CUSTOMERS).d()
        assert first.fl() == ERROR_LABEL
        assert first.r().fl() == "customer"

    def test_raising_mediator_raises_by_default(self):
        faulty, catalog = faulty_catalog()
        faulty.fail_pull("root1", 0, kind=PERMANENT)
        mediator = Mediator(catalog=catalog, push_sql=False)
        with pytest.raises(SourceError):
            mediator.query(Q_CUSTOMERS).to_tree()

    def test_query_and_in_place_q_degrade_alike(self):
        # One policy per mediator: the in-place q from a degraded view's
        # root degrades too.  (When a per-query override could degrade
        # the view alone, this q raised SourceError.)
        faulty, catalog = faulty_catalog()
        faulty.fail_pull("root2", 1, kind=PERMANENT)
        mediator = Mediator(
            catalog=catalog, push_sql=False, on_source_error="degrade"
        )
        root = mediator.query(Q_BIG)
        assert [c.label for c in root.to_tree().children] == [
            "Big", "Big", "Big", "Big",
        ]
        refined = root.q(
            "FOR $B IN document(root)/Big RETURN $B"
        ).to_tree()
        assert len(find_error_stubs(refined)) == 1
        assert [c.label for c in refined.children] == ["Big"] * 4

    def test_eager_mediator_degrades_too(self):
        faulty, catalog = faulty_catalog()
        faulty.fail_pull("root1", 0, kind=PERMANENT)
        mediator = Mediator(
            catalog=catalog, lazy=False, push_sql=False,
            on_source_error="degrade",
        )
        tree = mediator.query(Q_CUSTOMERS).to_tree()
        assert len(find_error_stubs(tree)) == 1

    def test_session_browses_a_degrading_mediator(self):
        faulty, catalog = faulty_catalog()
        faulty.fail_pull("root1", 0, kind=PERMANENT)
        session = Session(Mediator(
            catalog=catalog, push_sql=False, on_source_error="degrade"
        ))
        session.open(Q_CUSTOMERS)
        assert session.current.d().fl() == ERROR_LABEL

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            Mediator(on_source_error="bogus")


class TestExplainResilience:
    def resilient_catalog(self, **faults):
        clock = ManualClock()
        faulty = FaultInjectingSource(make_paper_wrapper(), clock=clock)
        for method, args in faults.items():
            getattr(faulty, method)(*args)
        resilient = ResilientSource(
            faulty,
            retry=RetryPolicy(attempts=3, sleep=clock.sleep),
            name="s",
        )
        return SourceCatalog().register(resilient)

    def test_explain_footer_reports_retries(self):
        catalog = self.resilient_catalog(fail_pull=("root1", 1))
        mediator = Mediator(
            catalog=catalog, push_sql=False, on_source_error="degrade"
        )
        text = mediator.explain(Q_CUSTOMERS)
        assert "-- resilience[s]:" in text
        assert "retries=1" in text

    def test_explain_footer_reports_degraded_subtrees(self):
        catalog = self.resilient_catalog(
            fail_pull=("root1", 0, PERMANENT)
        )
        mediator = Mediator(
            catalog=catalog, push_sql=False, on_source_error="degrade"
        )
        text = mediator.explain(Q_CUSTOMERS)
        # The source reports the failure; the stub is the engine's.
        (footer,) = [line for line in text.splitlines()
                     if line.startswith("-- resilience[s]:")]
        assert "failures=1" in footer and "degraded" not in footer

    def test_trace_export_carries_resilience_event(self):
        catalog = self.resilient_catalog(fail_pull=("root1", 1))
        mediator = Mediator(
            catalog=catalog, push_sql=False, on_source_error="degrade"
        )
        __, trace, __ = mediator.explain_with_trace(Q_CUSTOMERS)
        payload = json.loads(trace_to_json(trace))
        assert "resilience" in json.dumps(payload)
