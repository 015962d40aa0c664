"""The mediator's compiled-plan cache.

A plan-cache hit must skip the whole parse → translate → rewrite →
SQL-split pipeline yet be observationally identical to a cold
compilation; the key must move whenever anything the compilation read
moves (catalog shape, view definitions).  The pipeline switches are
fixed at construction instead of being keyed.
"""

from __future__ import annotations

import pytest

from repro import Mediator, XmlFileSource
from repro.algebra.printer import render_plan
from repro.obs import Instrument
from repro import stats as sn
from repro.xmltree import serialize

from tests.conftest import Q1, Q12, make_paper_wrapper


def caching_mediator(**kwargs):
    stats = Instrument()
    mediator = Mediator(stats=stats, cache=True, **kwargs)
    return mediator.add_source(make_paper_wrapper(stats=stats))


def test_repeat_query_hits_plan_cache():
    mediator = caching_mediator()
    first = serialize(mediator.query(Q1).to_tree())
    second = serialize(mediator.query(Q1).to_tree())
    assert first == second
    assert mediator.cache.plan_cache.stats()["hits"] == 1
    assert mediator.stats.get(sn.PLAN_CACHE_HITS) == 1


def test_hit_skips_translation():
    mediator = caching_mediator()
    mediator.query(Q1)
    exec_a, compose_a, status_a = mediator.prepare(Q1)
    assert status_a == "hit"
    exec_b, compose_b, status_b = mediator.prepare(Q1)
    assert status_b == "hit"
    # Hits return the very same compiled objects — nothing was rebuilt
    # (a recompilation would also advance the root-oid counter, which
    # identical root oids below rule out).
    assert exec_a is exec_b
    assert compose_a is compose_b


def test_whitespace_variants_share_one_entry():
    mediator = caching_mediator()
    mediator.query(Q1)
    mediator.query("  " + " ".join(Q1.split()) + "  ")
    assert mediator.cache.plan_cache.stats()["hits"] >= 1
    assert len(mediator.cache.plan_cache) == 1


def test_cache_off_reports_off():
    stats = Instrument()
    mediator = Mediator(stats=stats).add_source(
        make_paper_wrapper(stats=stats)
    )
    assert mediator.cache is None
    __, __, status = mediator.prepare(Q1)
    assert status == "off"
    assert stats.get(sn.PLAN_CACHE_HITS) == 0
    assert stats.get(sn.PLAN_CACHE_MISSES) == 0


def test_cache_size_zero_disables_cleanly():
    stats = Instrument()
    mediator = Mediator(stats=stats, cache=True, cache_size=0)
    mediator.add_source(make_paper_wrapper(stats=stats))
    assert mediator.cache is None
    first = serialize(mediator.query(Q1).to_tree())
    second = serialize(mediator.query(Q1).to_tree())
    assert first == second


def test_define_view_invalidates_compiled_plans():
    mediator = caching_mediator()
    mediator.define_view("rich", Q1)
    view_query = "FOR $R IN document(rich)/CustRec RETURN $R"
    before = serialize(mediator.query(view_query).to_tree())
    assert mediator.cache.plan_cache.stats()["misses"] >= 1
    # Redefinition: the same name now means something else entirely.
    mediator.define_view(
        "rich",
        """
        FOR $C IN document(root1)/customer
        RETURN <CustRec> $C </CustRec>
        """,
    )
    assert mediator.cache.plan_cache.stats()["invalidations"] >= 1
    after = serialize(mediator.query(view_query).to_tree())
    assert after != before  # the old compilation must not be replayed


def test_new_source_changes_the_key():
    mediator = caching_mediator()
    query = "FOR $C IN document(root1)/customer RETURN $C"
    mediator.query(query)
    mediator.add_source(
        XmlFileSource().add_text("extra", "<extra><x>1</x></extra>")
    )
    mediator.query(query)
    # Different catalog shape -> different key -> no cross-shape hit.
    assert mediator.cache.plan_cache.stats()["hits"] == 0
    assert len(mediator.cache.plan_cache) == 2


@pytest.mark.parametrize("switch, value", [
    ("optimize", False), ("push_sql", False), ("lazy", False),
    ("on_source_error", "degrade"), ("cost_optimizer", False),
    ("strict", True), ("block_size", 1), ("cache_size", 4),
])
def test_switches_are_fixed_at_construction(switch, value):
    # A switch flipped after a compile would serve plans cached (and
    # sources configured) under the old value, so none can be flipped.
    mediator = caching_mediator()
    mediator.query(Q1)
    before = getattr(mediator, switch)
    with pytest.raises(AttributeError, match=switch):
        setattr(mediator, switch, value)
    assert getattr(mediator, switch) == before


@pytest.mark.parametrize("switch", ["optimize", "push_sql",
                                    "cost_optimizer"])
def test_mediators_differing_in_a_switch_compile_different_plans(switch):
    # No switch is in the plan key: each mediator owns its caches, so a
    # different configuration is a different mediator with its own plans.
    def plan_text(**kwargs):
        mediator = caching_mediator(**kwargs)
        mediator.define_view("rootv", Q1)
        mediator.analyze_sources()  # cost refinements need statistics
        return render_plan(mediator.prepare(Q12)[0])

    assert plan_text() != plan_text(**{switch: False})
    assert plan_text() == plan_text()


def test_eviction_bound_holds_for_plans():
    mediator = caching_mediator(cache_size=2)
    queries = [
        "FOR $C IN document(root1)/customer RETURN $C",
        "FOR $O IN document(root2)/order RETURN $O",
        "FOR $C IN document(root1)/customer RETURN <R> $C </R>",
    ]
    for query in queries:
        mediator.query(query)
    assert len(mediator.cache.plan_cache) == 2
    assert mediator.cache.plan_cache.stats()["evictions"] == 1
    # The evicted (oldest) query recompiles: a miss, not a hit.
    mediator.query(queries[0])
    assert mediator.cache.plan_cache.stats()["hits"] == 0
