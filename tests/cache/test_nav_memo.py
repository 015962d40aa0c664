"""The navigation memo: shared materialized prefixes, poison fences.

The memo shares an answer's root Node — and therefore every child list
navigation has already forced — across QDOM sessions over the same
view.  Being the only cache that holds *data*, it is fenced hard:

* a memo hit re-ships nothing (zero ``tuples_shipped``, zero new
  ``source_navigations`` for the shared prefix);
* any write to any registered source kills the entry (data
  fingerprint), as does an unversioned source (no fingerprint at all);
* a degrading mediator bypasses the memo entirely, and a fault
  observed since an entry was stored (the failure epoch) or a poisoned
  prefix — ``<mix:error>`` stub or a broken lazy tail — disqualifies
  it.
"""

from __future__ import annotations

import pytest

from repro import Mediator
from repro.cache import data_fingerprint
from repro.errors import MixError, SourceError, TransientSourceError
from repro.obs import Instrument
from repro import stats as sn
from repro.resilience import (
    FaultInjectingSource,
    ManualClock,
    ResilientSource,
    RetryPolicy,
    find_error_stubs,
    prefix_has_error_stub,
)
from repro.xmltree import serialize

from tests.conftest import (
    DyingCursorSource,
    Q1,
    make_paper_wrapper,
    make_scaled_wrapper,
)

ORDERS = "FOR $O IN document(root2)/order RETURN $O"


def caching_mediator(**kwargs):
    stats = Instrument()
    mediator = Mediator(stats=stats, cache=True, **kwargs)
    return mediator.add_source(make_paper_wrapper(stats=stats))


def test_memo_hit_ships_nothing():
    mediator = caching_mediator()
    cold = serialize(mediator.query(Q1).to_tree())
    shipped = mediator.stats.get(sn.TUPLES_SHIPPED)
    navigations = mediator.stats.get(sn.SOURCE_NAVIGATIONS)
    warm = serialize(mediator.query(Q1).to_tree())
    assert warm == cold
    assert mediator.stats.get(sn.TUPLES_SHIPPED) == shipped
    assert mediator.stats.get(sn.SOURCE_NAVIGATIONS) == navigations
    assert mediator.stats.get(sn.NAV_MEMO_HITS) == 1


def test_partial_prefix_is_shared_across_sessions():
    mediator = caching_mediator()
    first = mediator.query(ORDERS)
    first.d()                            # force just the first child
    shipped = mediator.stats.get(sn.TUPLES_SHIPPED)
    second = mediator.query(ORDERS)      # memo hit: same root Node
    assert second.d() is not None
    # The first child was already materialized by the first session.
    assert mediator.stats.get(sn.TUPLES_SHIPPED) == shipped
    # Walking further *does* pull — the memo never fakes completeness.
    second.d().r()


def test_two_handles_see_consistent_answers():
    mediator = caching_mediator()
    a = serialize(mediator.query(Q1).to_tree())
    b = serialize(mediator.query(Q1).to_tree())
    c = serialize(mediator.query(Q1).to_tree())
    assert a == b == c


def test_dml_invalidates_memo():
    mediator = caching_mediator()
    db = mediator.catalog.server("s").database
    before = serialize(mediator.query(ORDERS).to_tree())
    db.run("INSERT INTO orders VALUES (555, 'ABC', 42)")
    after = serialize(mediator.query(ORDERS).to_tree())
    assert after != before
    assert "555" in after or "42" in after
    assert mediator.stats.get(sn.NAV_MEMO_INVALIDATIONS) == 1
    # Re-warmed at the new version: a third run hits again.
    assert serialize(mediator.query(ORDERS).to_tree()) == after
    assert mediator.stats.get(sn.NAV_MEMO_HITS) == 1


def test_dml_sweeps_every_dead_entry_on_the_next_query():
    """A write kills every stored answer, not only the one whose key
    comes back: the first query after it drops all older entries, so no
    dead answer keeps a superseded table version alive."""
    mediator = caching_mediator()
    db = mediator.catalog.server("s").database
    texts = [
        ORDERS,
        Q1,
        "FOR $C IN document(root1)/customer RETURN $C",
    ]
    for text in texts:
        mediator.query(text).to_tree()
    assert len(mediator.cache.nav_memo) == 3
    db.run("INSERT INTO orders VALUES (556, 'ABC', 43)")
    mediator.query(ORDERS).to_tree()
    (entry,) = mediator.cache.nav_memo.values()
    assert entry.fingerprint == data_fingerprint(mediator.catalog)
    assert mediator.stats.get(sn.NAV_MEMO_INVALIDATIONS) == 3


def test_unversioned_source_disables_result_reuse():
    from tests.resilience.conftest import FlakyListSource

    mediator = caching_mediator()
    # A source with no data_version() makes the whole catalog
    # unfingerprintable: results can no longer be proven fresh.
    mediator.add_source(FlakyListSource("extra", ["a", "b"], fail_at=None))
    first = serialize(mediator.query(ORDERS).to_tree())
    second = serialize(mediator.query(ORDERS).to_tree())
    assert first == second
    assert len(mediator.cache.nav_memo) == 0
    assert mediator.stats.get(sn.NAV_MEMO_HITS) == 0
    # The plan cache is data-free and keeps working.
    assert mediator.stats.get(sn.PLAN_CACHE_HITS) == 1


def test_degrade_policy_bypasses_memo_entirely():
    mediator = caching_mediator(on_source_error="degrade")
    mediator.query(ORDERS).to_tree()
    mediator.query(ORDERS).to_tree()
    assert len(mediator.cache.nav_memo) == 0
    assert mediator.stats.get(sn.NAV_MEMO_HITS) == 0
    assert mediator.stats.get(sn.NAV_MEMO_MISSES) == 0


def test_exhausted_fault_raises_and_never_leaks_through_the_memo():
    # A raise-policy mediator over a resilient source that gives up on
    # a one-shot transient fault.  (When the source could stub it
    # itself, the second session's memo hit held that stub.)
    stats = Instrument()
    faulty = FaultInjectingSource(
        make_paper_wrapper(stats=stats), clock=ManualClock(), obs=stats,
    ).fail_pull("root2", 1)
    mediator = Mediator(stats=stats, cache=True, push_sql=False).add_source(
        ResilientSource(faulty, retry=RetryPolicy(attempts=1), obs=stats)
    )
    first = mediator.query(ORDERS)
    second = mediator.query(ORDERS)      # memo hit: the same root Node
    assert mediator.stats.get(sn.NAV_MEMO_HITS) == 1
    with pytest.raises(TransientSourceError):
        first.to_tree()                  # the session that pulled it
    # The shared tree is broken, not degraded: it re-raises.
    with pytest.raises(TransientSourceError):
        second.to_tree()
    third = mediator.query(ORDERS).to_tree()
    assert mediator.stats.get(sn.NAV_MEMO_HITS) == 1
    assert mediator.stats.get(sn.NAV_MEMO_INVALIDATIONS) == 1
    assert [c.label for c in third.children] == ["order"] * 4
    assert find_error_stubs(third) == []
    assert mediator.stats.get(sn.SOURCE_FAILURES) == 1
    assert mediator.stats.get(sn.DEGRADED_RESULTS) == 0


def test_degraded_fault_run_leaves_no_poisoned_entries():
    stats = Instrument()
    faulty = FaultInjectingSource(
        make_paper_wrapper(stats=stats), clock=ManualClock(), seed=3,
        obs=stats,
    )
    faulty.fail_pulls_randomly("root2", 0.9)
    mediator = Mediator(
        stats=stats, cache=True, push_sql=False,
        on_source_error="degrade",
    ).add_source(
        ResilientSource(faulty, retry=RetryPolicy(attempts=1), obs=stats)
    )
    tree = mediator.query(ORDERS).to_tree()
    assert find_error_stubs(tree)        # the run really degraded
    assert len(mediator.cache.nav_memo) == 0
    for root in mediator.cache.memo_roots():
        assert not prefix_has_error_stub(root)


def test_fail_epoch_movement_invalidates_stored_entries():
    mediator = caching_mediator()
    mediator.query(ORDERS).to_tree()
    assert len(mediator.cache.nav_memo) == 1
    # Any degradation observed on this mediator after the store makes
    # the entry unprovable (conservative fence): it must not be served.
    mediator.stats.incr(sn.DEGRADED_RESULTS)
    mediator.query(ORDERS).to_tree()
    assert mediator.stats.get(sn.NAV_MEMO_HITS) == 0
    assert mediator.stats.get(sn.NAV_MEMO_INVALIDATIONS) == 1


def test_broken_lazy_tail_is_never_served():
    stats = Instrument()
    faulty = FaultInjectingSource(
        make_paper_wrapper(stats=stats), clock=ManualClock(), seed=0,
        obs=stats,
    )
    faulty.fail_pull("root2", 1, kind="permanent")
    mediator = Mediator(
        stats=stats, cache=True, push_sql=False
    ).add_source(faulty)
    first = mediator.query(ORDERS)
    assert first.d() is not None
    with pytest.raises(MixError):
        first.d().r()                    # the lazy stream dies here
    # Re-navigating the dead stream re-raises — never truncates.
    with pytest.raises(MixError):
        first.d().r()
    # A fresh session must not be handed the broken tree.
    second = mediator.query(ORDERS)
    assert mediator.stats.get(sn.NAV_MEMO_INVALIDATIONS) >= 1
    assert second.d() is not None

    # The pushed Fig.-3 view: the cursor dies inside the second
    # customer's gBy partition.  Once that partition latched, a second
    # session gets a fresh evaluation that raises there again — never
    # the memoized answer, and never a short record.
    for width in (1, 64):
        stats = Instrument()
        mediator = Mediator(stats=stats, cache=True, block_size=width)
        mediator.add_source(DyingCursorSource(
            make_scaled_wrapper(4, 3, stats=stats), 4, obs=stats))
        for __ in range(2):
            record = mediator.query(Q1).d().r()
            with pytest.raises(SourceError):
                record.to_tree()
            with pytest.raises(SourceError):
                record.r()
        assert mediator.stats.get(sn.NAV_MEMO_HITS) == 0


def test_define_view_clears_memo():
    mediator = caching_mediator()
    mediator.define_view(
        "rich",
        """
        FOR $O IN document(root2)/order
        WHERE $O/value/data() > 20000
        RETURN <Rich> $O </Rich>
        """,
    )
    view_query = "FOR $R IN document(rich)/Rich RETURN $R"
    mediator.query(view_query).to_tree()
    assert len(mediator.cache.nav_memo) == 1
    mediator.define_view(
        "rich",
        """
        FOR $O IN document(root2)/order
        WHERE $O/value/data() > 100000
        RETURN <Rich> $O </Rich>
        """,
    )
    assert len(mediator.cache.nav_memo) == 0
    answer = mediator.query(view_query).to_tree()
    # The redefined view filters harder: one order above 100000.
    assert len(answer.children) == 1


def test_memo_respects_cache_bound():
    mediator = caching_mediator(cache_size=1)
    mediator.query(ORDERS).to_tree()
    mediator.query(
        "FOR $C IN document(root1)/customer RETURN $C"
    ).to_tree()
    assert len(mediator.cache.nav_memo) == 1
    assert mediator.stats.get(sn.NAV_MEMO_EVICTIONS) == 1
