"""Concurrent compiles on one mediator keep their own provenance.

Every server session shares the mediator's one ``Rewriter``; the fired
rule names cached with a plan (EXPLAIN's ``-- rewrite:`` footer) must be
those of the compile that produced the plan, not of whichever compile
finished last.
"""

import sys
import threading

from repro import Mediator
from tests.conftest import Q1, make_paper_wrapper

THREADS = 16
COMPILES_PER_THREAD = 12

#: Through the view: the Fig. 13-21 rewrite, 19 firings.
COMPOSED = (
    "FOR $R IN document(rootv)/CustRec $S IN $R/OrderInfo "
    "WHERE $S/order/value/data() > {} RETURN $R"
)
#: Straight at the sources: two selection pushdowns.
FILTERED_JOIN = (
    "FOR $C IN document(root1)/customer $O IN document(root2)/order "
    "WHERE $C/id/data() = $O/cid/data() AND $O/orid/data() < {} "
    "RETURN <Rec> $C <Ord> $O </Ord> {{$O}} </Rec> {{$C}}"
)


def view_mediator():
    mediator = Mediator(cache=True, cache_size=1024).add_source(
        make_paper_wrapper()
    )
    mediator.define_view("rootv", Q1)
    return mediator


def cached_rules(mediator, text):
    key, values, _ = mediator._plan_key(text)
    hit, cached = mediator.cache.lookup_plan(key, values)
    assert hit, text
    return cached.rewrite_rules


def test_cached_provenance_is_the_compiles_own():
    alone = view_mediator()
    expected = {}
    for template in (COMPOSED, FILTERED_JOIN):
        alone.prepare(template.format(0))
        expected[template] = cached_rules(alone, template.format(0))
    assert len(expected[COMPOSED]) == 19
    assert expected[FILTERED_JOIN]
    assert expected[COMPOSED] != expected[FILTERED_JOIN]

    mediator = view_mediator()
    texts = [
        (template, template.format(1000 * worker + n))
        for worker in range(THREADS)
        for template in [(COMPOSED, FILTERED_JOIN)[worker % 2]]
        for n in range(1, COMPILES_PER_THREAD + 1)
    ]
    barrier = threading.Barrier(THREADS)
    failures = []

    def compile_own(worker):
        try:
            barrier.wait(timeout=30)
            mine = texts[worker * COMPILES_PER_THREAD:][:COMPILES_PER_THREAD]
            for _, text in mine:
                mediator.prepare(text)
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=compile_own, args=(w,))
            for w in range(THREADS)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert not failures
    for template, text in texts:
        assert cached_rules(mediator, text) == expected[template], text
