"""E-LAZY: navigation-driven lazy evaluation vs. full materialization.

The paper's Section 1/4 claim: "the MIX mediator produces the XML result
tree as the user navigates into it, hence avoiding unnecessary
computations ... it is well known that Web users browse just a few
results from their query and then move on."

We sweep the number of results the client browses (k) and measure the
tuples shipped from the relational source under the lazy engine vs. the
eager baseline.  Expectation: lazy traffic grows roughly linearly in k
and stays far below eager for small k; at k = all results the two
converge (lazy has no asymptotic penalty).
"""

from __future__ import annotations

from functools import partial

import pytest

from repro import stats as statnames
from benchmarks.conftest import VIEW_QUERY, build_mediator, print_series

N_CUSTOMERS = 400
ORDERS_PER = 8
BROWSE_KS = (1, 3, 10, 30, 100, 400)

# The paper's claim in the paper's execution, one tuple per pull: at the
# default width 64 the first ``d`` prefetches a block of CustRecs (512
# tuples, over the floors below) until ROADMAP's "Ramp-up prefetch" lands.
build_mediator = partial(build_mediator, block_size=1)


def browse_k(mediator, k):
    """Navigate across the first k CustRecs (shallow browse)."""
    node = mediator.query(VIEW_QUERY).d()
    seen = 0
    while node is not None and seen < k:
        seen += 1
        node = node.r()
    return seen


def eager_traffic():
    stats, mediator = build_mediator(N_CUSTOMERS, ORDERS_PER, lazy=False)
    mediator.query(VIEW_QUERY)
    return stats.get(statnames.TUPLES_SHIPPED)


def lazy_traffic(k):
    stats, mediator = build_mediator(N_CUSTOMERS, ORDERS_PER)
    browse_k(mediator, k)
    return stats.get(statnames.TUPLES_SHIPPED)


def test_lazy_vs_eager_traffic_series():
    eager = eager_traffic()
    rows = []
    previous = 0
    for k in BROWSE_KS:
        shipped = lazy_traffic(k)
        rows.append((k, shipped, eager,
                     round(eager / max(shipped, 1), 1)))
        # Monotone in k.
        assert shipped >= previous
        previous = shipped
    print_series(
        "E-LAZY: tuples shipped while browsing k of {} results".format(
            N_CUSTOMERS
        ),
        ("k browsed", "lazy shipped", "eager shipped", "eager/lazy"),
        rows,
    )
    # The paper's claim: browsing a small prefix ships a small fraction.
    small_k = dict((k, s) for k, s, *_ in rows)
    assert small_k[3] * 20 < eager
    assert small_k[30] * 2 < eager
    # Full walk converges to the same order of magnitude.
    assert small_k[400] <= eager * 1.1


def test_lazy_descent_into_one_group_is_local():
    stats, mediator = build_mediator(N_CUSTOMERS, ORDERS_PER)
    root = mediator.query(VIEW_QUERY)
    first = root.d()
    shallow = stats.get(statnames.TUPLES_SHIPPED)
    # Descend into the first customer's full order list.
    child = first.d()
    while child is not None:
        child = child.r()
    deep = stats.get(statnames.TUPLES_SHIPPED)
    # Reading one group costs about one group, not the whole join.
    assert deep - shallow <= 2 * ORDERS_PER + 2
    assert deep < eager_traffic() / 10


def test_elements_built_tracks_navigation():
    stats, mediator = build_mediator(N_CUSTOMERS, ORDERS_PER)
    browse_k(mediator, 5)
    lazy_built = stats.get(statnames.ELEMENTS_BUILT)
    stats2, mediator2 = build_mediator(N_CUSTOMERS, ORDERS_PER, lazy=False)
    mediator2.query(VIEW_QUERY)
    eager_built = stats2.get(statnames.ELEMENTS_BUILT)
    print_series(
        "E-LAZY: constructed elements (browse 5 vs eager)",
        ("engine", "elements built"),
        [("lazy, k=5", lazy_built), ("eager", eager_built)],
    )
    assert lazy_built * 10 < eager_built


@pytest.mark.parametrize("k", [1, 10])
def test_bench_lazy_browse(benchmark, k):
    """Wall-clock time to open the view and browse k results (lazy)."""

    def run():
        stats, mediator = build_mediator(100, 4)
        return browse_k(mediator, k)

    assert benchmark(run) == k


def test_bench_eager_full(benchmark):
    """Wall-clock time for the eager baseline on the same view."""

    def run():
        stats, mediator = build_mediator(100, 4, lazy=False)
        mediator.query(VIEW_QUERY)
        return True

    assert benchmark(run)
