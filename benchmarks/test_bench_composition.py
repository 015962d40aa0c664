"""E-COMP: optimized query composition vs. the naive composed plan.

The paper's Section 6 claim: the rewriter "combines the conditions of q1
and q2 and pushes to the sources the most restrictive queries, which
results in the transfer of the minimum amount of data between the
mediator and the sources."

We compose the Fig. 12 query (threshold sweep over the order value) with
the Fig. 3 view and compare:

* naive      — the trivial composition, evaluated as-is (the view's
               whole join is shipped and the conditions run on top);
* optimized  — Table-2 rewriting + SQL push-down: a single self-join
               SQL query whose result is proportional to the answer.
"""

from __future__ import annotations

import pytest

from repro import stats as statnames
from repro.algebra.translator import translate_query
from repro.composer import compose_at_root
from repro.engine.eager import EagerEngine
from repro.rewriter import Rewriter, push_to_sources
from repro import Database, Instrument, RelationalWrapper
from repro.sources import SourceCatalog
from benchmarks.conftest import (
    COMPOSE_QUERY_TEMPLATE,
    VIEW_QUERY,
    print_series,
)

N_CUSTOMERS = 150
ORDERS_PER = 10


def build_catalog(n_customers=N_CUSTOMERS, orders_per=ORDERS_PER):
    """Customer i's orders all have value 100*((i%10)+1): a threshold of
    ``100*t - 50`` keeps exactly the top ``(10-t)/10`` of customers, so
    the sweep has known selectivities."""
    stats = Instrument()
    db = Database("bench", stats=stats)
    db.run(
        "CREATE TABLE customer (id TEXT, name TEXT, addr TEXT,"
        " PRIMARY KEY (id))"
    )
    db.run(
        "CREATE TABLE orders (orid INT, cid TEXT, value INT,"
        " PRIMARY KEY (orid))"
    )
    order_id = 0
    for i in range(n_customers):
        db.run(
            "INSERT INTO customer VALUES ('C{:05d}', 'N{}', 'City')".format(
                i, i
            )
        )
        value = 100 * ((i % 10) + 1)
        for __ in range(orders_per):
            db.run(
                "INSERT INTO orders VALUES ({}, 'C{:05d}', {})".format(
                    order_id, i, value
                )
            )
            order_id += 1
    wrapper = (
        RelationalWrapper(db)
        .register_document("root1", "customer")
        .register_document("root2", "orders", element_label="order")
    )
    return stats, SourceCatalog().register(wrapper)


def composed_plans(threshold):
    view = translate_query(VIEW_QUERY, root_oid="root")
    query = translate_query(
        COMPOSE_QUERY_TEMPLATE.format(threshold=threshold)
    )
    naive = compose_at_root(view, query, view_id="root")
    optimized = Rewriter().rewrite(naive)
    return naive, optimized


def run_and_count(plan, push):
    stats, catalog = build_catalog()
    if push:
        plan = push_to_sources(plan, catalog)
    tree = EagerEngine(catalog, stats=stats).evaluate_tree(plan)
    return stats, len(tree.children)


@pytest.mark.parametrize(
    "threshold,surviving_tenths", [(950, 1), (450, 6), (0, 10)]
)
def test_composition_answers_agree(threshold, surviving_tenths):
    naive, optimized = composed_plans(threshold)
    __, naive_count = run_and_count(naive, push=False)
    __, opt_count = run_and_count(optimized, push=True)
    # The answers agree as sets, the algebra's semantics: the naive
    # Fig. 12 plan repeats a CustRec once per qualifying order, the
    # rewritten plan's semijoin keeps it once.
    expected_customers = N_CUSTOMERS * surviving_tenths // 10
    assert opt_count == expected_customers
    assert naive_count >= opt_count


def test_composition_traffic_series():
    rows = []
    for threshold in (950, 750, 450, 0):
        naive, optimized = composed_plans(threshold)
        naive_stats, __ = run_and_count(naive, push=False)
        opt_stats, __ = run_and_count(optimized, push=True)
        naive_shipped = naive_stats.get(statnames.TUPLES_SHIPPED)
        opt_shipped = opt_stats.get(statnames.TUPLES_SHIPPED)
        naive_ops = naive_stats.get(statnames.OPERATOR_TUPLES)
        opt_ops = opt_stats.get(statnames.OPERATOR_TUPLES)
        rows.append(
            (threshold, naive_shipped, opt_shipped, naive_ops, opt_ops)
        )
        # The optimized plan never ships more than the naive one and the
        # mediator does strictly less tuple-at-a-time work.
        assert opt_shipped <= naive_shipped
        assert opt_ops < naive_ops
    print_series(
        "E-COMP: naive vs optimized composition "
        "({} customers x {} orders)".format(N_CUSTOMERS, ORDERS_PER),
        ("value >", "naive shipped", "opt shipped",
         "naive med-tuples", "opt med-tuples"),
        rows,
    )
    # Traffic scales with the answer for the optimized plan: the
    # selective threshold ships ~10x less than the unselective one.
    by_threshold = {r[0]: r[2] for r in rows}
    assert by_threshold[950] * 5 < by_threshold[0]


def test_mediator_work_reduction_is_large():
    naive, optimized = composed_plans(950)
    naive_stats, __ = run_and_count(naive, push=False)
    opt_stats, __ = run_and_count(optimized, push=True)
    # Selective query: the optimized mediator-side work should be at
    # least ~2x smaller (the naive plan re-evaluates the whole view).
    assert (
        opt_stats.get(statnames.OPERATOR_TUPLES) * 2
        < naive_stats.get(statnames.OPERATOR_TUPLES)
    )


def test_bench_naive_composition(benchmark):
    naive, __ = composed_plans(500)

    def run():
        return run_and_count(naive, push=False)[1]

    benchmark(run)


def test_bench_optimized_composition(benchmark):
    __, optimized = composed_plans(500)

    def run():
        return run_and_count(optimized, push=True)[1]

    benchmark(run)


def test_bench_rewrite_time(benchmark):
    """Cost of the rewriting itself (it must stay interactive)."""
    view = translate_query(VIEW_QUERY, root_oid="root")
    query = translate_query(COMPOSE_QUERY_TEMPLATE.format(threshold=500))

    def run():
        naive = compose_at_root(view, query, view_id="root")
        return Rewriter().rewrite(naive)

    benchmark(run)
