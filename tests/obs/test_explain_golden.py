"""Golden-trace snapshots of the Fig. 22 pushdown plan.

``EXPLAIN ANALYZE`` of the running-example view (Q1) over the paper's
database must be byte-identical across runs once wall times are masked.
The snapshot pins the whole observable shape of the optimized pipeline:
the operator tree after the Table-2 rewrite, the exact SQL pushed to the
source (Fig. 22), and the per-operator tuple counts.  Any silent change
to the rewriter, the pushdown, or the engines' tuple flow breaks it.
"""

from __future__ import annotations

import pytest

from tests.conftest import Q1, make_paper_wrapper

from repro import Mediator

GOLDEN_Q1_EXPLAIN = """\
tD($V9, view1)   [tuples=3]
  crElt(CustRec, f($C), $W8, $V9)   [tuples=3]
    cat(list($C), $Z7, $W8)   [tuples=3]
      apply(p, $X5, $Z7)   [tuples=3]
        p:
          tD($V6)   [tuples=4]
            crElt(OrderInfo, g($O), list($O), $V6)   [tuples=4]
              nSrc($X5)   [tuples=4]
        gBy($C, $X5)   [tuples=3]
          rQ(s, <sql>, {$C={1,2,3}; $O={4,5,6}})   [tuples=4]
              sql: SELECT c1.id, c1.name, c1.addr, o1.orid, o1.cid, o1.value FROM customer c1, orders o1 WHERE c1.id = o1.cid ORDER BY c1.id, o1.orid
-- tuples=24 rq_statements=1
-- plan_cache: off
-- verified: 2 stages"""

GOLDEN_Q1_EXPLAIN_WARM_FOOTER = """\
-- tuples=24 rq_statements=1
-- plan_cache: hit
-- verified: 2 stages
-- cache[s]: hits=1 misses=0 evictions=0 invalidations=0 \
tuples_shipped=0 tuples_from_cache=4"""


def fresh_mediator(block_size=1):
    # A fresh mediator pins the view counter (view1) and the
    # translator's variable/skolem numbering, making output exact.
    # block_size=1 is the seed's tuple-at-a-time mode the goldens were
    # captured in (block mode adds a "-- block:" footer line).
    return Mediator(block_size=block_size).add_source(make_paper_wrapper())


def test_explain_analyze_matches_golden():
    assert fresh_mediator().explain(Q1, mask_times=True) == GOLDEN_Q1_EXPLAIN


@pytest.mark.parametrize("block_size", [1, 2, 7, 64, 1024])
def test_explain_analyze_is_stable_across_runs(block_size):
    first = fresh_mediator(block_size).explain(Q1, mask_times=True)
    second = fresh_mediator(block_size).explain(Q1, mask_times=True)
    assert first == second
    # The block footer appears exactly when blocks are wider than one.
    if block_size == 1:
        assert "-- block:" not in first
    else:
        assert "-- block: size={} ".format(block_size) in first


def test_explain_unmasked_carries_times():
    text = fresh_mediator().explain(Q1)
    assert " time=" in text
    # Everything except the time annotations must match the golden.
    import re

    stripped = re.sub(r" time=[0-9.]+ms", "", text)
    assert stripped == GOLDEN_Q1_EXPLAIN


def test_eager_mediator_explains_with_same_plan_shape():
    mediator = Mediator(lazy=False).add_source(make_paper_wrapper())
    text = mediator.explain(Q1, mask_times=True)
    # Same plan lines; eager counts include never-walked branches, so
    # only the structural prefix of each line is compared.
    golden_ops = [
        line.split("   [")[0]
        for line in GOLDEN_Q1_EXPLAIN.splitlines()
        if not line.startswith("--")
    ]
    ours = [
        line.split("   [")[0]
        for line in text.splitlines()
        if not line.startswith("--")
    ]
    assert ours == golden_ops


def test_warm_explain_matches_golden_footer():
    """Second EXPLAIN of the same query on a caching mediator: the plan
    comes from the plan cache and every row from the SQL result cache —
    zero tuples cross the source boundary."""
    mediator = Mediator(cache=True, block_size=1).add_source(
        make_paper_wrapper()
    )
    cold = mediator.explain(Q1, mask_times=True)
    assert "-- plan_cache: miss" in cold
    assert "tuples_shipped=4" in cold
    warm = mediator.explain(Q1, mask_times=True)
    assert warm.endswith(GOLDEN_Q1_EXPLAIN_WARM_FOOTER)
    # The plan tree itself is byte-identical between cold and warm.
    plan_lines = [
        line for line in cold.splitlines() if not line.startswith("--")
    ]
    warm_lines = [
        line for line in warm.splitlines() if not line.startswith("--")
    ]
    assert plan_lines == warm_lines


def test_golden_trace_json_is_stable():
    """The masked JSON trace of a fresh ``d`` navigation is identical
    across two fresh builds of the same mediator."""
    from repro.obs import trace_to_json

    def one_trace():
        mediator = fresh_mediator()
        root = mediator.query(Q1)
        mediator.stats.clear_traces()
        root.d()
        return trace_to_json(mediator.stats.last_trace(), mask_times=True)

    assert one_trace() == one_trace()
