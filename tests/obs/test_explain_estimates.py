"""EXPLAIN's ``est=`` column and its golden-stability gating.

Estimates appear only when the mediator's cost optimizer is on *and*
every table a pushed query touches has fresh ``ANALYZE`` statistics.
That gate is what keeps the seed's explain goldens byte-identical: a
never-analyzed mediator (the default) renders exactly the old
``[tuples=N]`` annotations, with or without ``--no-optimizer``.
"""

from __future__ import annotations

import re

from tests.conftest import Q1, make_paper_wrapper
from tests.obs.test_explain_golden import GOLDEN_Q1_EXPLAIN

from repro import Mediator


def test_no_optimizer_explain_is_byte_identical_to_golden():
    # block_size=1: the goldens are tuple-mode output (block mode adds
    # a "-- block:" footer line).
    mediator = Mediator(cost_optimizer=False, block_size=1).add_source(
        make_paper_wrapper()
    )
    assert mediator.explain(Q1, mask_times=True) == GOLDEN_Q1_EXPLAIN


def test_unanalyzed_mediator_shows_no_estimates():
    mediator = Mediator(block_size=1).add_source(make_paper_wrapper())
    text = mediator.explain(Q1, mask_times=True)
    assert text == GOLDEN_Q1_EXPLAIN
    assert "est=" not in text


def test_analyze_sources_reports_per_server_counts():
    mediator = Mediator().add_source(make_paper_wrapper())
    assert mediator.analyze_sources() == {"s": 2}


def test_analyzed_explain_carries_estimates():
    mediator = Mediator().add_source(make_paper_wrapper())
    mediator.analyze_sources()
    text = mediator.explain(Q1, mask_times=True)
    assert "est=" in text and "act=" in text
    # The rQ leaf (the pushed SQL) is where estimates originate.
    rq_line = next(
        line for line in text.splitlines() if "rQ(" in line
    )
    assert "est=" in rq_line


def test_estimates_track_actuals_on_paper_workload():
    mediator = Mediator().add_source(make_paper_wrapper())
    mediator.analyze_sources()
    text = mediator.explain(Q1, mask_times=True)
    for est, act in re.findall(r"est=(\d+) act=(\d+)", text):
        est, act = int(est), int(act)
        # Within an order of magnitude on the tiny paper instance.
        assert max(act, 1) / 10 <= max(est, 1) <= max(act, 1) * 10


def test_estimates_vanish_after_dml():
    """A write stales the statistics; the next EXPLAIN falls back to
    the seed's exact annotation format."""
    wrapper = make_paper_wrapper()
    mediator = Mediator().add_source(wrapper)
    mediator.analyze_sources()
    assert "est=" in mediator.explain(Q1, mask_times=True)
    wrapper.database.run(
        "INSERT INTO orders VALUES (99, 'C1', 123)"
    )
    text = mediator.explain(Q1, mask_times=True)
    assert "est=" not in text


def test_plan_lines_identical_with_and_without_estimates():
    """The est= column is annotation-only: operator tree and pushed SQL
    are unchanged by ANALYZE on this workload."""
    plain = Mediator().add_source(make_paper_wrapper())
    analyzed = Mediator().add_source(make_paper_wrapper())
    analyzed.analyze_sources()

    def ops(mediator):
        return [
            line.split("   [")[0]
            for line in mediator.explain(Q1, mask_times=True).splitlines()
            if not line.startswith("--")
        ]

    assert ops(plain) == ops(analyzed)
