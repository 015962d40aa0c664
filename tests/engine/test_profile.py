"""Per-operator tuple counts: the ``rows`` of the operator spans keyed on
``node_token(op)``, summed over the trace the evaluation ran under, and
rendered by ``render_explain`` (what ``Mediator.explain`` prints)."""

import pytest

from repro.algebra import TD, Apply, GetD, MkSrc
from repro.algebra.translator import translate_query
from repro.composer import compose_at_root
from repro.engine import EagerEngine, LazyEngine
from repro.engine.vtree import VNode, walk_fully
from repro.obs import Instrument, node_token
from repro.obs.explain import render_explain
from repro.rewriter import Rewriter
from repro.sources import SourceCatalog
from repro.xmltree.paths import Path
from tests.conftest import Q1, Q12, make_paper_wrapper


@pytest.fixture
def catalog():
    return SourceCatalog().register(make_paper_wrapper())


def count(trace, op):
    token = node_token(op)
    return sum(span.rows for span in trace.iter_spans() if span.key == token)


def total(trace):
    return sum(span.rows for span in trace.iter_spans())


def traced_eager(catalog, plan):
    inst = Instrument()
    with inst.command_span("explain", kind="explain") as trace:
        EagerEngine(catalog, stats=inst).evaluate_tree(plan)
    return inst, trace


class TestProfiler:
    def test_eager_counts_per_operator(self, catalog):
        plan = translate_query(Q1, root_oid="v")
        __, trace = traced_eager(catalog, plan)
        # The join produced 4 tuples (matched customer/order pairs).
        join = plan.input.input.input.input.input  # down to the join
        assert count(trace, join) == 4
        # The gBy produced 3 groups.
        gby = plan.input.input.input.input
        assert count(trace, gby) == 3

    def test_lazy_counts_track_navigation(self, catalog):
        inst = Instrument()
        plan = translate_query(
            "FOR $C IN document(root1)/customer RETURN $C", root_oid="v"
        )
        engine = LazyEngine(catalog, stats=inst)
        getd = plan.input
        # One session span, so every navigation nests in one trace.
        with inst.command_span("session") as trace:
            root = VNode.root(engine.evaluate_tree(plan), obs=inst)
            assert count(trace, getd) == 0  # nothing ran yet
            root.down()
            assert count(trace, getd) == 1
            walk_fully(root)
            assert count(trace, getd) == 3

    def test_render_profile(self, catalog):
        plan = translate_query(Q1, root_oid="v")
        __, trace = traced_eager(catalog, plan)
        text = render_explain(plan, trace, mask_times=True)
        assert "[tuples=4]" in text      # the join
        assert "[tuples=3]" in text      # the group-by
        assert "tD(" in text
        assert "[tuples" not in render_explain(plan)  # plain EXPLAIN

    def test_profile_shows_rewrite_win(self):
        # The rule-9 copy branch costs a little extra on a toy database;
        # the rewrite's win shows at scale, so profile a larger instance.
        from tests.conftest import make_scaled_wrapper

        def scaled_catalog():
            return SourceCatalog().register(make_scaled_wrapper(60, 5))

        view = translate_query(Q1, root_oid="rootv")
        naive = compose_at_root(view, translate_query(Q12))
        optimized = Rewriter().rewrite(
            compose_at_root(
                translate_query(Q1, root_oid="rootv"),
                translate_query(Q12),
            )
        )
        __, t_naive = traced_eager(scaled_catalog(), naive)
        __, t_opt = traced_eager(scaled_catalog(), optimized)
        assert total(t_opt) < total(t_naive)

    def test_reset(self, catalog):
        inst, trace = traced_eager(catalog, translate_query(Q1, root_oid="v"))
        assert total(trace) > 0
        assert inst.last_trace() is trace
        inst.reset()
        assert inst.last_trace() is None  # the per-node record goes too
        assert inst.get("operator_tuples") == 0

    @pytest.mark.parametrize("width", [1, 3, 64])
    def test_set_valued_root_td_exports_count_on_its_span(
        self, catalog, width
    ):
        # Every customer carries the set of all orders; the root tD
        # exports the 3 x 4 items of those sets, one span entry each.
        orders = GetD("$J", Path.of("order"), "$O", MkSrc("root2", "$J"))
        customers = GetD(
            "$K", Path.of("customer"), "$C", MkSrc("root1", "$K")
        )
        plan = TD("$L", Apply(TD("$O", orders), None, "$L", customers))
        inst = Instrument()
        engine = LazyEngine(catalog, stats=inst, block_size=width)
        with inst.command_span("explain", kind="explain") as trace:
            walk_fully(VNode.root(
                engine.evaluate_tree(plan), obs=inst, prefetch=width
            ))
        token = node_token(plan)
        assert all(span.name == "tD" for span in trace.iter_spans()
                   if span.key == token)
        assert render_explain(plan, trace, mask_times=True) == "\n".join([
            "tD($L)   [tuples=12]",
            "  apply(p, null, $L)   [tuples=3]",
            "    p:",
            "      tD($O)   [tuples=12]",
            "        getD($J.order, $O)   [tuples=12]",
            "          mksrc(root2, $J)   [tuples=12]",
            "    getD($K.customer, $C)   [tuples=3]",
            "      mksrc(root1, $K)   [tuples=3]",
        ])
