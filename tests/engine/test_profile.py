"""Per-operator tuple counts: ``Instrument.node_count(node_token(op))``
on the engine's instrument, rendered by ``render_explain`` (what
``Mediator.explain`` prints)."""

import pytest

from repro.algebra.translator import translate_query
from repro.composer import compose_at_root
from repro.engine import EagerEngine, LazyEngine
from repro.engine.vtree import VNode, walk_fully
from repro.obs import Instrument, node_token
from repro.obs.explain import render_explain
from repro.rewriter import Rewriter
from repro.sources import SourceCatalog
from tests.conftest import Q1, Q12, make_paper_wrapper


@pytest.fixture
def catalog():
    return SourceCatalog().register(make_paper_wrapper())


def count(inst, op):
    return inst.node_count(node_token(op))


def total(inst):
    return sum(inst.node_counts().values())


class TestProfiler:
    def test_eager_counts_per_operator(self, catalog):
        inst = Instrument()
        plan = translate_query(Q1, root_oid="v")
        EagerEngine(catalog, stats=inst).evaluate_tree(plan)
        # The join produced 4 tuples (matched customer/order pairs).
        join = plan.input.input.input.input.input  # down to the join
        assert count(inst, join) == 4
        # The gBy produced 3 groups.
        gby = plan.input.input.input.input
        assert count(inst, gby) == 3

    def test_lazy_counts_track_navigation(self, catalog):
        inst = Instrument()
        plan = translate_query(
            "FOR $C IN document(root1)/customer RETURN $C", root_oid="v"
        )
        engine = LazyEngine(catalog, stats=inst)
        root = VNode.root(engine.evaluate_tree(plan))
        getd = plan.input
        assert count(inst, getd) == 0  # nothing ran yet
        root.down()
        assert count(inst, getd) == 1
        walk_fully(root)
        assert count(inst, getd) == 3

    def test_render_profile(self, catalog):
        inst = Instrument()
        plan = translate_query(Q1, root_oid="v")
        EagerEngine(catalog, stats=inst).evaluate_tree(plan)
        text = render_explain(plan, inst, mask_times=True)
        assert "[tuples=4]" in text      # the join
        assert "[tuples=3]" in text      # the group-by
        assert "tD(" in text

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
        i_naive, i_opt = Instrument(), Instrument()
        EagerEngine(scaled_catalog(), stats=i_naive).evaluate_tree(naive)
        EagerEngine(scaled_catalog(), stats=i_opt).evaluate_tree(optimized)
        assert total(i_opt) < total(i_naive)

    def test_reset(self):
        inst = Instrument()
        inst.record_node(node_token(object(), {}), 5)
        assert total(inst) == 5
        inst.reset()
        assert total(inst) == 0
