"""The one lazy core at several widths, against the eager oracle.

There is one handler per operator, so the rarely planned shapes below
(``mksrc`` over a ``tD``, set-valued ``tD`` exports, nested lists under
``crElt``, theta and key joins, …) run the same code at width 1 as at
width 64.  Each plan is evaluated by the lazy engine at every width in
``WIDTHS`` and must serialize exactly as the eager engine's answer.
"""

import pytest

from repro.algebra import (
    TD,
    Apply,
    Cat,
    Condition,
    CrElt,
    Empty,
    GetD,
    GroupBy,
    Join,
    MkSrc,
    NestedSrc,
    SemiJoin,
)
from repro.engine.eager import EagerEngine
from repro.engine.lazy import LazyEngine
from repro.errors import EvaluationError, PlanError
from repro.sources import SourceCatalog
from repro.xmltree import serialize
from repro.xmltree.paths import Path
from tests.conftest import make_paper_wrapper

#: One-tuple blocks, a width that never divides the paper's 3/4-row
#: tables, and the mediator default.
WIDTHS = [1, 3, 64]


@pytest.fixture
def catalog():
    return SourceCatalog().register(make_paper_wrapper())


def customers(var="$C", src="$K"):
    return GetD(src, Path.of("customer"), var, MkSrc("root1", src))


def orders(var="$O", src="$J"):
    return GetD(src, Path.of("order"), var, MkSrc("root2", src))


def field(path, var, plan):
    in_var = plan.out_var
    return GetD(in_var, Path.parse(path), var, plan)


def assert_tree_matches_eager(catalog, plan):
    expected = serialize(EagerEngine(catalog).evaluate_tree(plan))
    for width in WIDTHS:
        engine = LazyEngine(catalog, block_size=width)
        got = serialize(engine.evaluate_tree(plan).copy_subtree())
        assert got == expected, "diverged at block_size={}".format(width)
    return expected


def test_mksrc_over_a_td_subplan(catalog):
    plan = TD("$X", MkSrc("v", "$X", TD("$C", customers())))
    assert assert_tree_matches_eager(catalog, plan).count("<customer>") == 3


def test_td_exports_a_nested_td_set(catalog):
    # Every customer carries the set of all orders; the outer tD
    # exports the items of those sets (3 x 4 orders).
    plan = TD("$L", Apply(TD("$O", orders()), None, "$L", customers()))
    assert assert_tree_matches_eager(catalog, plan).count("<order>") == 12


def test_crelt_flattens_nested_lists(catalog):
    # cat of two single-wrapped sets: a list whose items are lists.
    nested = Apply(TD("$O", orders()), None, "$L", customers())
    plan = TD("$E", CrElt(
        "R", "f", ("$C",), "$Z", False, "$E",
        Cat("$L", True, "$L", True, "$Z", nested),
    ))
    assert assert_tree_matches_eager(catalog, plan).count("<order>") == 24


def test_cat_of_single_nodes(catalog):
    plan = TD("$E", CrElt(
        "Pair", "f", ("$C",), "$Z", False, "$E",
        Cat("$C", False, "$C", False, "$Z", customers()),
    ))
    assert assert_tree_matches_eager(catalog, plan).count("<Pair>") == 3


def test_hash_join_with_the_condition_written_right_to_left(catalog):
    left = field("customer.id", "$I", customers())
    right = field("order.cid", "$D", orders())
    plan = TD("$O", Join((Condition.var_var("$D", "=", "$I"),), left, right))
    assert assert_tree_matches_eager(catalog, plan).count("<order>") == 4


def test_theta_join_runs_the_nested_loop(catalog):
    left = field("order.value", "$V", orders())
    right = field("order.value", "$W", orders("$P", "$Q"))
    plan = TD("$O", Join((Condition.var_var("$V", "<", "$W"),), left, right))
    # 4 distinct values: 3 + 2 + 1 + 0 strictly-smaller pairs.
    assert assert_tree_matches_eager(catalog, plan).count("<order>") == 6


def test_key_join_hashes_on_object_identity(catalog):
    plan = TD("$C", Join(
        (Condition.key_equals("$C", "$D"),), customers(),
        customers("$D", "$L"),
    ))
    assert assert_tree_matches_eager(catalog, plan).count("<customer>") == 3


def test_gby_below_a_semijoin_is_not_presorted(catalog):
    cond = Condition.var_var("$I", "=", "$D")
    plan = GroupBy(("$C",), "$G", SemiJoin(
        (cond,),
        field("customer.id", "$I", customers()),
        field("order.cid", "$D", orders()),
        keep="left",
    ))
    expected = len(EagerEngine(catalog).evaluate(plan))
    for width in WIDTHS:
        engine = LazyEngine(catalog, block_size=width)
        assert len(engine.stream(plan, {}).tuples) == expected == 3


def test_empty_and_rooted_td(catalog):
    for width in WIDTHS:
        engine = LazyEngine(catalog, block_size=width)
        root = engine.evaluate_tree(TD("$X", Empty(("$X",)), root_oid="&r"))
        assert root.oid == "&r" and root.child(0) is None


def test_non_td_root_is_a_stream_not_a_tree(catalog):
    for width in WIDTHS:
        engine = LazyEngine(catalog, block_size=width)
        assert len(engine.evaluate(customers()).tuples) == 3
        with pytest.raises(EvaluationError):
            engine.evaluate_tree(customers())


def test_plan_errors_surface_at_every_width(catalog):
    bad_child = TD("$E", CrElt(
        "R", "f", (), "$G", False, "$E",
        GroupBy(("$C",), "$G", customers()),
    ))
    for width in WIDTHS:
        engine = LazyEngine(catalog, block_size=width)
        with pytest.raises(PlanError):
            engine.stream(object(), {})
        with pytest.raises(EvaluationError):
            engine.stream(NestedSrc("$N"), {}).tuples
        with pytest.raises(EvaluationError):
            engine.evaluate_tree(bad_child).child(0)


def test_block_size_must_be_a_positive_int(catalog):
    for bad in (0, -1, 2.0, "64"):
        with pytest.raises(ValueError):
            LazyEngine(catalog, block_size=bad)
