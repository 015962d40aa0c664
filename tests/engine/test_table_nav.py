"""Tests for the Section-4 operator-level navigation interface."""

import pytest

from repro import stats as statnames
from repro.errors import NavigationError
from repro.obs import Instrument
from repro.xmltree.paths import Path
from repro.algebra import GetD, GroupBy, MkSrc
from repro.algebra.translator import translate_query
from repro.engine.lazy import LazyEngine
from repro.engine.table_nav import OperatorTable
from repro.sources import SourceCatalog
from tests.conftest import Q1, make_paper_wrapper, make_scaled_wrapper


def engine_and_plan(plan_builder, stats=None):
    catalog = SourceCatalog().register(make_paper_wrapper(stats=stats))
    return LazyEngine(catalog, stats=stats), plan_builder()


def customers_plan():
    return GetD("$K", Path.of("customer"), "$C", MkSrc("root1", "$K"))


class TestSixCalls:
    def test_get_root_is_list(self):
        engine, plan = engine_and_plan(customers_plan)
        root = OperatorTable(engine, plan).get_root()
        assert root.fl() == "list"
        assert root.fv() is None

    def test_d_yields_binding_nodes(self):
        engine, plan = engine_and_plan(customers_plan)
        root = OperatorTable(engine, plan).get_root()
        binding = root.d()
        assert binding.fl() == "binding"
        assert binding.r().fl() == "binding"

    def test_binding_children_are_var_nodes(self):
        engine, plan = engine_and_plan(customers_plan)
        binding = OperatorTable(engine, plan).get_root().d()
        var_node = binding.d()
        assert var_node.fl() == "$C"
        assert var_node.r().fl() == "$K"
        assert var_node.r().r() is None

    def test_var_node_leads_to_value(self):
        engine, plan = engine_and_plan(customers_plan)
        var_node = OperatorTable(engine, plan).get_root().d().d()
        value = var_node.d()
        assert value.fl() == "customer"
        field = value.d()
        assert field.fl() == "id"
        leaf = field.d()
        assert leaf.fv() in ("XYZ", "DEF", "ABC")

    def test_f_jumps_to_attribute(self):
        engine, plan = engine_and_plan(customers_plan)
        binding = OperatorTable(engine, plan).get_root().d()
        value = binding.f("$C")
        assert value.fl() == "customer"

    def test_f_unknown_variable(self):
        engine, plan = engine_and_plan(customers_plan)
        binding = OperatorTable(engine, plan).get_root().d()
        with pytest.raises(NavigationError):
            binding.f("$NOPE")

    def test_f_only_on_bindings(self):
        engine, plan = engine_and_plan(customers_plan)
        root = OperatorTable(engine, plan).get_root()
        with pytest.raises(NavigationError):
            root.f("$C")


class TestGroupNavigation:
    def test_nested_set_renders_as_fig5(self):
        def plan():
            return GroupBy(("$C",), "$X", customers_plan())

        engine, built = engine_and_plan(plan)
        binding = OperatorTable(engine, built).get_root().d()
        group_value = binding.f("$X")
        assert group_value.fl() == "set"
        inner_binding = group_value.d()
        assert inner_binding.fl() == "binding"
        assert inner_binding.f("$C").fl() == "customer"


class TestLaziness:
    def test_get_root_pulls_nothing(self):
        stats = Instrument()
        catalog = SourceCatalog().register(
            make_scaled_wrapper(100, 0, stats=stats)
        )
        plan = customers_plan()
        OperatorTable(LazyEngine(catalog, stats=stats), plan).get_root()
        assert stats.get(statnames.TUPLES_SHIPPED) == 0

    def test_navigation_pulls_per_tuple(self):
        stats = Instrument()
        catalog = SourceCatalog().register(
            make_scaled_wrapper(100, 0, stats=stats)
        )
        plan = customers_plan()
        root = OperatorTable(
            LazyEngine(catalog, stats=stats), plan
        ).get_root()
        binding = root.d()
        assert stats.get(statnames.TUPLES_SHIPPED) == 1
        binding.r()
        assert stats.get(statnames.TUPLES_SHIPPED) == 2

    def test_whole_view_plan_navigable(self):
        engine, __ = engine_and_plan(customers_plan)
        plan = translate_query(Q1, root_oid="v")
        # Navigate the table of the operator *below* the tD.
        table = OperatorTable(engine, plan.input)
        binding = table.get_root().d()
        out_var = plan.input.out_var  # the crElt's CustRec variable
        assert binding.f(out_var).fl() == "CustRec"
