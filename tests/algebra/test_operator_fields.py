"""The methods every operator derives from its field declaration.

``children``, ``with_children``, ``rename_local``, ``signature``,
``used_vars`` and ``local_defined_vars`` are read off one declaration
per class; these tests hold them to it over a corpus with every class.
"""

import pytest

from repro.algebra import operators as ops
from repro.algebra.conditions import Condition
from repro.algebra.plan import iter_operators
from repro.algebra.translator import translate_query
from repro.analysis.rulecheck import generate_corpus
from repro.composer import compose_at_root
from repro.errors import PlanError
from repro.obs.tokens import node_token
from repro.rewriter import Rewriter, push_to_sources
from repro.sources import SourceCatalog
from repro.xmltree.paths import Path
from tests.conftest import Q1, Q12, make_paper_wrapper

OPERATOR_CLASSES = {
    cls for cls in vars(ops).values()
    if isinstance(cls, type) and issubclass(cls, ops.Operator)
    and cls is not ops.Operator
}


def _figure_plans():
    """Figs. 13-22: the naive composition, each rewriting step, the
    rewritten plan and its SQL split."""
    naive = compose_at_root(
        translate_query(Q1, root_oid="rootv"), translate_query(Q12)
    )
    trace = []
    rewritten = Rewriter().rewrite(naive, trace=trace)
    catalog = SourceCatalog().register(make_paper_wrapper())
    return ([naive] + [step.plan for step in trace]
            + [rewritten, push_to_sources(rewritten, catalog)])


def _corpus_nodes():
    plans = [entry.plan for entry in generate_corpus()] + _figure_plans()
    nodes = {}
    for plan in plans:
        for node in iter_operators(plan):
            nodes[id(node)] = node
    return list(nodes.values())


NODES = _corpus_nodes()


def _comparable(value):
    """A field value in a form ``==`` compares structurally."""
    if isinstance(value, ops.RQVar):
        return value.signature()
    if isinstance(value, tuple):
        return tuple(_comparable(item) for item in value)
    if isinstance(value, ops.Operator):
        return id(value)
    return value


def _fields(node):
    return [(name, _comparable(getattr(node, name))) for name, _, _ in node._fields]


def _signature_vars(value):
    """Every variable spelled in a signature."""
    if isinstance(value, str):
        return {value} if value.startswith("$") else set()
    if isinstance(value, tuple):
        return set().union(*map(_signature_vars, value))
    if isinstance(value, Condition):
        return value.variables()
    return set()


def test_the_corpus_covers_every_operator_class():
    assert {type(node) for node in NODES} == OPERATOR_CLASSES


@pytest.mark.parametrize("copy", [
    lambda node: node.with_children(node.children),
    lambda node: node.rename_local({}),
    lambda node: node.replace(),
], ids=["with_children", "rename_local", "replace"])
def test_a_copy_keeps_every_field_and_no_memo(copy):
    for node in NODES:
        token = node_token(node)
        if isinstance(node, ops.RelQuery):
            assert node.display_sql  # memoised on the node
        twin = copy(node)
        assert twin is not node
        assert type(twin) is type(node)
        assert twin.signature() == node.signature()
        assert _fields(twin) == _fields(node)
        assert twin.children == node.children
        assert twin.nested_plans == node.nested_plans
        assert node_token(twin) != token
        assert twin._shape is None
        if isinstance(twin, ops.RelQuery):
            assert twin._display is None


def test_a_renaming_changes_exactly_the_reported_variables():
    for node in NODES:
        used, defined = node.used_vars(), node.local_defined_vars()
        mentioned = used | defined
        assert _signature_vars(node.signature()) <= mentioned, node
        mapping = {var: var + "_r" for var in mentioned}
        mapping["$not_in_the_node"] = "$unused"
        renamed = node.rename_local(mapping)
        assert renamed.used_vars() == {mapping[v] for v in used}
        assert renamed.local_defined_vars() == {mapping[v] for v in defined}
        back = {new: old for old, new in mapping.items()}
        assert renamed.rename_local(back).signature() == node.signature()
        for name, role, _ in node._fields:
            if role.rename is None:
                assert _comparable(getattr(renamed, name)) == \
                    _comparable(getattr(node, name))


def test_rq_rename_keeps_each_entry_kind():
    rq = ops.RelQuery(
        "s", "SELECT c1.id, c1.name FROM customer c1",
        [ops.RQVar("$I", "id", [(0, "id")], (), kind="field"),
         ops.RQVar("$N", "name", [(1, "name")], (), kind="leaf")],
    )
    renamed = rq.rename_local({"$I": "$J", "$N": "$M"})
    assert [(e.var, e.kind) for e in renamed.varmap] == [
        ("$J", "field"), ("$M", "leaf")
    ]


def test_with_children_takes_one_sub_plan_per_child():
    leaf = ops.MkSrc("root1", "$K")
    with pytest.raises(PlanError):
        leaf.with_children((ops.MkSrc("root2", "$L"),))
    getd = ops.GetD("$K", Path.of("a"), "$A", leaf)
    with pytest.raises(PlanError):
        getd.with_children(())
