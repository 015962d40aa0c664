"""Regeneration of the paper's figures (DESIGN.md rows F2-F22).

Run with ``pytest benchmarks/test_figures.py -s`` to see every artifact
printed next to an assertion of its structure.  These are the paper's
"results": the venue paper has no quantitative tables, its evaluation is
this worked example.
"""

from __future__ import annotations

import pytest

from repro import render_plan
from repro.algebra import (
    BindingSet,
    BindingTuple,
    CrElt,
    GroupBy,
    MkSrc,
    RelQuery,
    Select,
    SemiJoin,
    VList,
    bindings_to_tree,
)
from repro.algebra.plan import find_operators
from repro.algebra.translator import translate_query
from repro.algebra.values import Skolem
from repro.composer import compose_at_root, decontextualize
from repro.engine.eager import EagerEngine
from repro.engine.lazy import LazyEngine
from repro.engine.vtree import VNode
from repro.rewriter import Rewriter, push_to_sources
from repro.sources import SourceCatalog
from repro.xmltree import leaf, serialize
from repro.xmltree.tree import Node
from tests.conftest import Q1, Q8, Q12, make_paper_wrapper


@pytest.fixture
def catalog():
    return SourceCatalog().register(make_paper_wrapper())


def fig2_document(catalog, doc_id):
    """Fig. 2's document: a ``list`` root over the exported children."""
    return Node("&" + doc_id, "list", catalog.iter_children(doc_id))


def test_fig2_xml_database(catalog):
    """Fig. 2: the XML equivalent of the relational database."""
    root1 = serialize(fig2_document(catalog, "root1"), indent=2,
                      show_oids=True)
    root2 = serialize(fig2_document(catalog, "root2"), indent=2,
                      show_oids=True)
    print("\n-- Fig. 2, document &root1 --\n" + root1)
    print("\n-- Fig. 2, document &root2 --\n" + root2)
    assert "&XYZ" in root1 and "LosAngeles" in root1
    assert "&28904" in root2 and "2400" in root2


def test_fig5_binding_list_tree():
    """Fig. 5: the tree representation of a set of binding lists."""
    binding_set = BindingSet(
        [
            BindingTuple(
                {
                    "$A": leaf("a1"),
                    "$B": VList([leaf("e1"), leaf("e2")]),
                    "$C": BindingSet(
                        [
                            BindingTuple({"$D": leaf("d11")}),
                            BindingTuple({"$D": leaf("d12")}),
                        ]
                    ),
                }
            ),
            BindingTuple(
                {
                    "$A": leaf("a2"),
                    "$B": VList([leaf("f1"), leaf("f2"), leaf("f3")]),
                    "$C": BindingSet([BindingTuple({"$D": leaf("d21")})]),
                }
            ),
        ]
    )
    tree = bindings_to_tree(binding_set, root_label="set")
    print("\n-- Fig. 5 --\n" + tree.pretty())
    assert tree.label == "set"
    assert len(tree.children) == 2


def test_fig6_view_plan():
    """Fig. 6: the XMAS plan for the Fig. 3 query."""
    plan = translate_query(Q1, root_oid="rootv")
    rendered = render_plan(plan)
    print("\n-- Fig. 6 --\n" + rendered)
    for fragment in (
        "tD($", "crElt(CustRec, f($C)", "cat(list($C)", "apply(p",
        "gBy($C", "crElt(OrderInfo, g($O), list($O)", "nSrc(",
        "join($", "getD($C.customer.id", "getD($O.order.cid",
        "mksrc(root1", "mksrc(root2",
    ):
        assert fragment in rendered, fragment


def test_fig7_result_tree(catalog):
    """Fig. 7: the query result with skolem object ids."""
    plan = translate_query(Q1, root_oid="rootv")
    tree = EagerEngine(catalog).evaluate_tree(plan)
    rendered = serialize(tree, indent=2, show_oids=True)
    print("\n-- Fig. 7 --\n" + rendered)
    custrec = tree.children[0]
    assert isinstance(custrec.oid, Skolem)
    assert "f(" in repr(custrec.oid)
    orderinfo = custrec.children[1]
    assert "g(" in repr(orderinfo.oid)


def test_fig9_q8_plan():
    """Fig. 9: the plan for the in-place query of Fig. 8."""
    plan = translate_query(Q8)
    rendered = render_plan(plan)
    print("\n-- Fig. 9 --\n" + rendered)
    assert "mksrc(root" in rendered
    assert "> 2000" in rendered


def test_fig10_decontextualized_plan(catalog):
    """Fig. 10: the composed plan for Q8 issued from node y."""
    view = translate_query(Q1, root_oid="rootv")
    root = VNode.root(LazyEngine(catalog).evaluate_tree(view))
    node = root.down()
    composed = decontextualize(
        view, node.require_query_root(), translate_query(Q8)
    )
    rendered = render_plan(composed)
    print("\n-- Fig. 10 (query from node {}) --\n{}".format(
        node.node.oid, rendered
    ))
    assert "select(" in rendered and "= &" in rendered
    assert "crElt(CustRec" in rendered  # full view body present


def test_fig11_q12_plan():
    """Fig. 11: the plan for the composition query of Fig. 12."""
    plan = translate_query(Q12)
    rendered = render_plan(plan)
    print("\n-- Fig. 11 --\n" + rendered)
    assert "getD($R.CustRec.OrderInfo, $S)" in rendered
    assert "> 20000" in rendered


def test_fig13_naive_composition():
    """Fig. 13: the naive composition of Q12 with the view."""
    naive = compose_at_root(
        translate_query(Q1, root_oid="rootv"), translate_query(Q12)
    )
    rendered = render_plan(naive)
    print("\n-- Fig. 13 --\n" + rendered)
    nested_mksrcs = [
        op for op in find_operators(naive, MkSrc) if op.input is not None
    ]
    assert len(nested_mksrcs) == 1


def test_figs14_to_21_rewriting_trace():
    """Figs. 14-21: the step-by-step rewriting of the naive composition."""
    naive = compose_at_root(
        translate_query(Q1, root_oid="rootv"), translate_query(Q12)
    )
    trace = []
    optimized = Rewriter().rewrite(naive, trace=trace)
    print("\n-- Figs. 14-21: {} rewriting steps --".format(len(trace)))
    for i, step in enumerate(trace, 1):
        print("\n[step {}] {}".format(i, step.rule_name))
        print(render_plan(step.plan))
    # The milestones of the paper's walkthrough:
    fired = [s.rule_name for s in trace]
    assert any("rule 11" in n for n in fired)   # Fig 14
    assert any("rules 1-4" in n for n in fired)  # Fig 15
    assert any("rule 9" in n for n in fired)     # Fig 18
    assert any("live variables" in n for n in fired)  # Fig 20
    assert any("rule 12" in n for n in fired)    # Fig 21
    gbys = find_operators(optimized, GroupBy)
    assert any(isinstance(g.input, SemiJoin) for g in gbys)


def test_fig22_final_split(catalog):
    """Fig. 22: the split plan and the SQL pushed to the source."""
    naive = compose_at_root(
        translate_query(Q1, root_oid="rootv"), translate_query(Q12)
    )
    final = push_to_sources(Rewriter().rewrite(naive), catalog)
    rendered = render_plan(final)
    print("\n-- Fig. 22 --\n" + rendered)
    (rq,) = find_operators(final, RelQuery)
    # The paper's q1 (aliases may be numbered differently; we emit
    # DISTINCT where the paper's plain self-join would duplicate rows):
    assert "FROM customer c1, orders o1, customer c2, orders o2" in rq.sql
    assert "c1.id = o1.cid" in rq.sql
    assert "c2.id = o2.cid" in rq.sql
    assert "c1.id = c2.id" in rq.sql
    assert ".value > 20000" in rq.sql
    assert "ORDER BY" in rq.sql
    # The exported map covers $C and $O like the paper's m1.
    exported = {entry.var for entry in rq.varmap}
    assert len(exported) == 2


def test_fig22_sql_answer_matches(catalog):
    """The Fig. 22 plan computes the right answer end to end."""
    naive = compose_at_root(
        translate_query(Q1, root_oid="rootv"), translate_query(Q12)
    )
    final = push_to_sources(Rewriter().rewrite(naive), catalog)
    tree = EagerEngine(catalog).evaluate_tree(final)
    ids = sorted(
        c.find("customer").find("id").children[0].label
        for c in tree.children
    )
    assert ids == ["ABC", "DEF"]
