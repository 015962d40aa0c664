"""One object per navigated node: a QDOM handle is the engine's VNode.

A node's Section-5 payload (``provenance()``) is derived from its parent
chain.  The reference here rebuilds it independently, the way the old
per-node payload was carried: a per-hop walk copies each parent's
bindings and adds the child's own skolem bindings (the root adds none).
"""

import pytest

from repro import Mediator
from repro.algebra.values import Skolem
from repro.engine.vtree import VNode
from repro.qdom import QdomNode, Session
from tests.conftest import Q1, Q8, make_paper_wrapper

MODES = [
    pytest.param({"block_size": 1}, id="tuple"),
    pytest.param({"block_size": 64}, id="block"),
    pytest.param({"lazy": False}, id="eager"),
]


def reference_walk(root):
    """``(node, parent, reference fixed)`` for every node below ``root``,
    reached by ``d``/``r`` hops."""
    out = []

    def visit(node, fixed):
        child = node.d()
        while child is not None:
            mine = dict(fixed)
            if isinstance(child.oid, Skolem):
                mine.update(child.oid.fixed_bindings())
            out.append((child, node, mine))
            visit(child, mine)
            child = child.r()

    visit(root, {})
    return out


def reference_var(node, fixed):
    """The variable a node id is addressed by, from the reference
    bindings."""
    if isinstance(node.oid, Skolem):
        return node.oid.var
    for var, key in fixed.items():
        if str(key) == str(node.oid):
            return var
    return None


def answers(mode):
    """The Fig. 7 view's root and a node-level ``q`` answer's root."""
    mediator = Mediator(**mode).add_source(make_paper_wrapper())
    view = mediator.query(Q1)
    return [view, view.d().q(Q8)]


@pytest.mark.parametrize("mode", MODES)
def test_provenance_equals_the_accumulated_reference(mode):
    for root in answers(mode):
        walked = reference_walk(root)
        assert walked
        assert root.provenance().fixed == {}
        for node, parent, fixed in walked:
            prov = node.provenance()
            assert prov.fixed == fixed
            assert list(prov.fixed) == list(fixed)
            assert prov.var == reference_var(node, fixed)
            assert node.parent is parent
            assert type(node) is QdomNode
            assert node.mediator is root.mediator
            assert node.view is root.view


@pytest.mark.parametrize("mode", MODES)
def test_one_object_per_step(mode):
    root = answers(mode)[0]
    first = root.d()
    assert type(first) is QdomNode and isinstance(first, VNode)
    assert type(first.r()) is QdomNode
    for children in (root.children(), root.d_many()):
        assert len(children) == 3
        assert all(child.parent is root for child in children)
        assert all(type(child) is QdomNode for child in children)
    assert not hasattr(first, "vnode")
    assert not {"fixed", "is_root"} & set(VNode.__slots__)


def test_session_up_returns_the_node_down_came_from():
    session = Session(Mediator().add_source(make_paper_wrapper())).open(Q1)
    root = session.current
    session.down()
    record = session.current
    assert record.parent is root
    session.into("customer")
    assert session.current.parent is record
    assert session.up().current is record
    assert session.up().current is root
    assert session.breadcrumbs() == ["list"]
