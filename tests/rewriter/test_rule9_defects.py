"""Three open defects of rule 9 (getD-into-apply), pinned until fixed.

All show on the pushed path of a ``q`` over a constructed view, on a
3 customers x 3 orders instance; the held answer
(:mod:`repro.qdom.local`) is not involved, as nothing is walked first.
Each test asserts the right answer and is a strict ``xfail``: the fix
turns it into a pass that must be un-marked.
"""

from __future__ import annotations

import pytest

from repro import Instrument, Mediator
from repro.errors import PlanError
from repro.workloads import build_customers_orders

JOIN_VIEW = (
    "FOR $C IN document(root1)/customer $O IN document(root2)/order "
    "WHERE $C/id/data() = $O/cid/data() "
    "RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}"
)
#: A view whose nested content mentions an outer variable again.
REMENTION_VIEW = (
    "FOR $C IN document(root1)/customer $O IN document(root2)/order "
    "WHERE $C/id/data() = $O/cid/data() "
    "RETURN <P> $C <Q> $O <W> $C </W> </Q> {$O} </P> {$C}"
)


def mediator():
    stats = Instrument()
    built = build_customers_orders(
        n_customers=3, orders_per_customer=3, stats=stats
    )
    return Mediator(stats=stats).add_source(built.wrapper)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "select-pushdown moves a select between apply and gBy, so rule 9 "
    "does not fire and the nested getD fans out"
))
def test_a_pushed_select_keeps_set_semantics():
    root = mediator().query(JOIN_VIEW)
    answer = root.q(
        "FOR $R IN document(root)/CustRec "
        'WHERE $R/customer/name/data() != "x" '
        "AND $R/OrderInfo/order/value/data() > 100 RETURN $R"
    )
    oids = [str(record.oid) for record in answer.children()]
    assert len(oids) == 3 and len(set(oids)) == 3, oids


@pytest.mark.xfail(strict=True, raises=PlanError, reason=(
    "rule 9's renamed copy loses the outer $C the nested content "
    "re-mentions: condition references unbound $C_c5"
))
def test_a_re_mentioned_outer_variable_stays_bound():
    root = mediator().query(REMENTION_VIEW)
    answer = root.q("FOR $R IN document(root)/P $U IN $R/Q/W RETURN $R")
    oids = [str(record.oid) for record in answer.children()]
    assert len(oids) == 3 and len(set(oids)) == 3, oids  # the held answer


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "decontextualization exports the constructed records of a "
    "node-level q from rule 9's renamed copy branch: &($V6_c7,g(&0)) "
    "for the view's &($V6,g(&0))"
))
def test_one_object_keeps_one_oid_across_answers():
    record = mediator().query(JOIN_VIEW).d()
    held = [str(child.oid) for child in record.children()
            if child.fl() == "OrderInfo"]
    assert held[0] == "&($V6,g(&0))", held
    answer = record.q("FOR $O IN document(root)/OrderInfo RETURN $O")
    oids = [str(child.oid) for child in answer.children()]
    assert oids == held, oids
