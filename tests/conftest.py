"""Shared fixtures: the paper's running-example database and mediator."""

from __future__ import annotations

import os

import pytest

from repro import Database, Instrument, Mediator, RelationalWrapper
from repro.errors import SourceError
from repro.resilience import FaultInjectingSource
from repro.sources import SourceCatalog

#: The one seed of every seeded test (CI runs 0, 1 and 2): the lattice
#: differential's example search, workloads and fault schedules, and
#: the server fuzz and stress mixes.
MIX_SEED = int(os.environ.get("MIX_SEED", "0"))

#: Fig. 3 — the running example view (Q1).
Q1 = """
FOR $C IN source(root1)/customer
    $O IN document(root2)/order
WHERE $C/id/data() = $O/cid/data()
RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}
"""

#: Fig. 12 — the composition example query.
Q12 = """
FOR $R IN document(rootv)/CustRec
    $S IN $R/OrderInfo
WHERE $S/order/value/data() > 20000
RETURN $R
"""

#: Fig. 8 — the in-place query issued from a CustRec node.
Q8 = """
FOR $O IN document(root)/OrderInfo
WHERE $O/order/value/data() > 2000
RETURN $O
"""


#: The Fig. 2 database (plus a third customer to exercise joins), as
#: SQL both the in-process engine and SQLite accept.
FIG2_SQL = (
    "CREATE TABLE customer (id TEXT, name TEXT, addr TEXT,"
    " PRIMARY KEY (id))",
    "CREATE TABLE orders (orid INT, cid TEXT, value INT,"
    " PRIMARY KEY (orid))",
    "INSERT INTO customer VALUES"
    " ('XYZ', 'XYZInc.', 'LosAngeles'),"
    " ('DEF', 'DEFCorp.', 'NewYork'),"
    " ('ABC', 'ABCInc.', 'SanDiego')",
    "INSERT INTO orders VALUES"
    " (28904, 'XYZ', 2400),"
    " (87456, 'ABC', 200000),"
    " (111, 'XYZ', 100),"
    " (222, 'DEF', 30000)",
)


def make_paper_db(stats=None):
    """The Fig. 2 database (plus a third customer to exercise joins)."""
    db = Database("paper", stats=stats)
    for sql in FIG2_SQL:
        db.run(sql)
    return db


def make_paper_wrapper(stats=None):
    db = make_paper_db(stats=stats)
    return (
        RelationalWrapper(db)
        .register_document("root1", "customer")
        .register_document("root2", "orders", element_label="order")
    )


def make_scaled_wrapper(n_customers, orders_per_customer, stats=None):
    """A scaled customers/orders database for traffic measurements."""
    db = Database("scaled", stats=stats)
    db.run(
        "CREATE TABLE customer (id TEXT, name TEXT, addr TEXT,"
        " PRIMARY KEY (id))"
    )
    db.run(
        "CREATE TABLE orders (orid INT, cid TEXT, value INT,"
        " PRIMARY KEY (orid))"
    )
    order_id = 0
    for i in range(n_customers):
        db.run(
            "INSERT INTO customer VALUES ('C{:05d}', 'Name{}', 'City{}')".format(
                i, i, i % 7
            )
        )
        for j in range(orders_per_customer):
            db.run(
                "INSERT INTO orders VALUES ({}, 'C{:05d}', {})".format(
                    order_id, i, 100 * (j + 1)
                )
            )
            order_id += 1
    return (
        RelationalWrapper(db)
        .register_document("root1", "customer")
        .register_document("root2", "orders", element_label="order")
    )


class DyingCursor:
    """A pushed cursor that delivers ``rows`` rows, then raises a
    permanent :class:`~repro.errors.SourceError` on every later fetch —
    a source connection lost mid-stream."""

    def __init__(self, inner, rows):
        self._inner = inner
        self._left = rows

    def fetch_block(self, size):
        if self._left <= 0:
            raise SourceError("pushed cursor died mid-stream", source="dying")
        out = self._inner.fetch_block(min(size, self._left))
        self._left -= len(out)
        return out

    def fetchone(self):
        out = self.fetch_block(1)
        return out[0] if out else None

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class DyingCursorSource(FaultInjectingSource):
    """A fault-injecting source whose every pushed cursor dies after
    ``rows`` rows (pull faults are scheduled as on its base class)."""

    def __init__(self, inner, rows, **kwargs):
        super().__init__(inner, **kwargs)
        self.rows = rows

    def execute_sql(self, sql, params=()):
        return DyingCursor(super().execute_sql(sql, params), self.rows)


@pytest.fixture
def paper_stats():
    return Instrument()


@pytest.fixture
def paper_db(paper_stats):
    return make_paper_db(stats=paper_stats)


@pytest.fixture
def paper_wrapper(paper_stats):
    return make_paper_wrapper(stats=paper_stats)


@pytest.fixture
def paper_catalog(paper_wrapper):
    return SourceCatalog().register(paper_wrapper)


@pytest.fixture
def paper_mediator(paper_wrapper, paper_stats):
    return Mediator(stats=paper_stats).add_source(paper_wrapper)
