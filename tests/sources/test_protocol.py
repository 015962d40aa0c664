"""The one source protocol: every capability is a ``Source`` method.

Every wrapper answers every protocol method (a capability it lacks
answers its do-nothing default), and the two proxies forward what they
do not decorate to ``inner``, so a caller never probes for a method.
"""

import pytest

from repro import Mediator
from repro.errors import SourceError
from repro.relational.schema import TableSchema
from repro.resilience import (
    CircuitBreaker,
    FaultInjectingSource,
    ManualClock,
    ResilientSource,
    RetryPolicy,
)
from repro.sources import (
    MediatorSource,
    Source,
    SourceProxy,
    SqliteWrapper,
    XmlFileSource,
)
from repro.workloads import build_sharded_customers_orders
from tests.conftest import FIG2_SQL, Q1, make_paper_wrapper

ORDERS_SQL = "SELECT * FROM orders WHERE value > 1000"


def sqlite_wrapper():
    wrapper = SqliteWrapper(server_name="s")
    for sql in FIG2_SQL:
        wrapper.run(sql)
    return (
        wrapper.register_document("root1", "customer")
        .register_document("root2", "orders", element_label="order")
    )


def xml_source():
    return XmlFileSource().add_text("d", "<list><a>1</a><b>2</b></list>")


def mediator_source():
    lower = Mediator().add_source(make_paper_wrapper())
    return MediatorSource(lower).register_view("v", Q1)


def sharded_source():
    return build_sharded_customers_orders(
        shards=2, n_customers=3, orders_per_customer=2
    ).sharded


def resilient_source():
    clock = ManualClock()
    return ResilientSource(
        make_paper_wrapper(),
        retry=RetryPolicy(attempts=2, sleep=clock.sleep),
        breaker=CircuitBreaker(clock=clock),
    )


def faulty_source():
    return FaultInjectingSource(make_paper_wrapper())


def bare_proxy():
    return SourceProxy(make_paper_wrapper())


SOURCES = {
    "relational": make_paper_wrapper,
    "sqlite": sqlite_wrapper,
    "xml": xml_source,
    "mediator": mediator_source,
    "sharded": sharded_source,
    "resilient": resilient_source,
    "faulty": faulty_source,
    "proxy": bare_proxy,
}

PROXIES = ("resilient", "faulty", "proxy")


@pytest.fixture(params=sorted(SOURCES))
def source(request):
    source = SOURCES[request.param]()
    yield source
    if hasattr(source, "close"):
        source.close()


def test_every_protocol_method_answers(source):
    assert isinstance(source, Source)
    doc_id = source.document_ids()[0]
    assert list(source.iter_document_children(doc_id))
    for configure in (
        lambda: source.set_block_size(4),
        lambda: source.set_cost_optimizer(True),
        lambda: source.enable_sql_cache(8),
    ):
        assert configure() is source
    hash(source.data_version())
    table = source.table_for_document(doc_id)
    if source.supports_sql():
        assert isinstance(source.server_name, str)
        assert isinstance(source.label_for_document(doc_id), str)
        assert isinstance(source.describe_table(table), TableSchema)
        assert len(source.execute_sql("SELECT * FROM orders").fetchall())
        assert source.table_statistics(table) is None  # never analyzed
        assert source.estimate_sql(ORDERS_SQL) is None
        assert source.analyze() >= 2
        assert source.table_statistics(table) is not None
        # SQLite keeps statistics for pruning but estimates nothing.
        estimate = source.estimate_sql(ORDERS_SQL)
        assert (estimate is None) == isinstance(source, SqliteWrapper)
    else:
        assert source.server_name is None
        assert table is None
        assert source.label_for_document(doc_id) is None
        with pytest.raises(SourceError):
            source.describe_table("t")
        with pytest.raises(SourceError):
            source.execute_sql("SELECT 1")
        assert source.analyze() is None
        assert source.table_statistics("t") is None
        assert source.estimate_sql("SELECT 1") is None
        versioned = source.data_version() is not None
        assert versioned == isinstance(source, XmlFileSource)
    health = source.health()
    assert set(health) <= {"cache", "shard", "resilience"}
    assert all("source" in fields for fields in health.values())


def test_the_base_defaults_do_nothing():
    source = Source()
    with pytest.raises(NotImplementedError):
        source.document_ids()
    with pytest.raises(NotImplementedError):
        source.iter_document_children("d")
    assert source.server_name is None
    assert not source.supports_sql()
    assert source.table_for_document("d") is None
    assert source.label_for_document("d") is None
    assert source.set_block_size(4) is source
    assert source.set_cost_optimizer(False) is source
    assert source.enable_sql_cache(8) is source
    assert source.data_version() is None
    assert source.analyze() is None
    assert source.table_statistics("t") is None
    assert source.estimate_sql("SELECT 1") is None
    assert source.health() == {}


@pytest.mark.parametrize("name", PROXIES)
def test_a_proxy_answers_what_its_inner_source_answers(name):
    proxy = SOURCES[name]()
    inner = proxy.inner
    assert isinstance(proxy, SourceProxy)
    proxy.enable_sql_cache(8)
    assert proxy.analyze() == 2
    list(proxy.iter_document_children("root1"))
    proxy.execute_sql(ORDERS_SQL).fetchall()
    assert proxy.data_version() == inner.data_version()
    for table in ("customer", "orders"):
        stats = proxy.table_statistics(table)
        assert stats is not None and stats == inner.table_statistics(table)
    assert proxy.estimate_sql(ORDERS_SQL) == inner.estimate_sql(ORDERS_SQL)
    assert proxy.estimate_sql(ORDERS_SQL) is not None
    health = proxy.health()
    assert health["cache"]["misses"] == 2
    own = health.pop("resilience", None)
    assert health == inner.health()
    assert (own is not None) == (name == "resilient")
    assert proxy.server_name == inner.server_name == "s"
    assert proxy.table_for_document("root2") == "orders"
    assert proxy.label_for_document("root2") == "order"
    assert proxy.describe_table("orders") is inner.describe_table("orders")


@pytest.mark.parametrize("name", PROXIES)
def test_a_proxy_configures_its_inner_source(name):
    proxy = SOURCES[name]()
    inner = proxy.inner
    assert proxy.set_block_size(16) is proxy
    assert inner._block_size == 16
    proxy.set_cost_optimizer(False)
    assert inner.database.optimizer is False
    proxy.enable_sql_cache(8)
    assert inner.sql_cache is not None


@pytest.mark.parametrize("name", PROXIES)
def test_wrapper_specific_surface_passes_through(name):
    proxy = SOURCES[name]()
    assert proxy.oid_to_key("customer", "&XYZ") == ["XYZ"]
    assert proxy.sql_cache is None
