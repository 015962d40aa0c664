"""A slotted statement and its values answer like the bound text.

The plan cache compiles a query shape once and pushes its SQL with
``?N`` slots; every ``execute_sql(template, params)`` must then answer
exactly like ``execute_sql(bind_sql(template, params))`` — the same
columns, the same rows in the same order, the same work counted — on
every source that takes SQL, and a template is parsed once however
many values it runs with.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Mediator, stats as statnames
from repro.relational import parser
from repro.relational.ast import bind_sql
from repro.relational.parser import parse_sql, parse_statement
from repro.resilience import (
    FaultInjectingSource,
    ManualClock,
    ResilientSource,
    RetryPolicy,
)
from repro.sources import SourceProxy, SqliteWrapper
from repro.workloads import (
    build_customers_orders,
    build_sharded_customers_orders,
)

from tests.conftest import MIX_SEED

# -- the templates: what a cache-on mediator pushes ----------------------------------

#: The ``adhoc_compile`` session's texts (``%d`` is a per-session literal).
ADHOC_JOIN = (
    "FOR $C IN document(root1)/customer $O IN document(root2)/order "
    "WHERE $C/id/data() = $O/cid/data() AND $O/orid/data() < %d "
    "RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}"
)
ADHOC_REFINE = (
    "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
    "WHERE $S/order/value/data() > 100 AND $S/order/orid/data() < %d "
    "RETURN $R"
)
ADHOC_FILTER = (
    "FOR $O IN document(root2)/order "
    "WHERE $O/value/data() > 100 AND $O/orid/data() < %d "
    "RETURN <Big> $O </Big>"
)
ADHOC_NODE_Q = (
    "FOR $O IN document(root)/OrderInfo WHERE $O/order/orid/data() < %d "
    "RETURN $O"
)
#: The ``bbq_served`` refinement, from the root of the Fig.-3 view.
JOIN_VIEW = (
    "FOR $C IN document(root1)/customer $O IN document(root2)/order "
    "WHERE $C/id/data() = $O/cid/data() "
    "RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}"
)
BBQ_REFINE = (
    "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
    "WHERE $S/order/value/data() > %d RETURN $R"
)


class Recording(SourceProxy):
    """Records every ``(sql, params)`` pushed through it."""

    def __init__(self, inner):
        super().__init__(inner)
        self.pushed = []

    def execute_sql(self, sql, params=()):
        self.pushed.append((sql, params))
        return super().execute_sql(sql, params)


def adhoc_session(mediator, base):
    """One ``adhoc_compile``-shaped session."""
    root = mediator.query(ADHOC_JOIN % base)
    rec = root.d()
    rec.fl()
    rec.r().fl()
    root.q(ADHOC_REFINE % (base + 1)).d()
    mediator.query(ADHOC_FILTER % (base + 2)).d().children()
    rec.q(ADHOC_NODE_Q % (base + 3)).d()


def bbq_refinement(mediator, threshold):
    mediator.query(JOIN_VIEW).q(BBQ_REFINE % threshold).d()


@functools.lru_cache(maxsize=None)
def templates():
    """``{template: slot count}`` of the five ``adhoc_compile``
    templates and the ``bbq_served`` refinement."""
    built = build_customers_orders(n_customers=8, orders_per_customer=2)
    recording = Recording(built.wrapper)
    mediator = Mediator(stats=built.stats, cache=True).add_source(recording)
    adhoc_session(mediator, 1000000)
    adhoc = {sql: len(params) for sql, params in recording.pushed if params}
    recording.pushed.clear()
    bbq_refinement(mediator, 300)
    refine = {sql: len(params) for sql, params in recording.pushed if params}
    assert len(adhoc) == 5 and len(refine) == 1
    adhoc.update(refine)
    return adhoc


# -- values ------------------------------------------------------------------------

#: Numbers negative and positive, floats whose text form has an
#: exponent, and strings holding quotes and ``?``.
VALUES = st.one_of(
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-05, -2.5e-07, 1e16, -1e+22, 0.0001, 1e300]),
    st.text(alphabet="ab?'0 C-", max_size=8),
    st.sampled_from(["'", "''", "?", "?0", "it's", "C000001", "''?1''"]),
)


def served_by(name):
    """The templates ``name`` takes: a shard fleet scatters no
    self-join of its partitioned table."""
    if not name.startswith("sharded"):
        return sorted(templates())
    return sorted(
        sql for sql in templates()
        if [ref.table for ref in parse_sql(sql).tables].count("orders") < 2
    )


def draw_case(data, name):
    sql = data.draw(st.sampled_from(served_by(name)), label="template")
    count = templates()[sql]
    params = tuple(
        data.draw(st.lists(VALUES, min_size=count, max_size=count),
                  label="params")
    )
    return sql, params


# -- the sources -------------------------------------------------------------------

SPEC = dict(n_customers=8, orders_per_customer=2)
COUNTERS = (
    statnames.TUPLES_SHIPPED, statnames.ROWS_SCANNED, statnames.JOIN_TUPLES,
    statnames.SHARDS_SCATTERED, statnames.SHARDS_PRUNED,
)


def relational():
    built = build_customers_orders(**SPEC)
    return built.wrapper, built.stats


def relational_cached():
    wrapper, stats = relational()
    return wrapper.enable_sql_cache(64), stats


def sqlite():
    fleet = build_sharded_customers_orders(shards=1, backend="sqlite", **SPEC)
    (wrapper,) = fleet.members
    assert isinstance(wrapper, SqliteWrapper)
    return wrapper, fleet.stats


def sharded(scheme, key):
    def build():
        fleet = build_sharded_customers_orders(
            shards=2, scheme=scheme, partition_key=key, **SPEC
        )
        fleet.sharded.analyze()  # per-member statistics prune
        return fleet.sharded, fleet.stats

    return build


def resilient():
    wrapper, stats = relational()
    clock = ManualClock()
    return ResilientSource(
        wrapper, retry=RetryPolicy(attempts=2, sleep=clock.sleep)
    ), stats


def faulty():
    wrapper, stats = relational()
    return FaultInjectingSource(wrapper), stats


SOURCES = {
    "relational": relational,
    "relational-cached": relational_cached,
    "sqlite": sqlite,
    "sharded-hash": sharded("hash", "cid"),
    "sharded-range": sharded("range", "value"),
    "resilient": resilient,
    "faulty": faulty,
}


@functools.lru_cache(maxsize=None)
def source(name):
    return SOURCES[name]()


def run(source_and_stats, sql, params=()):
    """``(columns, rows, counter deltas)`` of one fetched statement."""
    src, stats = source_and_stats
    cache = getattr(src, "sql_cache", None)
    if cache is not None:
        cache.clear()  # each side executes; neither replays the other
    before = stats.snapshot()
    cursor = src.execute_sql(sql, params)
    rows = cursor.fetchall()
    after = stats.snapshot()
    deltas = {c: after.get(c, 0) - before.get(c, 0) for c in COUNTERS}
    return cursor.column_names, rows, deltas


@pytest.mark.parametrize("name", sorted(SOURCES))
@settings(
    max_examples=25, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_slotted_statement_answers_like_its_bound_text(name, data):
    sql, params = draw_case(data, name)
    # The first run of a plan may build a join index the executor then
    # reuses: run the text once before comparing.
    run(source(name), bind_sql(sql, params))
    bound = run(source(name), sql, params)
    text = run(source(name), bind_sql(sql, params))
    if name == "sharded-hash" and "ORDER BY" not in sql:
        # The arrival gather's order is the members' race, the same
        # text twice included.
        bound, text = [(c, sorted(r), d) for c, r, d in (bound, text)]
    assert bound == text


def test_a_cached_template_is_replayed_for_equal_values():
    wrapper, stats = relational_cached()
    sql = min(templates())
    params = tuple(range(1, templates()[sql] + 1))
    first = wrapper.execute_sql(sql, params).fetchall()
    shipped = stats.get(statnames.TUPLES_SHIPPED)
    assert wrapper.execute_sql(sql, params).fetchall() == first
    assert stats.get(statnames.TUPLES_SHIPPED) == shipped
    assert wrapper.sql_cache.stats()["hits"] == 1


@pytest.mark.parametrize("name", ["relational", "sqlite", "sharded-range"])
def test_executing_leaves_the_memoized_statement_as_parsed(name):
    for sql in served_by(name):
        values = tuple(-7 - slot for slot in range(templates()[sql]))
        run(source(name), sql, values)
        assert repr(parse_sql(sql)) == repr(parse_statement(sql))


def test_a_fault_matching_a_bound_literal_fires():
    src, _ = faulty()
    sql = min(templates())
    params = (424242,) * templates()[sql]
    src.fail_sql(match="424242")
    with pytest.raises(Exception) as caught:
        src.execute_sql(sql, params)
    assert caught.value.sql == bind_sql(sql, params)
    assert "424242" in caught.value.sql
    # Other values do not match: the statement runs.
    src.fail_sql(match="424242")
    src.execute_sql(sql, (7,) * templates()[sql]).fetchall()


def test_a_missing_value_is_a_sql_error():
    from repro.errors import SqlError

    wrapper, _ = relational()
    sql = min(templates())
    with pytest.raises(SqlError, match="no value for parameter"):
        wrapper.execute_sql(sql, ())


# -- one parse per distinct text -------------------------------------------------------


def test_adhoc_sessions_parse_each_template_once(monkeypatch):
    built = build_customers_orders(n_customers=8, orders_per_customer=2)
    mediator = Mediator(stats=built.stats, cache=True).add_source(
        built.wrapper
    )
    parser._memo.clear()
    parsed = []
    monkeypatch.setattr(
        parser, "parse_statement",
        lambda sql, real=parser.parse_statement: parsed.append(sql)
        or real(sql),
    )
    for session in range(20):
        adhoc_session(mediator, 1000000 * (1 + MIX_SEED) + session)
    assert len(parsed) == len(set(parsed)) == 5
    assert set(parsed) <= set(templates())
