"""Property tests: cost-based planning never changes answers.

Every random instance is executed three ways — optimizer off
(the seed's syntactic plan), optimizer on with defaults only, and
optimizer on after ``ANALYZE`` — and all three must produce the same
multiset of rows.  Random DML between runs exercises the staleness
path: stale statistics may only cost performance, never correctness.
"""

from hypothesis import given, settings, strategies as st

from repro.relational import Database

r_rows = st.lists(
    st.tuples(
        st.integers(0, 8),                       # a (join column, skewed)
        st.integers(-20, 20),                    # b
        st.sampled_from(["x", "y", "z"]),        # c
    ),
    min_size=0,
    max_size=14,
)
s_rows = st.lists(
    st.tuples(st.integers(0, 8), st.integers(-20, 20)),
    min_size=0,
    max_size=14,
)
operators = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


def build_db(r_data, s_data, with_index=False):
    db = Database("prop")
    db.run("CREATE TABLE r (a INT, b INT, c TEXT)")
    db.run("CREATE TABLE s (d INT, e INT)")
    for row in r_data:
        db.run("INSERT INTO r VALUES ({}, {}, '{}')".format(*row))
    for row in s_data:
        db.run("INSERT INTO s VALUES ({}, {})".format(*row))
    if with_index:
        db.run("CREATE INDEX r_a ON r (a)")
        db.run("CREATE INDEX s_d ON s (d)")
    return db


def all_plans(db, query):
    """Sorted rows under syntactic / cost-default / cost-analyzed."""
    db.optimizer = False
    syntactic = sorted(db.execute(query).fetchall())
    db.optimizer = True
    cost_default = sorted(db.execute(query).fetchall())
    db.analyze()
    cost_analyzed = sorted(db.execute(query).fetchall())
    return syntactic, cost_default, cost_analyzed


@given(r_rows, s_rows)
@settings(max_examples=80, deadline=None)
def test_join_results_invariant_under_planning(r_data, s_data):
    syntactic, cost_default, cost_analyzed = all_plans(
        build_db(r_data, s_data),
        "SELECT r.a, r.b, s.e FROM r, s WHERE r.a = s.d",
    )
    assert syntactic == cost_default == cost_analyzed


@given(r_rows, s_rows, operators, st.integers(-20, 20))
@settings(max_examples=60, deadline=None)
def test_filtered_join_invariant_under_planning(r_data, s_data, op, cut):
    query = (
        "SELECT r.a, s.e FROM r, s"
        " WHERE r.a = s.d AND r.b {} {}".format(op, cut)
    )
    syntactic, cost_default, cost_analyzed = all_plans(
        build_db(r_data, s_data), query
    )
    assert syntactic == cost_default == cost_analyzed


@given(r_rows, s_rows)
@settings(max_examples=50, deadline=None)
def test_three_way_join_invariant_under_planning(r_data, s_data):
    query = (
        "SELECT r.a, r2.c, s.e FROM r r, r r2, s s"
        " WHERE r.a = r2.a AND r.a = s.d"
    )
    syntactic, cost_default, cost_analyzed = all_plans(
        build_db(r_data, s_data), query
    )
    assert syntactic == cost_default == cost_analyzed


@given(r_rows, s_rows)
@settings(max_examples=50, deadline=None)
def test_indexed_instance_invariant_under_planning(r_data, s_data):
    query = "SELECT r.b, s.e FROM r, s WHERE r.a = s.d AND r.a = 3"
    syntactic, cost_default, cost_analyzed = all_plans(
        build_db(r_data, s_data, with_index=True), query
    )
    assert syntactic == cost_default == cost_analyzed


@given(r_rows, s_rows, st.integers(0, 8))
@settings(max_examples=50, deadline=None)
def test_stale_statistics_still_correct(r_data, s_data, extra):
    """DML after ANALYZE stales the statistics; answers must track the
    new data, not the old snapshot."""
    db = build_db(r_data, s_data)
    db.analyze()
    db.run("INSERT INTO r VALUES ({}, 0, 'x')".format(extra))
    db.run("INSERT INTO s VALUES ({}, 7)".format(extra))
    query = "SELECT r.a, s.e FROM r, s WHERE r.a = s.d"
    db.optimizer = True
    got = sorted(db.execute(query).fetchall())
    r_all = list(r_data) + [(extra, 0, "x")]
    s_all = list(s_data) + [(extra, 7)]
    expected = sorted(
        (a, e) for (a, b, c) in r_all for (d, e) in s_all if a == d
    )
    assert got == expected


@given(r_rows)
@settings(max_examples=40, deadline=None)
def test_estimate_never_negative_and_bounded_for_scans(data):
    db = build_db(data, [])
    db.analyze()
    est = db.estimate("SELECT a FROM r")
    assert est == len(data)
    filtered = db.estimate("SELECT a FROM r WHERE b < 0")
    assert 0.0 <= filtered <= len(data) + 1e-9


# -- interesting orders: keyed tables, ORDER BY, DISTINCT, semijoins ------------------
#
# The order-preserving plan must be indistinguishable from the seed's
# hash joins + full sort: the same row *sequence* whenever ORDER BY
# decides the order of the projected rows (ties are then identical
# rows), else the same multiset, sorted.  The mixbench oracle runs one
# executor on both sides, so this suite is the check.

nullable = st.one_of(st.none(), st.integers(0, 5))
keyed_r = st.lists(
    st.tuples(nullable, st.integers(-9, 9), st.sampled_from(["x", "y"])),
    max_size=10,
)
keyed_s = st.lists(st.tuples(nullable, st.integers(-9, 9)), max_size=10)
keyed_t = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-9, 9)),
    max_size=10, unique_by=lambda row: row[:2],
)

#: FROM/WHERE shapes; ``{cut}`` takes an integer.
SHAPES = [
    "r, s WHERE r.a = s.d",
    "r, s WHERE r.a = s.d AND r.b > {cut}",
    "r, s WHERE r.a = s.d AND s.e <= {cut}",
    "r, s, r r2 WHERE r.a = s.d AND r2.id = r.id AND r2.b < {cut}",
    "r, s, s s2, r r2 WHERE r.a = s.d AND s2.d = r.a AND r2.a = s2.d"
    " AND r2.b != {cut}",
    "r, s, t WHERE r.a = s.d AND t.x = r.a AND t.v >= {cut}",
    "r, s WHERE r.b < s.e",
    "r, s WHERE r.a = s.d AND r.b = s.e",
    "r, s WHERE s.d = r.a AND {cut} < r.b AND 1 = 1",
    "r, s, t WHERE r.a = s.d AND t.x = r.a AND t.y = s.d AND 2 < 1",
    "r, s, t WHERE r.a = s.d AND t.y < r.b",
    "r, s",
]
SELECT_LISTS = [
    "r.id, r.b", "r.id, s.id, s.e", "r.b, s.e", "r.c", "s.id, r.c",
    "r.id, r.a, s.id, s.d", "*",
]
ORDERINGS = [
    "r.id", "r.id, s.id", "s.id, r.id", "r.b", "r.id, s.e", "r.b, r.id",
    "s.id", "t.x", "t.x, t.y, r.id", "t.x, r.b",
]


def build_keyed_db(r_data, s_data, t_data, with_index):
    """Keys are assigned so that key order is not insertion order."""
    db = Database("keyed")
    db.run("CREATE TABLE r (id INT, a INT, b INT, c TEXT, PRIMARY KEY (id))")
    db.run("CREATE TABLE s (id INT, d INT, e INT, PRIMARY KEY (id))")
    db.run("CREATE TABLE t (x INT, y INT, v INT, PRIMARY KEY (x, y))")
    for i, (a, b, c) in enumerate(r_data):
        db.table("r").insert([(i * 7) % 11, a, b, c])
    for i, (d, e) in enumerate(s_data):
        db.table("s").insert([(i * 5) % 13, d, e])
    for row in t_data:
        db.table("t").insert(row)
    if with_index:
        db.run("CREATE INDEX s_d ON s (d)")
        db.run("CREATE INDEX t_xv ON t (x, v)")
    return db


def _sort_value(value):
    return (value is not None, value)


@st.composite
def ordered_queries(draw):
    shape = draw(st.sampled_from(SHAPES)).format(cut=draw(st.integers(-9, 9)))
    aliases = [
        part.split()[-1]
        for part in shape.split(" WHERE ")[0].split(", ")
    ]
    items = draw(st.sampled_from(SELECT_LISTS))
    order = draw(st.sampled_from(
        [o for o in ORDERINGS if "t." not in o or "t" in aliases]
    ))
    distinct = draw(st.booleans())
    sql = "SELECT {}{} FROM {} ORDER BY {}".format(
        "DISTINCT " if distinct else "", items, shape, order
    )
    order_columns = order.split(", ")
    item_columns = items.split(", ")
    positions = None
    if all(c in item_columns for c in order_columns):
        positions = [item_columns.index(c) for c in order_columns]
    # ORDER BY decides the order of the projected rows when it holds the
    # whole key of every alias that contributes a column.
    keys = {"r": {"r.id"}, "s": {"s.id"}, "t": {"t.x", "t.y"}}
    shown = aliases if items == "*" else {c.split(".")[0] for c in item_columns}
    total = all(
        alias in keys and keys[alias] <= set(order_columns) for alias in shown
    )
    return sql, positions, total


@given(keyed_r, keyed_s, keyed_t, ordered_queries(), st.booleans(),
       st.booleans(), st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_ordered_results_invariant_under_planning(
        r_data, s_data, t_data, query, with_index, analyzed, prefix):
    sql, positions, total = query
    db = build_keyed_db(r_data, s_data, t_data, with_index)
    db.optimizer = False
    reference = db.execute(sql).fetchall()
    db.optimizer = True
    if analyzed:
        db.analyze()
    planned = db.execute(sql).fetchall()
    if total:
        assert planned == reference
    else:
        assert sorted(planned, key=lambda row: [_sort_value(v) for v in row]) \
            == sorted(reference, key=lambda row: [_sort_value(v) for v in row])
    if positions is not None:
        keys = [[_sort_value(row[p]) for p in positions] for row in planned]
        assert keys == sorted(keys)
    # Fetch a prefix, then close: the rows so far are the same rows, and
    # nothing comes after.
    cursor = db.execute(sql)
    assert cursor.fetch_block(prefix) == planned[:prefix]
    cursor.close()
    assert cursor.fetchone() is None
