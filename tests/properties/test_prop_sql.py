"""Property tests: the SQL executor against a naive Python reference."""

from hypothesis import given, settings, strategies as st

from repro.relational import Database
from repro.relational.executor import compare

# Small random two-table instances.
r_rows = st.lists(
    st.tuples(
        st.integers(0, 20),                      # a (key-ish, may repeat)
        st.integers(-50, 50),                    # b
        st.sampled_from(["x", "y", "z", "w"]),   # c
    ),
    min_size=0,
    max_size=12,
)
s_rows = st.lists(
    st.tuples(st.integers(0, 20), st.integers(-50, 50)),
    min_size=0,
    max_size=12,
)
operators = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


def build_db(r_data, s_data):
    db = Database("prop")
    db.run("CREATE TABLE r (a INT, b INT, c TEXT)")
    db.run("CREATE TABLE s (d INT, e INT)")
    for row in r_data:
        db.run("INSERT INTO r VALUES ({}, {}, '{}')".format(*row))
    for row in s_data:
        db.run("INSERT INTO s VALUES ({}, {})".format(*row))
    return db


@given(r_rows, operators, st.integers(-50, 50))
@settings(max_examples=100, deadline=None)
def test_selection_matches_reference(data, op, constant):
    db = build_db(data, [])
    got = db.execute(
        "SELECT a, b FROM r WHERE b {} {}".format(op, constant)
    ).fetchall()
    expected = [(a, b) for (a, b, c) in data if compare(b, op, constant)]
    assert sorted(got) == sorted(expected)


@given(r_rows, s_rows)
@settings(max_examples=100, deadline=None)
def test_equijoin_matches_reference(r_data, s_data):
    db = build_db(r_data, s_data)
    got = db.execute(
        "SELECT r.a, s.e FROM r, s WHERE r.a = s.d"
    ).fetchall()
    expected = [
        (a, e) for (a, b, c) in r_data for (d, e) in s_data if a == d
    ]
    assert sorted(got) == sorted(expected)


@given(r_rows, s_rows, operators)
@settings(max_examples=80, deadline=None)
def test_theta_join_matches_reference(r_data, s_data, op):
    db = build_db(r_data, s_data)
    got = db.execute(
        "SELECT r.b, s.e FROM r, s WHERE r.b {} s.e".format(op)
    ).fetchall()
    expected = [
        (b, e)
        for (a, b, c) in r_data
        for (d, e) in s_data
        if compare(b, op, e)
    ]
    assert sorted(got) == sorted(expected)


@given(r_rows)
@settings(max_examples=80, deadline=None)
def test_order_by_sorts(data):
    db = build_db(data, [])
    got = db.execute("SELECT b FROM r ORDER BY b").fetchall()
    assert [row[0] for row in got] == sorted(b for (a, b, c) in data)


@given(r_rows)
@settings(max_examples=80, deadline=None)
def test_distinct_matches_set(data):
    db = build_db(data, [])
    got = db.execute("SELECT DISTINCT c FROM r").fetchall()
    assert sorted(row[0] for row in got) == sorted(
        {c for (a, b, c) in data}
    )


@given(r_rows, s_rows)
@settings(max_examples=60, deadline=None)
def test_semijoin_encoding_with_distinct(r_data, s_data):
    """The Fig-22 self-join + DISTINCT encoding equals an EXISTS filter."""
    db = build_db(r_data, s_data)
    got = db.execute(
        "SELECT DISTINCT r.a, r.b, r.c FROM r, s WHERE r.a = s.d"
    ).fetchall()
    expected = {
        (a, b, c)
        for (a, b, c) in r_data
        if any(d == a for (d, e) in s_data)
    }
    assert set(got) == expected


@given(r_rows, st.integers(0, 14))
@settings(max_examples=60, deadline=None)
def test_cursor_prefix_is_prefix_of_full(data, k):
    db = build_db(data, [])
    full = db.execute("SELECT a, b FROM r ORDER BY a, b").fetchall()
    cursor = db.execute("SELECT a, b FROM r ORDER BY a, b")
    prefix = cursor.fetch_block(k)
    assert prefix == full[:k]
