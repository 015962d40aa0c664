"""Unit tests for the SQL lexer and parser."""

import pytest

from repro.errors import SqlParseError
from repro.relational import ast
from repro.relational.lexer import (
    IDENT,
    KEYWORD,
    NUMBER,
    PARAM,
    STRING,
    tokenize,
)
from repro.relational.parser import parse_sql, parse_statement
from repro.relational.types import INTEGER, TEXT


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select From WHERE")
        assert [t.kind for t in tokens[:3]] == [KEYWORD] * 3
        assert [t.text for t in tokens[:3]] == ["SELECT", "FROM", "WHERE"]

    def test_identifiers(self):
        tokens = tokenize("customer c1")
        assert tokens[0].kind == IDENT
        assert tokens[1].text == "c1"

    def test_numbers(self):
        tokens = tokenize("42 3.5 -7")
        assert [t.value for t in tokens[:3]] == [42, 3.5, -7]

    def test_numbers_with_exponents(self):
        tokens = tokenize("1e-05 1e+16 -2.5E3 7e2 1.5e300")
        assert [t.kind for t in tokens[:5]] == [NUMBER] * 5
        assert [t.value for t in tokens[:5]] == [
            1e-05, 1e16, -2500.0, 700.0, 1.5e300
        ]
        assert all(isinstance(t.value, float) for t in tokens[:5])

    def test_a_second_dot_ends_a_number(self):
        tokens = tokenize("1.2.3")
        assert [(t.kind, t.text) for t in tokens[:3]] == [
            (NUMBER, "1.2"), ("SYMBOL", "."), (NUMBER, "3")
        ]
        with pytest.raises(SqlParseError):
            parse_sql("SELECT * FROM t WHERE a = 1.2.3")

    def test_a_non_decimal_digit_is_a_parse_error(self):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT * FROM t WHERE a = 1\u00b2")

    def test_an_e_without_digits_is_a_name(self):
        tokens = tokenize("1e x")
        assert [(t.kind, t.text) for t in tokens[:3]] == [
            (NUMBER, "1"), (IDENT, "e"), (IDENT, "x")
        ]

    def test_parameters(self):
        tokens = tokenize("a < ?0 AND b = ?12")
        params = [t for t in tokens if t.kind == PARAM]
        assert [(t.text, t.value) for t in params] == [("?0", 0), ("?12", 12)]
        with pytest.raises(SqlParseError):
            tokenize("a = ?")

    def test_string_literal_with_escape(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].kind == STRING
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlParseError):
            tokenize("'oops")

    def test_qualified_name_not_a_float(self):
        tokens = tokenize("c1.id")
        assert [t.text for t in tokens[:3]] == ["c1", ".", "id"]

    def test_comments_skipped(self):
        tokens = tokenize("SELECT -- comment\n x")
        assert tokens[1].text == "x"

    def test_comparison_symbols(self):
        tokens = tokenize("<= >= <> != = < >")
        texts = [t.text for t in tokens[:-1]]
        assert texts == ["<=", ">=", "<>", "!=", "=", "<", ">"]


class TestSelectParsing:
    def test_exponent_literal_in_a_predicate(self):
        stmt = parse_sql("SELECT * FROM t WHERE v < 1e-05 AND w > -1e+16")
        assert [p.right for p in stmt.predicates] == [
            ast.Literal(1e-05), ast.Literal(-1e16)
        ]

    def test_parameters_bind_into_a_copy(self):
        sql = "SELECT a FROM t WHERE a < ?1 AND b = ?0 AND c = 'x?0'"
        stmt = parse_sql(sql)
        assert [p.right for p in stmt.predicates[:2]] == [
            ast.Param(1), ast.Param(0)
        ]
        bound = stmt.bind(("it's", 5))
        assert repr(bound) == (
            "SELECT a FROM t WHERE a < 5 AND b = 'it''s' AND c = 'x?0'"
        )
        assert repr(stmt) == repr(parse_statement(sql))
        assert ast.bind_sql(sql, ("it's", 5)) == repr(bound)
        assert parse_sql("SELECT a FROM t").bind((1,)).predicates == []

    def test_select_texts_are_memoized_and_dml_is_not(self):
        sql = "SELECT id FROM memo_probe WHERE id = ?0"
        assert parse_sql(sql) is parse_sql(sql)
        assert parse_statement(sql) is not parse_sql(sql)
        dml = "DELETE FROM memo_probe WHERE id = 1"
        assert parse_sql(dml) is not parse_sql(dml)

    def test_simple(self):
        stmt = parse_sql("SELECT id FROM customer")
        assert isinstance(stmt, ast.SelectStmt)
        assert stmt.items[0].ref == ast.ColRef("id")
        assert stmt.tables[0].table == "customer"

    def test_star(self):
        stmt = parse_sql("SELECT * FROM t")
        assert stmt.items[0].is_star

    def test_aliases(self):
        stmt = parse_sql("SELECT c.id AS cid FROM customer c")
        assert stmt.items[0].alias == "cid"
        assert stmt.tables[0].alias == "c"

    def test_where_conjunction(self):
        stmt = parse_sql(
            "SELECT * FROM c, o WHERE c.id = o.cid AND o.value > 100"
        )
        assert len(stmt.predicates) == 2
        assert stmt.predicates[1].op == ">"
        assert stmt.predicates[1].right == ast.Literal(100)

    def test_order_by(self):
        stmt = parse_sql("SELECT * FROM t ORDER BY a, b")
        assert [c.column for c in stmt.order_by] == ["a", "b"]

    def test_distinct(self):
        assert parse_sql("SELECT DISTINCT a FROM t").distinct
        assert not parse_sql("SELECT a FROM t").distinct

    def test_string_and_null_operands(self):
        stmt = parse_sql("SELECT * FROM t WHERE name = 'bob' AND x = NULL")
        assert stmt.predicates[0].right == ast.Literal("bob")
        assert stmt.predicates[1].right == ast.Literal(None)

    def test_paper_fig22_query_parses(self):
        stmt = parse_sql(
            "SELECT c1.id, c1.name, c1.addr, o1.orid, o1.value "
            "FROM customer c1, orders o1, customer c2, orders o2 "
            "WHERE c1.id = o1.cid AND c2.id = o2.cid "
            "AND c1.id = c2.id AND o2.value > 20000 "
            "ORDER BY c1.id, o1.orid"
        )
        assert len(stmt.tables) == 4
        assert len(stmt.predicates) == 4
        assert len(stmt.order_by) == 2


class TestDdlDmlParsing:
    def test_create_table(self):
        stmt = parse_sql(
            "CREATE TABLE t (id INT, name TEXT, PRIMARY KEY (id))"
        )
        assert isinstance(stmt, ast.CreateTableStmt)
        assert stmt.columns == [("id", INTEGER), ("name", TEXT)]
        assert stmt.primary_key == ("id",)

    def test_create_table_composite_key(self):
        stmt = parse_sql(
            "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))"
        )
        assert stmt.primary_key == ("a", "b")

    def test_unknown_type_rejected(self):
        with pytest.raises(SqlParseError):
            parse_sql("CREATE TABLE t (a BLOB)")

    def test_insert_multi_row(self):
        stmt = parse_sql("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert isinstance(stmt, ast.InsertStmt)
        assert stmt.rows == [[1, "a"], [2, "b"]]

    def test_delete(self):
        stmt = parse_sql("DELETE FROM t WHERE id = 3")
        assert isinstance(stmt, ast.DeleteStmt)
        assert len(stmt.predicates) == 1

    def test_update(self):
        stmt = parse_sql("UPDATE t SET name = 'x', v = 2 WHERE id = 1")
        assert isinstance(stmt, ast.UpdateStmt)
        assert stmt.assignments[0][0] == "name"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "DROP TABLE t",
            "SELECT FROM t",
            "SELECT * FROM",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t ORDER id",
            "INSERT INTO t VALUES 1",
            "SELECT * FROM t extra garbage",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(SqlParseError):
            parse_sql(text)
