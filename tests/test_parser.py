"""Grammar coverage for the SQL subset."""

import re
from decimal import Decimal

import pytest
from hypothesis import example, given, strategies as st

from effectledger.engine.parser import (
    _KEYWORDS,
    Condition,
    CreateTable,
    Delete,
    Insert,
    Select,
    Token,
    Update,
    parse_script,
    parse_statement,
    tokenize,
)
from effectledger.engine.types import ColumnType
from effectledger.errors import ParseError


def test_create_table_shape():
    stmt = parse_statement(
        "CREATE TABLE trades (id INT, product TEXT, price DECIMAL(10, 2), "
        "PRIMARY KEY (id));"
    )
    assert isinstance(stmt, CreateTable)
    schema = stmt.schema
    assert schema.name == "trades"
    assert [c.name for c in schema.columns] == ["id", "product", "price"]
    assert schema.columns[2].type is ColumnType.DECIMAL
    assert schema.columns[2].scale == 2
    assert schema.primary_key == ("id",)


def test_create_table_requires_primary_key():
    with pytest.raises(ParseError):
        parse_statement("CREATE TABLE t (a INT);")


def test_decimal_default_scale_zero():
    stmt = parse_statement("CREATE TABLE t (a DECIMAL(6), PRIMARY KEY (a));")
    assert stmt.schema.columns[0].scale == 0


def test_insert_multi_row_and_column_list():
    stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y');")
    assert isinstance(stmt, Insert)
    assert stmt.columns == ("a", "b")
    assert stmt.rows == ((1, "x"), (2, "y"))


def test_insert_without_column_list():
    stmt = parse_statement("INSERT INTO t VALUES (1, 2.50);")
    assert stmt.columns is None
    assert stmt.rows == ((1, Decimal("2.50")),)


def test_string_literal_quote_escape():
    stmt = parse_statement("INSERT INTO t (a) VALUES ('o''brien');")
    assert stmt.rows == (("o'brien",),)


def test_negative_literals():
    stmt = parse_statement("INSERT INTO t (a, b) VALUES (-5, -1.25);")
    assert stmt.rows == ((-5, Decimal("-1.25")),)


def test_update_with_arithmetic_and_where():
    stmt = parse_statement("UPDATE t SET a = a + 5, b = 7 WHERE k = 3;")
    assert isinstance(stmt, Update)
    (first, second) = stmt.assignments
    assert first[0] == "a" and not first[1].is_literal
    assert second[0] == "b" and second[1].is_literal
    assert stmt.where == (Condition("k", "=", 3),)


def test_update_subtraction():
    stmt = parse_statement("UPDATE t SET a = a - 2.5 WHERE k > 1;")
    signs = [sign for sign, _ in stmt.assignments[0][1].terms]
    assert signs == [1, -1]


def test_where_conjunction_and_between():
    stmt = parse_statement(
        "SELECT * FROM t WHERE a >= 2 AND b BETWEEN 3 AND 9 AND c = 'x';"
    )
    assert isinstance(stmt, Select)
    ops = [c.op for c in stmt.where]
    assert ops == [">=", "between", "="]
    between = stmt.where[1]
    assert (between.value, between.high) == (3, 9)


def test_delete_without_where_is_full_table():
    stmt = parse_statement("DELETE FROM t;")
    assert isinstance(stmt, Delete)
    assert stmt.where == ()


def test_select_column_projection():
    stmt = parse_statement("SELECT a, c FROM t WHERE a < 4;")
    assert stmt.columns == ("a", "c")


def test_script_splits_statements():
    script = parse_script("INSERT INTO t (a) VALUES (1); DELETE FROM t WHERE a = 1;")
    assert len(script) == 2
    assert isinstance(script[0], Insert) and isinstance(script[1], Delete)


@pytest.mark.parametrize(
    "bad",
    [
        "FROBNICATE t;",
        "INSERT INTO t VALUES (1, );",
        "UPDATE t SET = 4;",
        "SELECT FROM t;",
        "INSERT INTO t VALUES (1) extra",
        "UPDATE t SET a = 'unterminated;",
        "CREATE TABLE t (a FLOAT, PRIMARY KEY (a));",
    ],
)
def test_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_statement(bad)


def test_keywords_and_identifiers_case_insensitive():
    stmt = parse_statement("select A, B from MyTable where A = 1;")
    assert stmt.table == "mytable"
    assert stmt.columns == ("a", "b")


# ---- tokenizer: one finditer pass equals the per-position match loop ----

_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<decimal>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<string>'(?:[^']|'')*'|"(?:[^"]|"")*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|[=<>(),;*+\-])
    """,
    re.VERBOSE,
)


def reference_tokenize(sql):
    """The tokenizer as a loop of anchored matches, one per token."""
    tokens = []
    pos = 0
    while pos < len(sql):
        m = _REFERENCE_TOKEN_RE.match(sql, pos)
        if m is None:
            raise ParseError(f"unexpected character {sql[pos]!r} at offset {pos}")
        kind = m.lastgroup
        text = m.group()
        if kind == "ident" and text.lower() in _KEYWORDS:
            kind, text = "keyword", text.lower()
        if kind != "ws":
            tokens.append(Token(kind, text, pos))
        pos = m.end()
    return tokens


SQL_PIECES = st.sampled_from(
    ["SELECT", "update", "Set", "where", "a_1", " ", "\n", "\t", "\x1f", "'", '"', "''",
     "12", "3.5", ".", "-", "<=", ">=", "=", "(", ")", ",", ";", "*", "+", "!", "é", "€", "٣"]
)
SQL_LIKE = st.lists(st.one_of(SQL_PIECES, st.text(max_size=3)), max_size=30).map("".join)


@given(st.one_of(st.text(), SQL_LIKE))
@example("UPDATE t SET a = 1 ! 2")
@example("SELECT *\nFROM t\x1f?")
@example("a 'open")
def test_tokenize_matches_reference_loop(sql):
    try:
        expected = reference_tokenize(sql)
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            tokenize(sql)
        assert str(raised.value) == str(exc)
    else:
        assert tokenize(sql) == expected
