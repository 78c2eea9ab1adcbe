"""Grammar coverage for the SQL subset."""

import re
from decimal import Decimal

import pytest
from hypothesis import example, given, strategies as st

from effectledger.engine.parser import (
    _KEYWORDS,
    ColumnRef,
    Condition,
    CreateTable,
    Delete,
    Insert,
    Select,
    Token,
    Update,
    ValueExpr,
    parse_script,
    parse_statement,
    tokenize,
)
from effectledger.engine.types import Column, ColumnType, TableSchema
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
@example("SELECT a \t\n ")
@example(" \u2003\n")
def test_tokenize_matches_reference_loop(sql):
    try:
        expected = reference_tokenize(sql)
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            tokenize(sql)
        assert str(raised.value) == str(exc)
    else:
        assert tokenize(sql) == expected


# ---- error messages: the text and offset of every ParseError are pinned ----

ERROR_MESSAGES = [
    ("FROBNICATE t;", "expected statement keyword, got 'FROBNICATE'"),
    ("INSERT INTO t VALUES (1, );", "expected literal, got ')' at offset 25"),
    ("UPDATE t SET = 4;", "expected identifier, got '=' at offset 13"),
    ("SELECT FROM t;", "expected identifier, got 'from' at offset 7"),
    ("INSERT INTO t VALUES (1) extra", "trailing input 'extra' at offset 25"),
    ("UPDATE t SET a = 'unterminated;", "unexpected character \"'\" at offset 17"),
    ("CREATE TABLE t (a FLOAT, PRIMARY KEY (a));", "unknown column type 'FLOAT' at offset 18"),
    ("UPDATE t SET a =", "unexpected end of statement"),
    ("UPDATE t SET a = a +", "unexpected end of statement"),
    ("SELECT a FROM", "unexpected end of statement"),
    ("DELETE FROM t WHERE", "unexpected end of statement"),
    ("SELECT * FROM t WHERE a BETWEEN", "unexpected end of statement"),
    ("INSERT INTO t VALUES", "unexpected end of statement"),
    ("CREATE TABLE t (a DECIMAL(10, 2", "unexpected end of statement"),
    (";", "expected statement keyword, got ';'"),
    ("42", "expected statement keyword, got '42'"),
    ("WHERE a = 1", "unsupported statement 'where'"),
    ("INSERT t VALUES (1)", "expected into, got 't' at offset 7"),
    ("SELECT * FROM t WHERE a ! 3", "unexpected character '!' at offset 24"),
    ("SELECT * FROM t WHERE a <> 1", "expected literal, got '>' at offset 25"),
    ("SELECT * FROM t WHERE 1 = a", "expected identifier, got '1' at offset 22"),
    ("SELECT * FROM t WHERE a BETWEEN 1 2", "expected and, got '2' at offset 34"),
    ("SELECT * FROM t WHERE a = 1 OR b = 2", "trailing input 'OR' at offset 28"),
    ("select a, from t", "expected identifier, got 'from' at offset 10"),
    ("INSERT INTO t VALUES (-'x')", "cannot negate string at offset 23"),
    ("CREATE TABLE t (a DECIMAL(x), PRIMARY KEY (a))", "expected int, got 'x' at offset 26"),
    ("CREATE TABLE t (a INT)", "table t: PRIMARY KEY clause required"),
    ("CREATE TABLE t (a INT, a TEXT, PRIMARY KEY (a))", "table t: duplicate column name"),
    ("CREATE TABLE t (a INT, PRIMARY KEY (b))", "table t: unknown pk column b"),
    ("CREATE TABLE t (a DECIMAL(10, 31), PRIMARY KEY (a))", "column a: unsupported scale 31"),
]


@pytest.mark.parametrize("parse", [parse_statement, parse_script])
@pytest.mark.parametrize("sql, message", ERROR_MESSAGES)
def test_parse_error_message(parse, sql, message):
    with pytest.raises(ParseError) as raised:
        parse(sql)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "parse, sql, message",
    [
        (parse_statement, "", "empty statement"),
        (parse_statement, "SELECT * FROM t; ;", "trailing input ';' at offset 17"),
        (parse_script, "SELECT * FROM t; ;", "expected statement keyword, got ';'"),
    ],
)
def test_parse_error_message_differs_by_entry_point(parse, sql, message):
    with pytest.raises(ParseError) as raised:
        parse(sql)
    assert str(raised.value) == message


# ---- round trip: rendered statements parse back to the statements ----

IDENTS = st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda name: name not in _KEYWORDS
)
GAPS = st.sampled_from([" ", "  ", "\t", "\n", " \r\n "])
OPTIONAL_GAPS = st.one_of(st.just(""), GAPS)


@st.composite
def int_literals(draw):
    value = draw(st.integers(-(2**70), 2**70))
    return value, str(value)


@st.composite
def decimal_literals(draw):
    text = f"{draw(st.integers(0, 10**9))}.{draw(st.text('0123456789', min_size=1, max_size=6))}"
    if draw(st.booleans()):
        return -1 * Decimal(text), "-" + text
    return Decimal(text), text


@st.composite
def string_literals(draw):
    value = draw(st.text(st.sampled_from("ab '\"\n;\x1fé"), max_size=8))
    quote = draw(st.sampled_from("'\""))
    return value, quote + value.replace(quote, quote * 2) + quote


LITERALS = st.one_of(int_literals(), decimal_literals(), string_literals())


def column_lists(min_size=1):
    return st.lists(IDENTS, min_size=min_size, max_size=4, unique=True).map(tuple)


@st.composite
def conditions(draw):
    """A WHERE clause: each condition with its rendering as words."""
    out = []
    for _ in range(draw(st.integers(0, 3))):
        column = draw(IDENTS)
        op = draw(st.sampled_from(["=", "<", ">", "<=", ">=", "between"]))
        value, value_text = draw(LITERALS)
        if op == "between":
            high, high_text = draw(LITERALS)
            out.append((Condition(column, op, value, high),
                        [column, "BETWEEN", value_text, "AND", high_text]))
        else:
            out.append((Condition(column, op, value), [column, op, value_text]))
    return out


def where_words(conds):
    if not conds:
        return []
    words = ["WHERE"]
    for i, (_, cond_words) in enumerate(conds):
        if i:
            words.append("AND")
        words.extend(cond_words)
    return words


def listed(items):
    words = []
    for i, item in enumerate(items):
        if i:
            words.append(",")
        words.extend(item if isinstance(item, list) else [item])
    return words


@st.composite
def create_tables(draw):
    names = draw(column_lists())
    columns, defs = [], []
    for name in names:
        ctype = draw(st.sampled_from(list(ColumnType)))
        if ctype is ColumnType.DECIMAL:
            scale = draw(st.integers(0, 30))
            form = draw(st.sampled_from(["bare", "precision", "both"]))
            if form == "bare" or (form == "precision" and scale == 0):
                scale_words = [] if form == "bare" else ["(", "12", ")"]
                scale = 0
            else:
                scale_words = ["(", "40", ",", str(scale), ")"]
            columns.append(Column(name, ctype, scale))
            defs.append([name, "DECIMAL"] + scale_words)
        else:
            columns.append(Column(name, ctype))
            defs.append([name, ctype.value])
    pk = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True)))
    defs.insert(draw(st.integers(0, len(defs))), ["PRIMARY", "KEY", "("] + listed(list(pk)) + [")"])
    table = draw(IDENTS)
    words = ["CREATE", "TABLE", table, "("] + listed(defs) + [")"]
    return CreateTable(TableSchema(table, tuple(columns), pk)), words


@st.composite
def inserts(draw):
    table = draw(IDENTS)
    columns = draw(st.one_of(st.none(), column_lists()))
    width = len(columns) if columns else draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(LITERALS, min_size=width, max_size=width), min_size=1, max_size=3))
    words = ["INSERT", "INTO", table]
    if columns is not None:
        words += ["("] + listed(list(columns)) + [")"]
    words.append("VALUES")
    words += listed([["("] + listed([text for _, text in row]) + [")"] for row in rows])
    stmt = Insert(table, columns, tuple(tuple(value for value, _ in row) for row in rows))
    return stmt, words


@st.composite
def value_exprs(draw):
    terms, words = [], []
    for i in range(draw(st.integers(1, 4))):
        sign = 1 if i == 0 else draw(st.sampled_from([1, -1]))
        if draw(st.booleans()):
            name = draw(IDENTS)
            term, text = ColumnRef(name), name
        else:
            term, text = draw(LITERALS)
        if i:
            words.append("+" if sign == 1 else "-")
        terms.append((sign, term))
        words.append(text)
    return ValueExpr(tuple(terms)), words


@st.composite
def updates(draw):
    table = draw(IDENTS)
    assignments = draw(st.lists(st.tuples(IDENTS, value_exprs()), min_size=1, max_size=3))
    conds = draw(conditions())
    words = ["UPDATE", table, "SET"]
    words += listed([[column, "="] + expr_words for column, (_, expr_words) in assignments])
    words += where_words(conds)
    stmt = Update(
        table,
        tuple((column, expr) for column, (expr, _) in assignments),
        tuple(cond for cond, _ in conds),
    )
    return stmt, words


@st.composite
def deletes(draw):
    table = draw(IDENTS)
    conds = draw(conditions())
    words = ["DELETE", "FROM", table] + where_words(conds)
    return Delete(table, tuple(cond for cond, _ in conds)), words


@st.composite
def selects(draw):
    table = draw(IDENTS)
    columns = draw(st.one_of(st.none(), column_lists()))
    conds = draw(conditions())
    words = ["SELECT"] + (["*"] if columns is None else listed(list(columns)))
    words += ["FROM", table] + where_words(conds)
    return Select(table, columns, tuple(cond for cond, _ in conds)), words


STATEMENTS = st.one_of(create_tables(), inserts(), updates(), deletes(), selects())


def _word_like(text):
    return text[:1].isalnum() or text[:1] in "_." or text[-1:].isalnum() or text[-1:] in "_."


def render(data, statements):
    """Join each statement's words with random gaps and keyword case."""
    parts = []
    for i, (_, words) in enumerate(statements):
        if i:
            parts += [data.draw(OPTIONAL_GAPS), ";", data.draw(OPTIONAL_GAPS)]
        previous = ""
        for word in words:
            if word[:1] not in "'\"":
                word = data.draw(st.sampled_from([word.lower(), word.upper(), word.title()]))
            if previous and _word_like(previous) and _word_like(word):
                parts.append(data.draw(GAPS))
            else:
                parts.append(data.draw(OPTIONAL_GAPS))
            parts.append(word)
            previous = word
    if statements and data.draw(st.booleans()):
        parts.append(";")
    parts.append(data.draw(OPTIONAL_GAPS))
    return "".join(parts)


@given(st.data(), st.lists(STATEMENTS, max_size=4))
def test_rendered_statements_parse_back(data, statements):
    sql = render(data, statements)
    parsed = parse_script(sql)
    expected = [stmt for stmt, _ in statements]
    assert parsed == expected
    assert repr(parsed) == repr(expected)  # Decimal digits and int/Decimal kinds too


@pytest.mark.parametrize("text", ["1.000000000000000000000000000019", "-1.000000000000000000000000000019"])
def test_long_decimal_literals_parse_exactly(text):
    stmt = parse_statement(f"INSERT INTO t (a) VALUES ({text});")
    assert stmt.rows == ((Decimal(text),),)
    assert str(stmt.rows[0][0]) == text
