"""Tokenizer and recursive-descent parser for the supported SQL subset.

Statements: CREATE TABLE, INSERT ... VALUES, UPDATE ... SET ... [WHERE],
DELETE FROM ... [WHERE], SELECT ... FROM ... [WHERE].  WHERE clauses are
conjunctions of comparisons between one column and literals (=, <, >, <=, >=,
BETWEEN).  SET expressions allow +/- arithmetic over columns and literals,
which is how read-modify-write transactions are expressed.  No joins, no
aggregation, no ORDER BY, no NULL.
"""

from __future__ import annotations

import decimal
import re
from dataclasses import dataclass
from typing import Union

from ..errors import ParseError
from .types import Column, ColumnType, TableSchema

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<decimal>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<string>'(?:[^']|'')*'|"(?:[^"]|"")*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|[=<>(),;*+\-])
  | (?P<unexpected>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = {
    "create", "table", "primary", "key", "insert", "into", "values",
    "update", "set", "delete", "from", "select", "where", "and", "between",
    "int", "text", "decimal",
}

Literal = Union[int, str, decimal.Decimal]


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'keyword' | 'int' | 'decimal' | 'string' | 'op'
    text: str
    pos: int


def tokenize(sql: str) -> list[Token]:
    """One regex pass; every character belongs to some group, so matches are
    contiguous and the first unexpected character raises at its offset."""
    tokens = []
    for m in _TOKEN_RE.finditer(sql):
        kind = m.lastgroup
        if kind == "ws":
            continue
        text = m.group()
        pos = m.start()
        if kind == "unexpected":
            raise ParseError(f"unexpected character {text!r} at offset {pos}")
        if kind == "ident" and text.lower() in _KEYWORDS:
            kind, text = "keyword", text.lower()
        tokens.append(Token(kind, text, pos))
    return tokens


@dataclass(frozen=True)
class ColumnRef:
    name: str


# Signed sum of columns and literals, e.g. bal + 10.50.
@dataclass(frozen=True)
class ValueExpr:
    terms: tuple[tuple[int, Union[ColumnRef, Literal]], ...]

    @property
    def is_literal(self) -> bool:
        return len(self.terms) == 1 and not isinstance(self.terms[0][1], ColumnRef)

    def referenced_columns(self) -> tuple[str, ...]:
        return tuple(t.name for _, t in self.terms if isinstance(t, ColumnRef))


@dataclass(frozen=True)
class Condition:
    column: str
    op: str  # '=', '<', '>', '<=', '>=', 'between'
    value: Literal = None
    high: Literal = None  # BETWEEN upper bound


@dataclass(frozen=True)
class CreateTable:
    schema: TableSchema


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...] | None  # None means declaration order
    rows: tuple[tuple[Literal, ...], ...]


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, ValueExpr], ...]
    where: tuple[Condition, ...]  # empty means all rows


@dataclass(frozen=True)
class Delete:
    table: str
    where: tuple[Condition, ...]


@dataclass(frozen=True)
class Select:
    table: str
    columns: tuple[str, ...] | None  # None means *
    where: tuple[Condition, ...]


Statement = Union[CreateTable, Insert, Update, Delete, Select]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of statement")
        self.i += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want}, got {tok.text!r} at offset {tok.pos}")
        return tok

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.peek()
        if tok and tok.kind == kind and (text is None or tok.text == text):
            self.i += 1
            return tok
        return None

    def ident(self) -> str:
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"expected identifier, got {tok.text!r} at offset {tok.pos}")
        return tok.text.lower()

    def literal(self) -> Literal:
        sign = 1
        if self.accept("op", "-"):
            sign = -1
        tok = self.next()
        if tok.kind == "int":
            return sign * int(tok.text)
        if tok.kind == "decimal":
            return sign * decimal.Decimal(tok.text)
        if tok.kind == "string":
            if sign < 0:
                raise ParseError(f"cannot negate string at offset {tok.pos}")
            quote = tok.text[0]
            return tok.text[1:-1].replace(quote * 2, quote)
        raise ParseError(f"expected literal, got {tok.text!r} at offset {tok.pos}")

    # ---- statements ----

    def statement(self) -> Statement:
        tok = self.peek()
        if tok is None:
            raise ParseError("empty statement")
        if tok.kind != "keyword":
            raise ParseError(f"expected statement keyword, got {tok.text!r}")
        handler = {
            "create": self.create_table,
            "insert": self.insert,
            "update": self.update,
            "delete": self.delete,
            "select": self.select,
        }.get(tok.text)
        if handler is None:
            raise ParseError(f"unsupported statement {tok.text!r}")
        return handler()

    def create_table(self) -> CreateTable:
        self.expect("keyword", "create")
        self.expect("keyword", "table")
        table = self.ident()
        self.expect("op", "(")
        columns: list[Column] = []
        primary_key: tuple[str, ...] | None = None
        while True:
            if self.accept("keyword", "primary"):
                self.expect("keyword", "key")
                self.expect("op", "(")
                pk = [self.ident()]
                while self.accept("op", ","):
                    pk.append(self.ident())
                self.expect("op", ")")
                primary_key = tuple(pk)
            else:
                columns.append(self.column_def())
            if not self.accept("op", ","):
                break
        self.expect("op", ")")
        if primary_key is None:
            raise ParseError(f"table {table}: PRIMARY KEY clause required")
        try:
            schema = TableSchema(table, tuple(columns), primary_key)
        except Exception as exc:
            raise ParseError(str(exc)) from None
        return CreateTable(schema)

    def column_def(self) -> Column:
        name = self.ident()
        tok = self.next()
        if tok.kind != "keyword" or tok.text not in ("int", "text", "decimal"):
            raise ParseError(f"unknown column type {tok.text!r} at offset {tok.pos}")
        scale = 0
        if tok.text == "decimal" and self.accept("op", "("):
            first = int(self.expect("int").text)
            if self.accept("op", ","):
                scale = int(self.expect("int").text)
            # DECIMAL(p) alone means scale 0; precision is not enforced
            del first
            self.expect("op", ")")
        ctype = ColumnType[tok.text.upper()]
        try:
            return Column(name, ctype, scale)
        except Exception as exc:
            raise ParseError(str(exc)) from None

    def insert(self) -> Insert:
        self.expect("keyword", "insert")
        self.expect("keyword", "into")
        table = self.ident()
        columns = None
        if self.accept("op", "("):
            cols = [self.ident()]
            while self.accept("op", ","):
                cols.append(self.ident())
            self.expect("op", ")")
            columns = tuple(cols)
        self.expect("keyword", "values")
        rows = [self.value_tuple()]
        while self.accept("op", ","):
            rows.append(self.value_tuple())
        return Insert(table, columns, tuple(rows))

    def value_tuple(self) -> tuple[Literal, ...]:
        self.expect("op", "(")
        values = [self.literal()]
        while self.accept("op", ","):
            values.append(self.literal())
        self.expect("op", ")")
        return tuple(values)

    def update(self) -> Update:
        self.expect("keyword", "update")
        table = self.ident()
        self.expect("keyword", "set")
        assignments = [self.assignment()]
        while self.accept("op", ","):
            assignments.append(self.assignment())
        return Update(table, tuple(assignments), self.opt_where())

    def assignment(self) -> tuple[str, ValueExpr]:
        column = self.ident()
        self.expect("op", "=")
        return column, self.value_expr()

    def value_expr(self) -> ValueExpr:
        terms = [(1, self.term())]
        while True:
            if self.accept("op", "+"):
                terms.append((1, self.term()))
            elif self.peek() and self.peek().kind == "op" and self.peek().text == "-":
                self.next()
                terms.append((-1, self.term()))
            else:
                break
        return ValueExpr(tuple(terms))

    def term(self) -> Union[ColumnRef, Literal]:
        tok = self.peek()
        if tok and tok.kind == "ident":
            return ColumnRef(self.ident())
        return self.literal()

    def delete(self) -> Delete:
        self.expect("keyword", "delete")
        self.expect("keyword", "from")
        return Delete(self.ident(), self.opt_where())

    def select(self) -> Select:
        self.expect("keyword", "select")
        if self.accept("op", "*"):
            columns = None
        else:
            cols = [self.ident()]
            while self.accept("op", ","):
                cols.append(self.ident())
            columns = tuple(cols)
        self.expect("keyword", "from")
        return Select(self.ident(), columns, self.opt_where())

    def opt_where(self) -> tuple[Condition, ...]:
        if not self.accept("keyword", "where"):
            return ()
        conditions = [self.condition()]
        while self.accept("keyword", "and"):
            conditions.append(self.condition())
        return tuple(conditions)

    def condition(self) -> Condition:
        column = self.ident()
        if self.accept("keyword", "between"):
            low = self.literal()
            self.expect("keyword", "and")
            return Condition(column, "between", low, self.literal())
        tok = self.next()
        if tok.kind != "op" or tok.text not in ("=", "<", ">", "<=", ">="):
            raise ParseError(f"expected comparison, got {tok.text!r} at offset {tok.pos}")
        return Condition(column, tok.text, self.literal())


def parse_statement(sql: str) -> Statement:
    parser = _Parser(tokenize(sql))
    stmt = parser.statement()
    parser.accept("op", ";")
    if parser.peek() is not None:
        tok = parser.peek()
        raise ParseError(f"trailing input {tok.text!r} at offset {tok.pos}")
    return stmt


def parse_script(sql: str) -> list[Statement]:
    """Parse a ';'-separated sequence of statements."""
    parser = _Parser(tokenize(sql))
    statements = []
    while parser.peek() is not None:
        statements.append(parser.statement())
        if parser.accept("op", ";") is None:
            break
    if parser.peek() is not None:
        tok = parser.peek()
        raise ParseError(f"trailing input {tok.text!r} at offset {tok.pos}")
    return statements
