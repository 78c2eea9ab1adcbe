"""Tokenizer and recursive-descent parser for the supported SQL subset.

Statements: CREATE TABLE, INSERT ... VALUES, UPDATE ... SET ... [WHERE],
DELETE FROM ... [WHERE], SELECT ... FROM ... [WHERE].  WHERE clauses are
conjunctions of comparisons between one column and literals (=, <, >, <=, >=,
BETWEEN).  SET expressions allow +/- arithmetic over columns and literals,
which is how read-modify-write transactions are expressed.  No joins, no
aggregation, no ORDER BY, no NULL.

PlanCache is one party's plan cache, an organization's or a client's: it
parses statement texts that differ from a learned shape only in their
literals by binding the literals, without running the parser (see its
docstring).  An INSERT's shape is its one-row shape, so a bulk load of any
row count binds from it.  Each learned shape is a Plan, where an
organization also keeps what it compiled from the shape.
"""

from __future__ import annotations

import decimal
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

from ..errors import ParseError
from .types import Column, ColumnType, TableSchema

# The groups start on disjoint characters (decimal is tried before int), so
# their order only decides how soon a match is found: common kinds first.
_TOKEN_RE = re.compile(
    r"""
    \s*+
    (?:
      (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op><=|>=|[=<>(),;*+\-])
    | (?P<decimal>\d+\.\d+)
    | (?P<int>\d+)
    | (?P<string>'(?:[^']|'')*'|"(?:[^"]|"")*")
    | (?P<unexpected>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = {
    "create", "table", "primary", "key", "insert", "into", "values",
    "update", "set", "delete", "from", "select", "where", "and", "between",
    "int", "text", "decimal",
}

Literal = Union[int, str, decimal.Decimal]


def _unquote(text: str) -> str:
    """The value of a string literal token: quotes off, doubled quotes single."""
    quote = text[0]
    return text[1:-1].replace(quote * 2, quote)


class Token(NamedTuple):
    kind: str  # 'ident' | 'keyword' | 'int' | 'decimal' | 'string' | 'op'
    text: str
    pos: int


def tokenize(sql: str) -> list[Token]:
    """One regex pass.  Each match consumes the whitespace before its token,
    and every other character belongs to some group, so matches are
    contiguous (only trailing whitespace matches nothing) and the first
    unexpected character raises at its offset."""
    tokens = []
    for m in _TOKEN_RE.finditer(sql):
        kind = m.lastgroup
        text = m.group(kind)
        pos = m.start(kind)
        if kind == "ident":
            lowered = text.lower()
            if lowered in _KEYWORDS:
                kind, text = "keyword", lowered
        elif kind == "unexpected":
            raise ParseError(f"unexpected character {text!r} at offset {pos}")
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
    """Reads tokens by index; `n` is the token count."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.n = len(tokens)
        self.i = 0

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < self.n else None

    def next(self) -> Token:
        i = self.i
        if i >= self.n:
            raise ParseError("unexpected end of statement")
        self.i = i + 1
        return self.tokens[i]

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want}, got {tok.text!r} at offset {tok.pos}")
        return tok

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        i = self.i
        if i < self.n:
            tok = self.tokens[i]
            if tok.kind == kind and (text is None or tok.text == text):
                self.i = i + 1
                return tok
        return None

    def ident(self) -> str:
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"expected identifier, got {tok.text!r} at offset {tok.pos}")
        return tok.text.lower()

    def literal(self) -> Literal:
        negative = self.accept("op", "-") is not None
        tok = self.next()
        if tok.kind == "int":
            return -int(tok.text) if negative else int(tok.text)
        if tok.kind == "decimal":
            # exact: arithmetic on a Decimal would round it to the thread's context
            value = decimal.Decimal(tok.text)
            return value.copy_negate() if negative else value
        if tok.kind == "string":
            if negative:
                raise ParseError(f"cannot negate string at offset {tok.pos}")
            return _unquote(tok.text)
        raise ParseError(f"expected literal, got {tok.text!r} at offset {tok.pos}")

    # ---- statements ----

    def statement(self) -> Statement:
        tok = self.peek()
        if tok is None:
            raise ParseError("empty statement")
        if tok.kind != "keyword":
            raise ParseError(f"expected statement keyword, got {tok.text!r}")
        handler = _STATEMENT_HANDLERS.get(tok.text)
        if handler is None:
            raise ParseError(f"unsupported statement {tok.text!r}")
        return handler(self)

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
            elif self.accept("op", "-"):
                terms.append((-1, self.term()))
            else:
                break
        return ValueExpr(tuple(terms))

    def term(self) -> Union[ColumnRef, Literal]:
        tok = self.accept("ident")
        if tok is not None:
            return ColumnRef(tok.text.lower())
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


# statement keyword -> the _Parser method that parses that statement
_STATEMENT_HANDLERS = {
    "create": _Parser.create_table,
    "insert": _Parser.insert,
    "update": _Parser.update,
    "delete": _Parser.delete,
    "select": _Parser.select,
}


def parse_statement(sql: str) -> Statement:
    parser = _Parser(tokenize(sql))
    stmt = parser.statement()
    parser.accept("op", ";")
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r} at offset {tok.pos}")
    return stmt


def parse_script(sql: str) -> list[Statement]:
    """Parse a ';'-separated sequence of statements."""
    parser = _Parser(tokenize(sql))
    statements = []
    while parser.i < parser.n:
        statements.append(parser.statement())
        if parser.accept("op", ";") is None:
            break
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r} at offset {tok.pos}")
    return statements


# ---- the plan cache ----

# Splits a statement text into slots, one per literal token, each after the
# run of text before it: identifiers (with their digits), keywords,
# operators, signs and whitespace.  The literal patterns are tokenize's, and a
# run stops only where tokenize would start a literal, so two texts whose
# runs, tail and slot kinds are equal tokenize alike except for literal
# texts.  re.split yields _STRIDE items per slot: the text skipped before the
# run, the run, the string with its opening quote (' or ") in the next two
# items, the decimal with its point, and the int; the tail after the last
# slot comes last.  Text is skipped only at a quote that starts no string,
# where tokenize fails, so a shape learned from a parse skips nothing.
_SLOT_RE = re.compile(
    r"""
    ( (?: [^'"\dA-Za-z_]+ | [A-Za-z_][A-Za-z0-9_]*+ )*+ )
    (?:
      ( (')(?:[^']|'')*' | (")(?:[^"]|"")*" )
    | ( \d+(\.)\d+ )
    | ( \d+ )
    )
    """,
    re.VERBOSE,
)
_STRIDE = 8
_STRING, _DECIMAL, _INT = 2, 5, 7  # offsets of a slot's literal text

# Learning stops at PLAN_LIMIT shapes, since clients choose the SQL text.
# PLAN_TEXT_LIMIT bounds the size of a shape: a text longer than it is
# looked up only among INSERT row shapes, whose size does not grow with the
# row count, and an INSERT teaches no row shape whose text without literals
# is longer than it.
PLAN_LIMIT = 64
PLAN_TEXT_LIMIT = 1024

_BINDER_NAMES = {
    "Insert": Insert,
    "Update": Update,
    "Delete": Delete,
    "Select": Select,
    "ValueExpr": ValueExpr,
    "Condition": Condition,
    "Decimal": decimal.Decimal,
    "_unquote": _unquote,
}

Binder = Callable[[list], "Bound"]


class Bound(Sequence):
    """A parse that a plan cache bound from a learned shape: the shape's
    Plan and the literal values in slot order, the order the parser reads
    them in; for an INSERT row shape (Plan.rows), the rows of values, each
    in the slot order of the template's one row.  As a sequence it holds
    the statements parse_script would return, built from the values when
    first read: a compiled run reads only the values.  It compares equal to
    a list or tuple of the same statements, and its repr is that of the
    list."""

    __slots__ = ("plan", "values", "_statements")

    def __init__(self, plan: "Plan", values: tuple):
        self.plan, self.values, self._statements = plan, values, None

    @property
    def statements(self) -> tuple[Statement, ...]:
        if self._statements is None:
            self._statements = tuple(self.plan.build(self.values))
        return self._statements

    def __getitem__(self, index):
        return self.statements[index]

    def __iter__(self):
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.plan.template)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Bound, list, tuple)):
            return NotImplemented
        return self.statements == tuple(other)

    def __hash__(self) -> int:
        return hash(self.statements)

    def __repr__(self) -> str:
        return repr(list(self.statements))


class Slot(NamedTuple):
    """Literal n of a shape (of each row, for a row shape), whose values
    are of Python type kind."""

    n: int
    kind: type


class Plan:
    """One learned shape: its binder, and what its owner compiled from it.

    bind turns a text's split into a Bound, and build turns literal values
    into the shape's statements.  The template is build of the Slots: the
    shape's parse with each literal a Slot, which compilers read.  For an
    INSERT row shape, rows is True: the template holds one row, and a
    Bound's values hold any number of rows, each bound like that one.
    tables are the tables its statements name; a shape holds no DDL, so
    each is one its data statements operate on.  The owner's engine keeps
    its compiled form here, with how many transactions ran it: executor
    (engine.compiled) and executed; its predicate checks keep fields
    (agreement).  No plan keeps an analysis: only the staged reference and
    `effectledger graph` analyze (scheduler), from statements.  A plan
    belongs to one party's cache, so what is compiled here is never
    shared.
    """

    __slots__ = ("bind", "build", "template", "rows", "tables", "fields", "executor", "executed")

    def __init__(
        self, bind: Binder, build: Callable[[tuple], list], slots: tuple, rows: bool = False
    ):
        self.bind, self.build, self.rows = bind, build, rows
        self.template = build(slots)
        self.tables = frozenset(stmt.table for stmt in self.template)
        self.fields = self.executor = None
        self.executed = 0


class PlanCache:
    """One party's plan cache: statement shapes it has parsed, each with a
    binder that rebuilds the parse from a text's literals.

    A shape is a text's split with the literal texts left out: the runs, the
    tail and each slot's kind.  A text that is one INSERT has a row shape
    instead: the runs and kinds of its first row, the separator run between
    rows (unknown when it had one row) and the tail.  Any text whose rows
    all have the first row's runs and kinds, and whose separators and tail
    are the shape's, binds from it, whatever its row count; a row shape is
    looked up by its first run, which names the table and columns.
    parse(sql, parse) returns what parse_script returns.  On a hit the
    binder converts the slot texts as the parser does (int, exact Decimal,
    unquoted string) into the literal values, returned as a Bound, which
    builds the statements with code generated once for the shape when they
    are first read.  On a miss, `parse` parses the text, so its errors and
    their offsets are the parser's, and the cache learns the shape from
    that parse, unless it is DDL, holds an INSERT of several rows among
    other statements, or is an INSERT whose rows differ in shape.  A shape
    is kept only if building the text's own literals gives a parse whose
    repr equals the parser's: repr, unlike ==, tells Decimal('1.5') from
    Decimal('1.50') and 5 from Decimal(5).  Parties never share one.
    """

    def __init__(self):
        self._plans: dict[tuple, Plan] = {}
        self._rows: dict[str, list[Plan]] = {}  # INSERT row shapes by first run
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._plans) + sum(map(len, self._rows.values()))

    def plans(self) -> list[Plan]:
        return [*self._plans.values(), *(plan for plans in self._rows.values() for plan in plans)]

    def parse(self, sql: str, parse: Callable[[str], list[Statement]]) -> Sequence[Statement]:
        parts = _SLOT_RE.split(sql)
        if len(parts) > 1:
            for plan in self._rows.get(parts[1], ()):
                bound = plan.bind(parts)
                if bound is not None:
                    self.hits += 1
                    return bound
        shape = None
        if len(sql) <= PLAN_TEXT_LIMIT:
            shape = tuple(parts[::_STRIDE] + parts[1::_STRIDE] + parts[3::_STRIDE]
                          + parts[4::_STRIDE] + parts[6::_STRIDE])
            plan = self._plans.get(shape)
            if plan is not None:
                self.hits += 1
                return plan.bind(parts)
        self.misses += 1
        statements = parse(sql)
        if len(self) < PLAN_LIMIT:
            if len(statements) == 1 and isinstance(statements[0], Insert):
                plan = _learn_rows(parts, statements)
                if plan is not None:
                    self._rows.setdefault(parts[1], []).append(plan)
            elif shape is not None:
                plan = _learn(parts, statements)
                if plan is not None:
                    self._plans[shape] = plan
        return statements


class _NotAPlan(Exception):
    """The parse cannot teach a binder for its shape."""


def _learn(parts: list, statements: list[Statement]) -> Plan | None:
    """A plan for the shape of the split parts, from the text's parse, or
    None when the text cannot teach one."""
    source = _BinderSource(parts)
    try:
        body = "".join(f"{source.statement(stmt)}, " for stmt in statements)
        if next(source.slots, None) is not None:
            return None
    except _NotAPlan:
        return None
    values = "".join(f"{value}, " for value in source.values)
    names = dict(source.names, Bound=Bound, plan=None)
    exec(
        f"def bind(p):\n    return Bound(plan, ({values}))\n"
        f"def build(v):\n    return [{body}]\n",
        names,
    )
    bind, build = names["bind"], names["build"]
    values = bind(parts).values
    if repr(build(values)) != repr(statements):
        return None
    names["plan"] = Plan(bind, build, tuple(Slot(n, type(v)) for n, v in enumerate(values)))
    return names["plan"]


def _learn_rows(parts: list, statements: list[Statement]) -> Plan | None:
    """A row shape for the split parts of a text that is one INSERT, from
    its parse, or None when the text cannot teach one: its rows differ in
    shape, its first row's sign is unknown, or the shape is too long.

    A text of n rows fits the shape when its runs after the first, each
    followed by the separator, are the first row's n times over, and so are
    its slot kinds and skipped texts (none); the tail comes last.  A row
    shape learned from one row has no separator, so only one-row texts fit
    it.  The binder converts each column's literal texts, every width-th
    slot, with one map, and zips the columns into rows."""
    (insert,) = statements
    width = len(insert.rows[0])
    if width * len(insert.rows) != len(parts) >> 3:
        return None
    stride = width * _STRIDE
    runs = parts[1::_STRIDE]
    if sum(map(len, runs[:width + 1])) + len(parts[-1]) > PLAN_TEXT_LIMIT:
        return None
    cycle = [*runs[1:width], runs[width] if len(insert.rows) > 1 else None]
    skip, quotes, doubles, points = (parts[at:stride:_STRIDE] for at in (0, 3, 4, 6))
    tail = [parts[-1]]
    columns = []
    try:
        for at, value in zip(range(0, stride, _STRIDE), insert.rows[0]):
            offset, negated = _literal(parts, at, value)
            columns.append((at + offset, _CONVERT[offset], negated))
    except _NotAPlan:
        return None
    plan = None

    def bind(p: list) -> Bound | None:
        n, extra = divmod(len(p) >> 3, width)
        if (
            extra
            or p[9::_STRIDE] + cycle[-1:] != cycle * n
            or p[3::_STRIDE] != quotes * n
            or p[4::_STRIDE] != doubles * n
            or p[6::_STRIDE] != points * n
            or p[::_STRIDE] != skip * n + tail
        ):
            return None
        values = []
        for at, convert, negated in columns:
            column = map(convert, p[at::stride])
            values.append(map(_NEGATE[convert], column) if negated else column)
        return Bound(plan, tuple(zip(*values)))

    table, names = insert.table, insert.columns  # the parse's rows are not kept

    def build(v: tuple) -> list[Statement]:
        return [Insert(table, names, v)]

    bound = bind(parts)
    if bound is None or repr(build(bound.values)) != repr(statements):
        return None
    row = tuple(Slot(n, type(value)) for n, value in enumerate(bound.values[0]))
    plan = Plan(bind, build, (row,), rows=True)
    return plan


# how the parser converts a literal's text, by the text's offset in its slot
_CONVERT = {_STRING: _unquote, _DECIMAL: decimal.Decimal, _INT: int}
_NEGATE = {int: operator.neg, decimal.Decimal: decimal.Decimal.copy_negate}


def _literal(parts: list, at: int, value) -> tuple[int, bool]:
    """Where the slot at `at` of the split holds the text of the parsed
    literal value, and whether the parser negated it.  Raises _NotAPlan
    when the kinds differ, or when an int that parsed to 0 after a '-'
    leaves the sign unknown."""
    if parts[at + _STRING] is not None and isinstance(value, str):
        return _STRING, False
    if parts[at + _DECIMAL] is not None and isinstance(value, decimal.Decimal):
        return _DECIMAL, value.is_signed()
    if parts[at + _INT] is not None and type(value) is int:
        if value == 0 and parts[at + 1].rstrip().endswith("-"):
            raise _NotAPlan
        return _INT, value < 0
    raise _NotAPlan


class _BinderSource:
    """Python source that rebuilds a parse from split parts p.

    The parser reads literals in text order and puts each into the tree
    once, so the n-th literal of a pre-order walk is slot n: values holds
    the source of each slot's value, which the tree reads as v[n].  A slot
    is negated when its parsed value is (see _literal).  Terms that hold no
    literal are built once and shared: they are frozen.
    """

    def __init__(self, parts: list):
        self.parts = parts
        self.slots = iter(range(0, len(parts) - 1, _STRIDE))
        self.names = dict(_BINDER_NAMES)
        self.values: list[str] = []

    def const(self, value) -> str:
        name = f"_k{len(self.names)}"
        self.names[name] = value
        return name

    def slot(self, value) -> str:
        self.values.append(self.value(value))
        return f"v[{len(self.values) - 1}]"

    def value(self, value) -> str:
        at = next(self.slots, None)
        if at is None:
            raise _NotAPlan
        offset, negated = _literal(self.parts, at, value)
        text = f"{_CONVERT[offset].__name__}(p[{at + offset}])"
        if not negated:
            return text
        return f"-{text}" if offset == _INT else f"{text}.copy_negate()"

    def statement(self, stmt: Statement) -> str:
        if isinstance(stmt, Insert):
            if len(stmt.rows) != 1:
                raise _NotAPlan
            row = "".join(f"{self.slot(value)}, " for value in stmt.rows[0])
            return f"Insert({stmt.table!r}, {stmt.columns!r}, (({row}),))"
        if isinstance(stmt, Update):
            sets = "".join(
                f"({column!r}, {self.expr(expr)}), " for column, expr in stmt.assignments
            )
            return f"Update({stmt.table!r}, ({sets}), {self.where(stmt.where)})"
        if isinstance(stmt, Delete):
            return f"Delete({stmt.table!r}, {self.where(stmt.where)})"
        if isinstance(stmt, Select):
            return f"Select({stmt.table!r}, {stmt.columns!r}, {self.where(stmt.where)})"
        raise _NotAPlan  # DDL

    def expr(self, expr: ValueExpr) -> str:
        terms = "".join(
            f"{self.const(term)}, " if isinstance(term[1], ColumnRef)
            else f"({term[0]}, {self.slot(term[1])}), "
            for term in expr.terms
        )
        return f"ValueExpr(({terms}))"

    def where(self, where: tuple[Condition, ...]) -> str:
        conditions = "".join(
            f"Condition({c.column!r}, {c.op!r}, {self.slot(c.value)}, "
            f"{self.slot(c.high) if c.op == 'between' else None}), "
            for c in where
        )
        return f"({conditions})"
