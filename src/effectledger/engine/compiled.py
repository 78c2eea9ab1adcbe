"""Executors compiled from learned plan-cache shapes.

An organization's engine compiles each shape its plan cache bound
(parser.Bound) once, from the shape's template (parser.Plan), against its
own tables and quirks, into Python source that runs a transaction of that
shape from the bound literal values.  At
compile time it fixes the table names, column indices, the primary-key
probe, each assigned column's coercion under the engine's quirks, whether a
no-op update emits a digest tuple, and the digest row encoder; a run then
skips the interpreter's per-statement dispatch and bind checks.

UPDATE, DELETE and SELECT compile when their conditions are equalities on
distinct columns that pin every primary-key column, so each touches at
most one row.  An INSERT compiles whatever its row count: an INSERT row
shape (parser.Plan.rows) runs every bound row through one generated loop,
which does per row what the interpreter does, in its order (coerce, key,
duplicate check against the table, rows inserted earlier by the statement
included, undo entry, digest tuple).  A shape compiles only if its bind
checks pass whatever literals it is bound with; they can, since a shape
fixes each literal's kind.  DDL, range predicates and shapes that would
fail those checks run on the interpreter, which gives the same results and
is the oracle the tests hold compiled runs to.
"""

from __future__ import annotations

import decimal
import hashlib

from ..errors import ConstraintViolation
from ..ledger import ChangeType
from .parser import ColumnRef, Condition, Delete, Insert, Select, Slot, Update
from .types import (
    INT64_MAX,
    INT64_MIN,
    _TEXT_ESCAPES,
    DECIMAL_CONTEXT,
    DECIMAL_QUANTA,
    ColumnType,
    DecimalRounding,
    key_bytes,
    key_value,
)

# the Python type of a stored value, per column type
_STORED = {ColumnType.INT: int, ColumnType.DECIMAL: decimal.Decimal, ColumnType.TEXT: str}


class Executor:
    """One plan compiled against one engine and the schemas of the tables
    it names; run is None when the shape does not compile against them.

    run(tables, v, undo, pending) executes a transaction bound with literal
    values v (a Bound's values), with the engine's undo log and pending
    digest tuples, and returns its outputs; it raises what the interpreter
    would.
    """

    __slots__ = ("db", "schemas", "run")

    def __init__(self, db, plan):
        self.db = db
        tables = {stmt.table: db.tables.get(stmt.table) for stmt in plan.template}
        self.schemas = tuple((name, t and t.schema) for name, t in tables.items())
        self.run = None
        if None not in tables.values():
            self.run = _compile(plan, dict(self.schemas), db.quirks)

    def current(self, tables) -> bool:
        """Whether the tables still hold the schemas compiled against, or
        are still missing."""
        for name, schema in self.schemas:
            table = tables.get(name)
            now = table and table.schema
            if now is not schema and now != schema:
                return False
        return True


class _Uncompiled(Exception):
    """The shape runs on the interpreter."""


def _compile(plan, schemas, quirks):
    source = _ExecutorSource(schemas, quirks, plan.rows)
    try:
        body = "".join(map(source.statement, plan.template))
    except _Uncompiled:
        return None
    tables = "".join(
        f"    rows{n} = tables[{name!r}].rows\n" for name, n in source.rows.items()
    )
    code = f"def run(tables, v, undo, pending):\n{tables}    o = []\n{body}    return o\n"
    exec(code, source.names)
    return source.names["run"]


class _ExecutorSource:
    """Python source of a run, statement by statement; slot n of the
    template reads v[n], or r[n] of each row r of v for a row shape."""

    def __init__(self, schemas, quirks, row_shape: bool):
        self.schemas = schemas
        self.quirks = quirks
        self.row_shape = row_shape
        self.rows: dict[str, int] = {}
        self.names = {
            "_sha256": hashlib.sha256,
            "_add": DECIMAL_CONTEXT.add,
            "_sub": DECIMAL_CONTEXT.subtract,
            "_esc": _TEXT_ESCAPES,
            "_Decimal": decimal.Decimal,
            "_InvalidOperation": decimal.InvalidOperation,
            "_context": DECIMAL_CONTEXT,
            "_key_value": key_value,
            "_key_bytes": key_bytes,
            "_Violation": ConstraintViolation,
            "_INSERT": ChangeType.INSERT,
            "_UPDATE": ChangeType.UPDATE,
            "_DELETE": ChangeType.DELETE,
        }

    def const(self, value) -> str:
        name = f"_k{len(self.names)}"
        self.names[name] = value
        return name

    def slot(self, slot: Slot) -> tuple[str, type]:
        """Source and type of a slot's value."""
        return f"{'r' if self.row_shape else 'v'}[{slot.n}]", slot.kind

    def table(self, name: str):
        schema = self.schemas[name]
        rows = f"rows{self.rows.setdefault(name, len(self.rows))}"
        return schema, rows

    def statement(self, stmt) -> str:
        if isinstance(stmt, Insert):
            return self.insert(stmt)
        if isinstance(stmt, Update):
            return self.update(stmt)
        if isinstance(stmt, Delete):
            return self.delete(stmt)
        if isinstance(stmt, Select):
            return self.select(stmt)
        raise _Uncompiled

    # ---- statements ----

    def insert(self, stmt: Insert) -> str:
        schema, rows = self.table(stmt.table)
        names = stmt.columns or tuple(c.name for c in schema.columns)
        (values,) = stmt.rows  # a template INSERT holds one row; a row shape runs it per row
        if sorted(names) != sorted(c.name for c in schema.columns) or len(values) != len(names):
            raise _Uncompiled
        lines = []
        for name, value in zip(names, values):
            index = schema.column_index(name)
            lines += self.fit(schema.columns[index], *self.slot(value), f"n{index}")
        row = "".join(f"n{i}, " for i in range(len(schema.columns)))
        key = _encoding(schema.pk_columns, [f"new[{i}]" for i in schema.pk_indices])
        name = stmt.table
        lines += [
            f"new = ({row})",
            f"k = {key}",
            f"if k in {rows}:",
            f"    raise _Violation({f'table {name}: duplicate primary key'!r})",
            f"{rows}[k] = new",
            f"undo.append(('insert', {name!r}, k, None))",
            f"pending.append(({name!r}, k, {_row_hash(schema, 'new')}, _INSERT))",
        ]
        if self.row_shape:
            return _block(["for r in v:", *map(_indent, lines), "o.append(len(v))"])
        return _block(lines + ["o.append(1)"])

    def update(self, stmt: Update) -> str:
        schema, rows = self.table(stmt.table)
        assigned = set()
        changed = []
        for column_name, expr in stmt.assignments:
            index = self.column_index(schema, column_name)
            if index in schema.pk_indices or index in assigned:
                raise _Uncompiled
            assigned.add(index)
            changed += self.fit(schema.columns[index], *self.expr(schema, expr), f"n{index}")
        probe, matched = self.probe(schema, rows, stmt.where)
        new = "".join(
            f"n{i}, " if i in assigned else f"row[{i}], " for i in range(len(schema.columns))
        )
        changed.append(f"new = ({new})")
        write = [
            f"undo.append(('update', {stmt.table!r}, k, row))",
            f"{rows}[k] = new",
            f"pending.append(({stmt.table!r}, k, {_row_hash(schema, 'new')}, _UPDATE))",
        ]
        if not self.quirks.update_noop_emits_digest:
            write = ["if new != row:", *map(_indent, write)]
        return _block([
            *probe,
            f"if {matched}:",
            *map(_indent, changed + write + ["o.append(1)"]),
            "else:",
            "    o.append(0)",
        ])

    def delete(self, stmt: Delete) -> str:
        schema, rows = self.table(stmt.table)
        probe, matched = self.probe(schema, rows, stmt.where)
        return _block([
            *probe,
            f"if {matched}:",
            f"    undo.append(('delete', {stmt.table!r}, k, row))",
            f"    pending.append(({stmt.table!r}, k, {_row_hash(schema, 'row')}, _DELETE))",
            f"    del {rows}[k]",
            "    o.append(1)",
            "else:",
            "    o.append(0)",
        ])

    def select(self, stmt: Select) -> str:
        schema, rows = self.table(stmt.table)
        if stmt.columns is None:
            out = "row"
        else:
            out = "(" + "".join(
                f"row[{self.column_index(schema, name)}], " for name in stmt.columns
            ) + ")"
        probe, matched = self.probe(schema, rows, stmt.where)
        return _block([*probe, f"o.append([{out}] if {matched} else [])"])

    # ---- parts ----

    def column_index(self, schema, name: str) -> int:
        if name not in schema._index:
            raise _Uncompiled
        return schema._index[name]

    def probe(self, schema, rows: str, where: tuple[Condition, ...]):
        """Lines that look up the one row the conditions can match, as k and
        row, and the test that it matches."""
        literals = {}
        for cond in where:
            column = schema.columns[self.column_index(schema, cond.column)]
            if cond.op != "=" or cond.column in literals:
                raise _Uncompiled
            source, kind = self.slot(cond.value)
            if (column.type is ColumnType.TEXT) != (kind is str):
                raise _Uncompiled  # the interpreter's bind check fails
            literals[cond.column] = source, kind
        if any(name not in literals for name in schema.primary_key):
            raise _Uncompiled
        residual = "".join(
            f" and row[{schema.column_index(name)}] == {source}"
            for name, (source, _) in literals.items()
            if name not in schema.primary_key
        )
        pk = [literals[name] for name in schema.primary_key]
        if len(pk) == 1 and schema.pk_columns[0].type is ColumnType.INT and pk[0][1] is int:
            source = pk[0][0]  # key_value and key_bytes of one INT
            key = f"b'%d' % {source} if {INT64_MIN} <= {source} <= {INT64_MAX} else None"
        else:
            values = "".join(
                f"_key_value({self.const(column)}, {source}), "
                for column, (source, _) in zip(schema.pk_columns, pk)
            )
            key = f"_key_bytes({self.const(schema)}, [{values}])"
        return [f"k = {key}", f"row = {rows}.get(k)"], f"row is not None{residual}"

    def expr(self, schema, expr) -> tuple[str, type]:
        """Source and type of a SET expression, computed as the
        interpreter's _eval_expr does: int arithmetic until a Decimal
        joins, then the one DECIMAL context, from a total of 0."""
        terms = []
        for sign, term in expr.terms:
            if isinstance(term, ColumnRef):
                index = self.column_index(schema, term.name)
                terms.append((sign, f"row[{index}]", _STORED[schema.columns[index].type]))
            else:
                terms.append((sign, *self.slot(term)))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1:]  # plain copy; may be TEXT
        if any(kind is str for _, _, kind in terms):
            raise _Uncompiled  # arithmetic over TEXT
        total, kind = "0", int
        for sign, source, term_kind in terms:
            if kind is int and term_kind is int:
                total = f"({total} {'+' if sign > 0 else '-'} {source})"
            else:
                kind = decimal.Decimal
                total = f"{'_add' if sign > 0 else '_sub'}({total}, {source})"
        return total, kind

    def fit(self, column, source: str, kind: type, target: str) -> list[str]:
        """Lines that store a value of the kind in the column as target, as
        coerce_value does under the engine's quirks."""
        lines = [f"{target} = {source}"]
        if column.type is ColumnType.TEXT:
            if kind is not str:
                raise _Uncompiled
            return lines
        if kind is str or (column.type is ColumnType.INT and kind is not int):
            raise _Uncompiled
        if column.type is ColumnType.INT:
            return lines + [
                f"if not {INT64_MIN} <= {target} <= {INT64_MAX}:",
                f"    raise _Violation({f'column {column.name}: INT out of range'!r})",
            ]
        half_even = self.quirks.decimal_rounding is DecimalRounding.HALF_EVEN
        rounding = decimal.ROUND_HALF_EVEN if half_even else decimal.ROUND_DOWN
        quantum = self.const(DECIMAL_QUANTA[column.scale])
        widened = f"_Decimal({target})" if kind is int else target
        return lines + [
            "try:",
            f"    {target} = {widened}.quantize({quantum}, {rounding!r}, _context)",
            "except _InvalidOperation:",
            f"    raise _Violation({f'column {column.name}: DECIMAL out of range'!r}) from None",
            f"if {target}.is_zero():",
            f"    {target} = {target}.copy_abs()",
        ]


def _encoding(columns, sources) -> str:
    """Source of the codec's bytes for values of the columns (types.encode_values)."""
    fields, args = [], []
    for column, source in zip(columns, sources):
        if column.type is ColumnType.INT:
            fields.append("%d")
            args.append(source)
        else:
            fields.append("%s")
            args.append(
                f"{source}.translate(_esc)" if column.type is ColumnType.TEXT
                else f"format({source}, 'f')"
            )
    template = "\x1f".join(fields)
    return f"({template!r} % ({''.join(a + ', ' for a in args)})).encode()"


def _row_hash(schema, row: str) -> str:
    """Source of database.row_hash of the named row."""
    sources = [f"{row}[{i}]" for i in range(len(schema.columns))]
    count = len(schema.columns)
    return f"_sha256(b'{count}\\x1f' + {_encoding(schema.columns, sources)}).digest()"


def _indent(line: str) -> str:
    return "    " + line


def _block(lines) -> str:
    return "".join(f"    {line}\n" for line in lines)
