"""In-memory relational engine with block-scoped change capture.

Tables live as pk -> row dicts.  Transactions are all-or-nothing: statement
failure rolls back every change the transaction made and drops its pending
digest tuples.  Successful transactions flush one digest tuple per row change
to the block's digest sink (INSERT/UPDATE hash the post-change row, DELETE the
pre-delete row).  SELECT never emits digests.

Concurrency model: the scheduler guarantees that concurrently executed
transactions are conflict-free, so the per-table latch here is purely for
physical consistency of the dicts, not for isolation.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

from ..errors import (
    BindError,
    ConstraintViolation,
    EngineFailure,
    ParseError,
    SchemaMismatch,
)
from ..ledger import ChangeType
from .parser import (
    ColumnRef,
    Condition,
    CreateTable,
    Delete,
    Insert,
    Select,
    Statement,
    Update,
    parse_script,
)
from .types import (
    DECIMAL_CONTEXT,
    DECIMAL_QUANTA,
    Column,
    ColumnType,
    QuirkConfig,
    TableSchema,
    UNIT_SEP,
    canonical_value_bytes,
    coerce_value,
    encode_row,
    ordering_key,
    pk_bytes,
)


def row_hash(schema: TableSchema, row: tuple) -> bytes:
    return hashlib.sha256(encode_row(schema, row)).digest()


@dataclass(frozen=True)
class TableSnapshot:
    schema: TableSchema
    rows: tuple[tuple, ...]


class Table:
    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.rows: dict[bytes, tuple] = {}
        self.lock = threading.Lock()

    def snapshot(self) -> TableSnapshot:
        return TableSnapshot(self.schema, tuple(self.rows.values()))

    def restore(self, snapshot: TableSnapshot):
        if snapshot.schema != self.schema:
            raise SchemaMismatch(f"table {self.schema.name}: snapshot schema differs")
        self.rows = {pk_bytes(self.schema, row): row for row in snapshot.rows}


@dataclass
class TransactionResult:
    success: bool
    error: str | None = None
    # one entry per statement: affected row count for DML/DDL, row list for SELECT
    outputs: list = field(default_factory=list)


class _TxnContext:
    """Undo log and pending digest tuples for one open transaction."""

    def __init__(self):
        self.undo: list[tuple] = []
        self.pending: list[tuple[str, bytes, bytes, ChangeType]] = []
        self.created: list[str] = []


class Database:
    """One organization's execution engine."""

    def __init__(self, quirks: QuirkConfig | None = None):
        self.quirks = quirks or QuirkConfig()
        self.tables: dict[str, Table] = {}
        self._catalog_lock = threading.Lock()
        self.failed = False  # set by fault injection to model engine loss

    # ---- catalog ----

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise BindError(f"unknown table {name}") from None

    def schema(self, name: str) -> TableSchema:
        return self.table(name).schema

    def table_names(self) -> set[str]:
        return set(self.tables)

    # ---- statement / transaction execution ----

    def execute_transaction(self, statements, digest=None) -> TransactionResult:
        """Run statements atomically; flush digest tuples only on success."""
        if self.failed:
            raise EngineFailure("engine marked unavailable")
        if isinstance(statements, str):
            try:
                statements = parse_script(statements)
            except ParseError as exc:
                return TransactionResult(False, str(exc))
        ctx = _TxnContext()
        result = TransactionResult(True)
        try:
            for stmt in statements:
                result.outputs.append(self._execute(stmt, ctx))
        except (BindError, ConstraintViolation) as exc:
            self._rollback(ctx)
            return TransactionResult(False, str(exc))
        if digest is not None:
            for entry in ctx.pending:
                digest.record(*entry)
        return result

    def _execute(self, stmt: Statement, ctx: _TxnContext):
        if isinstance(stmt, CreateTable):
            return self._create_table(stmt, ctx)
        if isinstance(stmt, Insert):
            return self._insert(stmt, ctx)
        if isinstance(stmt, Update):
            return self._update(stmt, ctx)
        if isinstance(stmt, Delete):
            return self._delete(stmt, ctx)
        if isinstance(stmt, Select):
            return self._select(stmt)
        raise BindError(f"unsupported statement {type(stmt).__name__}")

    def _rollback(self, ctx: _TxnContext):
        for entry in reversed(ctx.undo):
            kind, name = entry[0], entry[1]
            if kind == "create":
                with self._catalog_lock:
                    self.tables.pop(name, None)
                continue
            table = self.tables[name]
            pk, old_row = entry[2], entry[3]
            with table.lock:
                if kind == "insert":
                    table.rows.pop(pk, None)
                else:  # update / delete
                    table.rows[pk] = old_row

    def _create_table(self, stmt: CreateTable, ctx: _TxnContext) -> int:
        name = stmt.schema.name
        with self._catalog_lock:
            if name in self.tables:
                raise ConstraintViolation(f"table {name} already exists")
            self.tables[name] = Table(stmt.schema)
        ctx.undo.append(("create", name))
        ctx.created.append(name)
        return 0

    def _insert(self, stmt: Insert, ctx: _TxnContext) -> int:
        table = self.table(stmt.table)
        schema = table.schema
        if stmt.columns is None:
            order = list(range(len(schema.columns)))
        else:
            if sorted(stmt.columns) != sorted(c.name for c in schema.columns):
                raise BindError(
                    f"table {schema.name}: column list must cover every column"
                )
            order = [schema.column_index(c) for c in stmt.columns]
        count = 0
        for values in stmt.rows:
            if len(values) != len(schema.columns):
                raise BindError(
                    f"table {schema.name}: expected {len(schema.columns)} values"
                )
            row = [None] * len(schema.columns)
            for slot, raw in zip(order, values):
                row[slot] = coerce_value(schema.columns[slot], raw, self.quirks)
            row = tuple(row)
            pk = pk_bytes(schema, row)
            with table.lock:
                if pk in table.rows:
                    raise ConstraintViolation(
                        f"table {schema.name}: duplicate primary key"
                    )
                table.rows[pk] = row
            ctx.undo.append(("insert", schema.name, pk, None))
            ctx.pending.append((schema.name, pk, row_hash(schema, row), ChangeType.INSERT))
            count += 1
        return count

    def _update(self, stmt: Update, ctx: _TxnContext) -> int:
        table = self.table(stmt.table)
        schema = table.schema
        pk_names = set(schema.primary_key)
        targets = []
        for col_name, expr in stmt.assignments:
            if col_name in pk_names:
                raise BindError(f"cannot assign primary key column {col_name}")
            targets.append((schema.column_index(col_name), expr))
            for ref in expr.referenced_columns():
                schema.column_index(ref)  # bind check
        self._bind_where(schema, stmt.where)
        count = 0
        with table.lock:
            for pk, row in self._matching(table, stmt.where):
                new_row = list(row)
                for idx, expr in targets:
                    value = self._eval_expr(schema, expr, row)
                    new_row[idx] = coerce_value(schema.columns[idx], value, self.quirks)
                new_row = tuple(new_row)
                count += 1
                if new_row == row and not self.quirks.update_noop_emits_digest:
                    continue
                ctx.undo.append(("update", schema.name, pk, row))
                table.rows[pk] = new_row
                ctx.pending.append(
                    (schema.name, pk, row_hash(schema, new_row), ChangeType.UPDATE)
                )
        return count

    def _delete(self, stmt: Delete, ctx: _TxnContext) -> int:
        table = self.table(stmt.table)
        schema = table.schema
        self._bind_where(schema, stmt.where)
        count = 0
        with table.lock:
            for pk, row in self._matching(table, stmt.where):
                ctx.undo.append(("delete", schema.name, pk, row))
                # hash of the state being removed, taken before removal
                ctx.pending.append(
                    (schema.name, pk, row_hash(schema, row), ChangeType.DELETE)
                )
                del table.rows[pk]
                count += 1
        return count

    def _select(self, stmt: Select) -> list[tuple]:
        table = self.table(stmt.table)
        schema = table.schema
        self._bind_where(schema, stmt.where)
        if stmt.columns is None:
            project = None
        else:
            project = [schema.column_index(c) for c in stmt.columns]
        rows = []
        with table.lock:
            for _, row in self._matching(table, stmt.where):
                rows.append(row if project is None else tuple(row[i] for i in project))
        return rows

    def _eval_expr(self, schema: TableSchema, expr, row: tuple):
        resolved = [
            (sign, row[schema.column_index(term.name)] if isinstance(term, ColumnRef) else term)
            for sign, term in expr.terms
        ]
        if len(resolved) == 1 and resolved[0][0] == 1:
            return resolved[0][1]  # plain copy; may be TEXT
        total = 0  # int and Decimal mix exactly under decimal arithmetic
        for sign, value in resolved:
            if isinstance(value, str):
                raise BindError("arithmetic over TEXT is not supported")
            if isinstance(total, Decimal) or isinstance(value, Decimal):
                combine = DECIMAL_CONTEXT.add if sign > 0 else DECIMAL_CONTEXT.subtract
                total = combine(total, value)
            else:
                total = total + value if sign > 0 else total - value
        return total

    # ---- predicate evaluation ----

    def _bind_where(self, schema: TableSchema, where: tuple[Condition, ...]):
        for cond in where:
            column = schema.column(cond.column)
            literals = (cond.value, cond.high) if cond.op == "between" else (cond.value,)
            for lit in literals:
                if column.type is ColumnType.TEXT:
                    if not isinstance(lit, str):
                        raise BindError(f"column {column.name}: TEXT comparison needs a string")
                elif isinstance(lit, str):
                    raise BindError(f"column {column.name}: numeric comparison needs a number")

    def _matching(self, table: Table, where: tuple[Condition, ...]):
        """Yield (pk, row) pairs matching a conjunction, snapshot before mutation."""
        schema = table.schema
        fast = self._pk_probe(schema, where)
        if fast is not None:
            probe, residual = fast
            if probe is _NO_MATCH:
                return []
            row = table.rows.get(probe)
            if row is None:
                return []
            if all(self._cond_holds(schema, c, row) for c in residual):
                return [(probe, row)]
            return []
        return [
            (pk, row)
            for pk, row in list(table.rows.items())
            if all(self._cond_holds(schema, c, row) for c in where)
        ]

    def _pk_probe(self, schema: TableSchema, where):
        """Point lookup when equality conditions pin every pk column."""
        eq: dict[str, object] = {}
        residual = []
        for cond in where:
            if cond.op == "=" and cond.column in schema.primary_key and cond.column not in eq:
                eq[cond.column] = cond.value
            else:
                residual.append(cond)
        if set(eq) != set(schema.primary_key):
            return None
        parts = []
        for name in schema.primary_key:
            column = schema.column(name)
            value = _exact_domain_value(column, eq[name])
            if value is _NO_MATCH:
                return _NO_MATCH, residual
            parts.append(canonical_value_bytes(column, value))
        return UNIT_SEP.join(parts), residual

    def _cond_holds(self, schema: TableSchema, cond: Condition, row: tuple) -> bool:
        column = schema.column(cond.column)
        value = row[schema.column_index(cond.column)]
        if cond.op == "=":
            return value == cond.value  # binary on TEXT, numeric on int/Decimal
        key = ordering_key(column, value, self.quirks)
        if cond.op == "between":
            low = _literal_key(column, cond.value, self.quirks)
            high = _literal_key(column, cond.high, self.quirks)
            return low <= key <= high
        lit = _literal_key(column, cond.value, self.quirks)
        if cond.op == "<":
            return key < lit
        if cond.op == ">":
            return key > lit
        if cond.op == "<=":
            return key <= lit
        return key >= lit

    # ---- snapshots and dumps ----

    def snapshot_all(self) -> dict[str, TableSnapshot]:
        return {name: t.snapshot() for name, t in self.tables.items()}

    def restore_all(self, snapshots: dict[str, TableSnapshot]):
        """Reset the database to exactly the given table set."""
        with self._catalog_lock:
            self.tables = {}
            for name, snap in snapshots.items():
                table = Table(snap.schema)
                table.restore(snap)
                self.tables[name] = table

    def reset(self):
        with self._catalog_lock:
            self.tables = {}

    def dump_table(self, name: str) -> bytes:
        """One row per line, canonical values 0x1F-separated, sorted by PK."""
        table = self.table(name)
        schema = table.schema
        lines = []
        for row in sorted(table.rows.values(), key=lambda r: tuple(r[i] for i in schema.pk_indices)):
            lines.append(
                UNIT_SEP.join(
                    canonical_value_bytes(c, v) for c, v in zip(schema.columns, row)
                )
            )
        return b"\n".join(lines) + (b"\n" if lines else b"")

    def dump_all(self) -> bytes:
        """Whole-state dump with schema headers, tables sorted by name."""
        out = []
        for name in sorted(self.tables):
            schema = self.tables[name].schema
            cols = ",".join(
                f"{c.name}:{c.type.value}" + (f":{c.scale}" if c.type is ColumnType.DECIMAL else "")
                for c in schema.columns
            )
            out.append(f"== {name}\n".encode())
            out.append(f"#schema {cols} pk={','.join(schema.primary_key)}\n".encode())
            out.append(self.dump_table(name))
        return b"".join(out)

    def state_hash(self) -> bytes:
        return hashlib.sha256(self.dump_all()).digest()

    @classmethod
    def load_dump(cls, data: bytes, quirks: QuirkConfig | None = None) -> "Database":
        if isinstance(data, str):
            data = data.encode("utf-8")
        db = cls(quirks)
        current_name = None
        schema = None
        for raw_line in data.split(b"\n"):
            if not raw_line:
                continue
            if raw_line.startswith(b"== "):
                current_name = raw_line[3:].decode("utf-8").strip()
                schema = None
                continue
            if raw_line.startswith(b"#schema "):
                if current_name is None:
                    raise SchemaMismatch("schema header outside table context")
                schema = _parse_schema_header(current_name, raw_line.decode("utf-8"))
                db.tables[current_name] = Table(schema)
                continue
            if schema is None:
                raise SchemaMismatch("dump row before schema header")
            values = raw_line.split(UNIT_SEP)
            if len(values) != len(schema.columns):
                raise SchemaMismatch(f"table {schema.name}: bad dump row width")
            row = tuple(
                _decode_canonical(col, v) for col, v in zip(schema.columns, values)
            )
            db.tables[schema.name].rows[pk_bytes(schema, row)] = row
        return db


_NO_MATCH = object()


def _literal_key(column: Column, literal, quirks: QuirkConfig):
    if column.type is ColumnType.TEXT:
        return ordering_key(column, literal, quirks)
    return literal


def _exact_domain_value(column: Column, literal):
    """Map an equality literal into the column domain, or prove no row matches."""
    if column.type is ColumnType.INT:
        if isinstance(literal, Decimal):
            if literal != literal.to_integral_value():
                return _NO_MATCH
            literal = int(literal)
        if not isinstance(literal, int) or isinstance(literal, bool):
            raise BindError(f"column {column.name}: INT comparison needs a number")
        return literal
    if column.type is ColumnType.TEXT:
        return literal
    value = Decimal(literal)
    try:
        quantized = value.quantize(DECIMAL_QUANTA[column.scale], context=DECIMAL_CONTEXT)
    except InvalidOperation:
        return _NO_MATCH
    if quantized != value:
        return _NO_MATCH
    return quantized.copy_abs() if quantized.is_zero() else quantized


def _parse_schema_header(name: str, line: str) -> TableSchema:
    # "#schema col:TYPE[:scale],... pk=c1,c2"
    try:
        body = line[len("#schema "):]
        cols_part, pk_part = body.rsplit(" pk=", 1)
        columns = []
        for spec in cols_part.split(","):
            bits = spec.split(":")
            ctype = ColumnType[bits[1]]
            scale = int(bits[2]) if len(bits) > 2 else 0
            columns.append(Column(bits[0], ctype, scale))
        return TableSchema(name, tuple(columns), tuple(pk_part.split(",")))
    except (ValueError, IndexError, KeyError) as exc:
        raise SchemaMismatch(f"bad schema header for {name}: {exc}") from None


def _decode_canonical(column: Column, raw: bytes):
    if column.type is ColumnType.INT:
        return int(raw)
    if column.type is ColumnType.TEXT:
        return raw.decode("utf-8")
    return Decimal(raw.decode("ascii"))
