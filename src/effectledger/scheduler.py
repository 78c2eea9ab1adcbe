"""Intra-block staging with serial-equivalent results.

Three phases per block, all on the thread that runs the organization: (1)
semantic analysis turns each statement into accesses to one table: whether
it writes, and the interval each column it constrains and does not assign is
confined to.  For statements bound from a learned shape, analysis calls a
function compiled once per shape, in the organization's own plan, against
the catalog's schemas for the tables the shape names; it gives the accesses
the interpreter below would give, and is compiled again when those schemas
change.  (2) placement puts each transaction one stage past every earlier
transaction it conflicts with (StageTracker.add); (3) execution.  Any order
of a stage's members gives the same bits, digest and state, so the stages
describe the parallelism of the block, and block order is one of the orders
that give those results.  An organization (org.OrgNode) therefore takes each
transaction in block order, analyzes it, places it and executes it before
the next, keeping only the members of each stage; analysis reads the catalog
as of block start.  The dependency graph (build_dependency_graph, placing
through the same StageTracker.add) and execute_staged, which runs a block
stage by stage, each stage's members in block order, are the staged
reference that tests hold block-order execution to; `effectledger graph`
prints the graph.

The conflict rule.  Two accesses to the same table, at least one of them a
write, conflict unless a witness column separates them: a column that both
constrain, that neither assigns, and on which their intervals are disjoint.
Neither access then moves a row into or out of the other's interval, so the
two touch disjoint rows in either order.  WHERE conjuncts constrain columns;
an INSERT constrains its primary-key columns to the row's key, because its
success depends on whether that key exists, whatever the other columns hold.
A TEXT range (<, >, <=, >=, BETWEEN) constrains nothing: an engine with a
case-insensitive collation orders TEXT differently from a binary interval.
TEXT equality is binary on every engine, so a TEXT point does constrain.
Anything the analyzer cannot see through (DDL, statements against tables that
do not exist yet, unknown columns, malformed column lists) constrains nothing,
which serializes it against all other access to that table.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from decimal import Decimal

from .agreement import ParsedTransaction
from .engine.parser import (
    Bound,
    CreateTable,
    Delete,
    Insert,
    Select,
    Statement,
    Update,
    parse_script,
)
from .engine.types import Column, ColumnType
from .errors import BindError, ParseError


@dataclass(frozen=True)
class Interval:
    """Closed/open interval over one column's literal domain; None = unbounded."""

    low: object = None
    high: object = None
    low_open: bool = False
    high_open: bool = False

    @property
    def is_point(self) -> bool:
        return (
            self.low is not None
            and self.low == self.high
            and not self.low_open
            and not self.high_open
        )

    def is_empty(self) -> bool:
        if self.low is None or self.high is None:
            return False
        cmp = _compare(self.low, self.high)
        if cmp is None:
            return False
        if cmp > 0:
            return True
        return cmp == 0 and (self.low_open or self.high_open)

    def intersect(self, other: "Interval") -> "Interval":
        low, low_open = self.low, self.low_open
        if other.low is not None:
            cmp = _compare(other.low, low) if low is not None else 1
            if cmp is None:
                cmp = 1  # incomparable: keep tighter unknown, stay conservative
            if low is None or cmp > 0 or (cmp == 0 and other.low_open):
                low, low_open = other.low, other.low_open
        high, high_open = self.high, self.high_open
        if other.high is not None:
            cmp = _compare(other.high, high) if high is not None else -1
            if cmp is None:
                cmp = -1
            if high is None or cmp < 0 or (cmp == 0 and other.high_open):
                high, high_open = other.high, other.high_open
        return Interval(low, high, low_open, high_open)

    def overlaps(self, other: "Interval") -> bool:
        return not (_strictly_below(self, other) or _strictly_below(other, self))


def _compare(a, b):
    """Three-way compare; None when the literals are not comparable."""
    try:
        if a == b:
            return 0
        return -1 if a < b else 1
    except TypeError:
        return None


def _strictly_below(a: Interval, b: Interval) -> bool:
    if a.high is None or b.low is None:
        return False
    cmp = _compare(a.high, b.low)
    if cmp is None:
        return False  # incomparable literals: assume overlap
    return cmp < 0 or (cmp == 0 and (a.high_open or b.low_open))


@dataclass(slots=True)
class Access:
    """One statement's claim on the rows of one table.

    `witnesses` maps each column the statement constrains and does not
    assign onto the interval its rows lie in; with no witnesses the claim
    covers every row.
    """

    table: str
    write: bool
    witnesses: dict[str, Interval] = field(default_factory=dict)

    def conflicts_with(self, other: "Access") -> bool:
        if self.table != other.table or not (self.write or other.write):
            return False
        for column, interval in self.witnesses.items():
            theirs = other.witnesses.get(column)
            if theirs is not None and not interval.overlaps(theirs):
                return False  # separated on this witness column
        return True


@dataclass
class TxnAccessSet:
    """What one transaction reads and writes, plus its parsed statements
    (a Bound when a plan cache bound them)."""

    index: int
    accesses: tuple[Access, ...] = ()
    statements: Sequence[Statement] | None = None
    parse_error: str | None = None

    @property
    def analyzable(self) -> bool:
        return self.parse_error is None


def analyze_transaction(statements: Sequence[Statement], catalog) -> tuple[Access, ...]:
    """One parsed transaction's accesses, read against catalog.

    Statements bound from a shape whose accesses compile are analyzed by the
    compiled function; the rest by the interpreter.  Analysis never consults
    quirk settings, so organizations place the same stages from the same
    block and catalog.
    """
    if type(statements) is Bound:
        build = _compiled_accesses(statements.plan, catalog)
        if build is not None:
            return build(statements.values)
    accesses: list[Access] = []
    for stmt in statements:
        accesses.extend(_statement_accesses(stmt, catalog))
    return tuple(accesses)


def access_set(index: int, txn: ParsedTransaction | str, catalog) -> TxnAccessSet:
    """Transaction index's TxnAccessSet, for the graph.

    SQL text, as `effectledger graph` reads it from a file, is parsed here
    once.  Unparseable SQL yields parse_error set and no accesses; the
    transaction is pre-marked failed and never joins the graph.
    """
    if isinstance(txn, str):
        try:
            txn = ParsedTransaction(tuple(parse_script(txn)))
        except ParseError as exc:
            txn = ParsedTransaction(error=str(exc))
    if txn.error is not None:
        return TxnAccessSet(index, parse_error=txn.error)
    return TxnAccessSet(index, analyze_transaction(txn.statements, catalog), txn.statements)


class _CompiledAccesses:
    """A plan's accesses compiled against the schemas the catalog holds
    for the tables it names (None for a missing one): build(v) gives what
    analysis gives the shape bound with literal values v.  build is None
    when the interpreter analyzes the shape."""

    __slots__ = ("schemas", "build")

    def __init__(self, plan, catalog):
        template = plan.template
        self.schemas = tuple({stmt.table: catalog.get(stmt.table) for stmt in template}.items())
        try:
            sources = "".join(
                f"{_access_source(stmt, catalog, plan.rows)}, " for stmt in template
            )
        except _Uncompiled:
            self.build = None
        else:
            self.build = eval(f"lambda v: ({sources})", {"Access": Access, "Interval": Interval})

    def current(self, catalog) -> bool:
        for name, schema in self.schemas:
            now = catalog.get(name)
            if now is not schema and now != schema:
                return False
        return True


def _compiled_accesses(plan, catalog):
    """build of the plan's compiled accesses, compiled on first use and
    again when the catalog's schemas for its tables change."""
    compiled = plan.accesses
    if compiled is None or not compiled.current(catalog):
        compiled = plan.accesses = _CompiledAccesses(plan, catalog)
    if compiled.build is not None:
        plan.analyzed += 1
    return compiled.build


class _Uncompiled(Exception):
    """The interpreter analyzes the shape."""


def _access_source(stmt: Statement, catalog, rows: bool = False) -> str:
    """Source of what _statement_accesses gives one statement of a template,
    whose slot n reads v[n]: a coarse access when the table is missing or an
    INSERT does not fit it, else one access with a point witness per
    literal that constrains a column.  The one INSERT of a row shape (rows)
    has one such access per row r of v, whose slot n reads r[n].  Raises
    _Uncompiled for conditions other than equalities on distinct known
    columns, and for an INSERT key whose witness depends on the literal's
    digits."""
    schema = catalog.get(stmt.table)
    write = not isinstance(stmt, Select)
    if schema is None:
        return f"Access({stmt.table!r}, True)"
    if isinstance(stmt, Insert):
        (row,) = stmt.rows
        names = stmt.columns or tuple(c.name for c in schema.columns)
        if sorted(names) != sorted(c.name for c in schema.columns) or len(row) != len(names):
            return f"Access({stmt.table!r}, True)"
        points = {name: row[names.index(name)] for name in schema.primary_key}
        if any(
            schema.column(name).type is ColumnType.DECIMAL and slot.kind is Decimal
            for name, slot in points.items()
        ):
            raise _Uncompiled  # stored as given depends on the literal
    else:
        points = {}
        for cond in stmt.where:
            if cond.op != "=" or cond.column in points or cond.column not in schema._index:
                raise _Uncompiled
            points[cond.column] = cond.value
        if isinstance(stmt, Update):
            for name, _ in stmt.assignments:
                points.pop(name, None)
    values = "r" if rows else "v"
    witnesses = "".join(
        f"{name!r}: Interval({values}[{slot.n}], {values}[{slot.n}]), "
        for name, slot in points.items()
    )
    access = f"Access({stmt.table!r}, {write}, {{{witnesses}}})"
    return f"*({access} for r in v)" if rows else access


def _statement_accesses(stmt: Statement, catalog) -> list[Access]:
    if isinstance(stmt, CreateTable):
        return [Access(stmt.schema.name, True)]
    if isinstance(stmt, Insert):
        return _insert_accesses(stmt, catalog)
    if isinstance(stmt, Update):
        assigned = [name for name, _ in stmt.assignments]
        return _predicate_accesses(stmt.table, stmt.where, catalog, True, assigned)
    if isinstance(stmt, Delete):
        return _predicate_accesses(stmt.table, stmt.where, catalog, True)
    if isinstance(stmt, Select):
        return _predicate_accesses(stmt.table, stmt.where, catalog, False)
    return [Access(getattr(stmt, "table", "?"), True)]


def _insert_accesses(stmt: Insert, catalog) -> list[Access]:
    schema = catalog.get(stmt.table)
    if schema is None:
        return [Access(stmt.table, True)]
    names = stmt.columns or tuple(c.name for c in schema.columns)
    if sorted(names) != sorted(c.name for c in schema.columns) or any(
        len(row) != len(names) for row in stmt.rows
    ):
        # malformed against current schema; will fail at execution, stay coarse
        return [Access(stmt.table, True)]
    key = [(names.index(name), schema.column(name)) for name in schema.primary_key]
    out = []
    for row in stmt.rows:
        witnesses = {
            column.name: Interval(row[position], row[position])
            for position, column in key
            if _stored_as_given(column, row[position])
        }
        out.append(Access(stmt.table, True, witnesses))
    return out


def _stored_as_given(column: Column, literal) -> bool:
    """Whether an INSERT stores this key literal at its own value: a DECIMAL
    with more fractional digits than the column scale is rounded under the
    engine's quirks, to a value the analyzer does not know."""
    if column.type is ColumnType.DECIMAL and isinstance(literal, Decimal):
        return literal.as_tuple().exponent >= -column.scale
    return True


def _predicate_accesses(table: str, where, catalog, write: bool, assigned=()) -> list[Access]:
    schema = catalog.get(table)
    if schema is None:
        return [Access(table, True)]
    witnesses: dict[str, Interval] = {}
    for cond in where:
        try:
            column = schema.column(cond.column)
        except BindError:
            return [Access(table, write)]  # fails at execution
        interval = _condition_interval(cond, column)
        if interval is None:
            continue
        known = witnesses.get(cond.column)
        witnesses[cond.column] = interval if known is None else known.intersect(interval)
    if any(iv.is_empty() for iv in witnesses.values()):
        return []  # provably matches nothing
    for name in assigned:
        witnesses.pop(name, None)
    return [Access(table, write, witnesses)]


def _condition_interval(cond, column: Column) -> Interval | None:
    """Interval matched by one comparison; None when it constrains nothing
    (a TEXT range, whose order depends on the engine's collation)."""
    if cond.op == "=":
        return Interval(cond.value, cond.value)
    if column.type is ColumnType.TEXT:
        return None
    is_int = column.type is ColumnType.INT and isinstance(cond.value, int)
    if cond.op == "between":
        return Interval(cond.value, cond.high)
    if cond.op == "<":
        if is_int:
            return Interval(None, cond.value - 1)
        return Interval(None, cond.value, high_open=True)
    if cond.op == ">":
        if is_int:
            return Interval(cond.value + 1, None)
        return Interval(cond.value, None, low_open=True)
    if cond.op == "<=":
        return Interval(None, cond.value)
    return Interval(cond.value, None)  # >=


class DependencyGraph:
    """Conflict relation and execution stages for one block.

    Stages are computed eagerly in one pass; every transaction's stage is
    past the stages of all earlier transactions it conflicts with.  The
    explicit edge set (every conflicting pair i < j) is quadratic in the
    hot-key count for a skewed block, so it is built lazily on first access;
    execution only needs the stages.
    """

    def __init__(self, access_sets: list[TxnAccessSet]):
        self.access_sets = list(access_sets)
        self.node_count = len(self.access_sets)
        self.nodes: list[int] = []  # analyzable txn indices
        self.stages: list[list[int]] = []
        self.parse_failed: list[int] = []
        self._stage_of: dict[int, int] = {}
        self._edges: set[tuple[int, int]] | None = None

    @property
    def edges(self) -> set[tuple[int, int]]:
        if self._edges is None:
            self._edges = set()
            usable = [a for a in self.access_sets if a.analyzable]
            for x, a in enumerate(usable):
                for b in usable[x + 1:]:
                    if _sets_conflict(a, b):
                        self._edges.add((a.index, b.index))
        return self._edges

    def predecessors(self, j: int) -> list[int]:
        return sorted(i for i, k in self.edges if k == j)

    def stage_of(self, index: int) -> int:
        return self._stage_of[index]  # KeyError for a parse-failed index

    def to_dot(self) -> str:
        lines = ["digraph block {"]
        for s, members in enumerate(self.stages):
            for i in members:
                lines.append(f'  t{i} [label="T{i} stage {s}"];')
        for i in self.parse_failed:
            lines.append(f'  t{i} [label="T{i} parse-failed" shape=box];')
        for i, j in sorted(self.edges):
            lines.append(f"  t{i} -> t{j};")
        lines.append("}")
        return "\n".join(lines)


def _sets_conflict(a: TxnAccessSet, b: TxnAccessSet) -> bool:
    return any(x.conflicts_with(y) for x in a.accesses for y in b.accesses)


class StageTracker:
    """Highest stages placed so far on each table, as [read, write] pairs.

    `every` covers all accesses to a table.  Per witness column some access
    had, `free` covers the accesses without that witness, while those with it
    are indexed by interval: a point by value, a range in a scannable list.
    A query bounds, through each of the access's witness columns, the highest
    stage among earlier accesses it may conflict with, and keeps the lowest
    bound.  The bound is exact when accesses have one witness column each, as
    Smallbank's do.  `stages` lists the members placed in each stage.
    """

    def __init__(self):
        self.tables: dict[str, _TableStages] = {}
        self.stages: list[list[int]] = []

    def add(self, accesses: tuple[Access, ...], member: int) -> int:
        """Place member, a transaction with these accesses, one stage past
        every earlier one it conflicts with; returns its stage."""
        stage = 0
        for access in accesses:
            stage = max(stage, self.query(access) + 1)
        for access in accesses:
            self.place(access, stage)
        if stage == len(self.stages):
            self.stages.append([])
        self.stages[stage].append(member)
        return stage

    def query(self, access: Access) -> int:
        table = self.tables.get(access.table)
        if table is None:
            return -1
        write = access.write
        best = _highest(table.every, write)
        for column, interval in access.witnesses.items():
            stages = table.columns.get(column)
            if stages is None:
                continue  # no earlier access had this witness: the bound is `every`
            bound = _highest(stages.free, write)
            if interval.is_point:
                pair = stages.points.get(interval.low)
                if pair is not None:
                    bound = max(bound, _highest(pair, write))
            else:
                for value, pair in stages.points.items():
                    if interval.overlaps(Interval(value, value)):
                        bound = max(bound, _highest(pair, write))
            for other, pair in stages.ranges:
                if interval.overlaps(other):
                    bound = max(bound, _highest(pair, write))
            if bound < best:
                best = bound
        return best

    def place(self, access: Access, stage: int):
        slot = 1 if access.write else 0
        table = self.tables.get(access.table)
        if table is None:
            table = self.tables[access.table] = _TableStages()
        witnesses = access.witnesses
        for column, stages in table.columns.items():
            if column not in witnesses and stage > stages.free[slot]:
                stages.free[slot] = stage
        for column, interval in witnesses.items():
            stages = table.columns.get(column)
            if stages is None:
                # every earlier access lacked this witness
                stages = table.columns[column] = _ColumnStages(list(table.every))
            if interval.is_point:
                pair = stages.points.setdefault(interval.low, [-1, -1])
            else:
                pair = [-1, -1]
                stages.ranges.append((interval, pair))
            if stage > pair[slot]:
                pair[slot] = stage
        if stage > table.every[slot]:
            table.every[slot] = stage


def _highest(pair: list[int], write: bool) -> int:
    """The highest stage in a [read, write] pair that an access conflicts
    with: the higher of the two for a write, the write stage for a read."""
    if write and pair[0] > pair[1]:
        return pair[0]
    return pair[1]


class _TableStages:
    __slots__ = ("every", "columns")

    def __init__(self):
        self.every = [-1, -1]
        self.columns: dict[str, _ColumnStages] = {}


class _ColumnStages:
    __slots__ = ("free", "points", "ranges")

    def __init__(self, free: list[int]):
        self.free = free
        self.points: dict[object, list[int]] = {}
        self.ranges: list[tuple[Interval, list[int]]] = []


def build_dependency_graph(access_sets: list[TxnAccessSet]) -> DependencyGraph:
    """Stage each transaction past every earlier transaction it conflicts
    with, through the StageTracker.add that an organization places with."""
    graph = DependencyGraph(access_sets)
    tracker = StageTracker()
    for acc in access_sets:
        if acc.analyzable:
            graph.nodes.append(acc.index)
            graph._stage_of[acc.index] = tracker.add(acc.accesses, acc.index)
        else:
            graph.parse_failed.append(acc.index)
    graph.stages = tracker.stages
    return graph


def execute_staged(
    graph: DependencyGraph, block: list[TxnAccessSet], db, digest=None
) -> list[bool]:
    """Run a block stage by stage, each stage's members in block order, on
    the calling thread; returns one success bit per transaction.

    Parse-failed transactions keep bit 0 without executing.
    """
    statements = {acc.index: acc.statements for acc in block}
    bits = [False] * graph.node_count
    for members in graph.stages:
        for index in members:
            bits[index] = db.execute_transaction(statements[index], digest).success
    return bits
