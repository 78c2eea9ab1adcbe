"""Intra-block parallel execution with serial-equivalent results.

Three phases per block: (1) semantic analysis extracts, per transaction, the
column intervals it reads and writes, keyed by the WHERE predicate columns;
(2) a dependency graph gets an edge i -> j (i < j in block order) whenever the
two access sets conflict on an overlapping interval of the same table and
column with at least one write; (3) transactions execute stage by stage, where
a transaction's stage is one past its highest-staged predecessor, with a
barrier between stages and k sessions pulling work inside a stage.

Anything the analyzer cannot see through (DDL, statements against tables that
do not exist yet, malformed column lists) is treated as a full-domain write on
every column of the table, which serializes it against all other access to
that table.  Conflicts are keyed on predicate columns: two UPDATEs whose WHERE
clauses overlap conflict no matter which columns they SET.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .agreement import ParsedTransaction
from .engine.parser import (
    CreateTable,
    Delete,
    Insert,
    Select,
    Statement,
    Update,
    parse_script,
)
from .engine.types import ColumnType, TableSchema
from .errors import BindError, ParseError

ALL_COLUMNS = "*"


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


FULL_INTERVAL = Interval()


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


@dataclass(frozen=True)
class AccessInterval:
    table: str
    column: str  # ALL_COLUMNS means every column of the table
    interval: Interval
    write: bool

    def conflicts_with(self, other: "AccessInterval") -> bool:
        if self.table != other.table or not (self.write or other.write):
            return False
        if self.column == ALL_COLUMNS or other.column == ALL_COLUMNS:
            return True
        if self.column != other.column:
            return False
        return self.interval.overlaps(other.interval)


@dataclass
class TxnAccessSet:
    """What one transaction reads and writes, plus its parsed statements."""

    index: int
    intervals: tuple[AccessInterval, ...] = ()
    statements: tuple[Statement, ...] | None = None
    parse_error: str | None = None

    @property
    def analyzable(self) -> bool:
        return self.parse_error is None


def analyze_transaction(
    index: int, txn: ParsedTransaction | str, catalog: dict[str, TableSchema]
) -> TxnAccessSet:
    """Extract one transaction's access intervals from its parsed statements.

    An organization passes the ParsedTransaction it verified, so the SQL is
    not parsed again.  SQL text, as replay reads it back from the ledger, is
    parsed here once.  Unparseable SQL yields parse_error set and no
    intervals; the transaction is pre-marked failed and never joins the
    graph.  Interval extraction never consults quirk settings, so identically
    configured organizations build the same graph from the same block.
    """
    if isinstance(txn, str):
        try:
            txn = ParsedTransaction(tuple(parse_script(txn)))
        except ParseError as exc:
            txn = ParsedTransaction(error=str(exc))
    if txn.error is not None:
        return TxnAccessSet(index, parse_error=txn.error)
    intervals: list[AccessInterval] = []
    for stmt in txn.statements:
        intervals.extend(_statement_intervals(stmt, catalog))
    return TxnAccessSet(index, tuple(intervals), txn.statements)


def _statement_intervals(stmt: Statement, catalog) -> list[AccessInterval]:
    if isinstance(stmt, CreateTable):
        return [AccessInterval(stmt.schema.name, ALL_COLUMNS, FULL_INTERVAL, True)]
    if isinstance(stmt, Insert):
        return _insert_intervals(stmt, catalog)
    if isinstance(stmt, (Update, Delete)):
        return _predicate_intervals(stmt.table, stmt.where, catalog, write=True)
    if isinstance(stmt, Select):
        return _predicate_intervals(stmt.table, stmt.where, catalog, write=False)
    return [AccessInterval(getattr(stmt, "table", "?"), ALL_COLUMNS, FULL_INTERVAL, True)]


def _insert_intervals(stmt: Insert, catalog) -> list[AccessInterval]:
    schema = catalog.get(stmt.table)
    if schema is None:
        return [AccessInterval(stmt.table, ALL_COLUMNS, FULL_INTERVAL, True)]
    names = stmt.columns or tuple(c.name for c in schema.columns)
    if sorted(names) != sorted(c.name for c in schema.columns) or any(
        len(row) != len(names) for row in stmt.rows
    ):
        # malformed against current schema; will fail at execution, stay coarse
        return [AccessInterval(stmt.table, ALL_COLUMNS, FULL_INTERVAL, True)]
    out = []
    for row in stmt.rows:
        for name, value in zip(names, row):
            out.append(AccessInterval(stmt.table, name, Interval(value, value), True))
    return out


def _predicate_intervals(table: str, where, catalog, write: bool) -> list[AccessInterval]:
    schema = catalog.get(table)
    if schema is None:
        return [AccessInterval(table, ALL_COLUMNS, FULL_INTERVAL, True)]
    if not where:
        # unqualified statement touches every row of every column
        return [AccessInterval(table, ALL_COLUMNS, FULL_INTERVAL, write)]
    per_column: dict[str, Interval] = {}
    for cond in where:
        interval = _condition_interval(cond, schema)
        if interval is None:
            return [AccessInterval(table, ALL_COLUMNS, FULL_INTERVAL, write)]
        known = per_column.get(cond.column, FULL_INTERVAL)
        per_column[cond.column] = known.intersect(interval)
    if any(iv.is_empty() for iv in per_column.values()):
        return []  # provably matches nothing
    return [AccessInterval(table, col, iv, write) for col, iv in per_column.items()]


def _condition_interval(cond, schema: TableSchema) -> Interval | None:
    """Interval matched by one comparison; None when the column is unknown."""
    try:
        column = schema.column(cond.column)
    except BindError:
        return None
    is_int = column.type is ColumnType.INT and isinstance(cond.value, int)
    if cond.op == "=":
        return Interval(cond.value, cond.value)
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

    Stages are computed eagerly in one pass.  The explicit edge set is the
    same relation (every conflicting pair i < j) but materializing it for a
    skewed block is quadratic in the hot-key count, so it is built lazily on
    first access; execution only needs the stages.
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
        if index not in self._stage_of:
            raise KeyError(index)
        return self._stage_of[index]

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
    return any(x.conflicts_with(y) for x in a.intervals for y in b.intervals)


class _StageTracker:
    """Highest stage placed so far, indexed the way conflicts are keyed.

    For each (table, column) bucket, point accesses keep a [read, write]
    stage-maximum pair per exact value and range accesses a scannable list;
    full-table wildcard accesses and per-table grand totals resolve the
    ALL_COLUMNS cases.  A query returns the highest stage among earlier
    accesses that would conflict, which is all the graph's stage rule needs.
    """

    def __init__(self):
        self.buckets: dict[str, dict[str, _Bucket]] = {}
        self.table_all: dict[str, list[int]] = {}  # any access on table
        self.table_star: dict[str, list[int]] = {}  # wildcard accesses only

    def query(self, ai: AccessInterval) -> int:
        best = -1

        def fold(pair):
            nonlocal best
            if pair is not None:
                candidate = max(pair) if ai.write else pair[1]
                if candidate > best:
                    best = candidate

        fold(self.table_star.get(ai.table))
        if ai.column == ALL_COLUMNS:
            fold(self.table_all.get(ai.table))
            return best
        column_buckets = self.buckets.get(ai.table)
        bucket = column_buckets.get(ai.column) if column_buckets else None
        if bucket is None:
            return best
        if ai.interval.is_point:
            fold(bucket.points.get(ai.interval.low))
        else:
            for value, pair in bucket.points.items():
                if ai.interval.overlaps(Interval(value, value)):
                    fold(pair)
        for interval, pair in bucket.ranges:
            if ai.interval.overlaps(interval):
                fold(pair)
        return best

    def place(self, ai: AccessInterval, stage: int):
        slot = 1 if ai.write else 0

        def bump(pair):
            if stage > pair[slot]:
                pair[slot] = stage

        bump(self.table_all.setdefault(ai.table, [-1, -1]))
        if ai.column == ALL_COLUMNS:
            bump(self.table_star.setdefault(ai.table, [-1, -1]))
            return
        bucket = self.buckets.setdefault(ai.table, {}).setdefault(ai.column, _Bucket())
        if ai.interval.is_point:
            bump(bucket.points.setdefault(ai.interval.low, [-1, -1]))
        else:
            pair = [-1, -1]
            bump(pair)
            bucket.ranges.append((ai.interval, pair))


class _Bucket:
    """Per (table, column) stage maxima: points by value, ranges as a list."""

    __slots__ = ("points", "ranges")

    def __init__(self):
        self.points: dict[object, list[int]] = {}
        self.ranges: list[tuple[Interval, list[int]]] = []


def build_dependency_graph(access_sets: list[TxnAccessSet]) -> DependencyGraph:
    """Stage each transaction one past its highest-staged conflicting predecessor."""
    graph = DependencyGraph(access_sets)
    tracker = _StageTracker()
    for acc in access_sets:
        if not acc.analyzable:
            graph.parse_failed.append(acc.index)
            continue
        graph.nodes.append(acc.index)
        stage = 0
        for ai in acc.intervals:
            stage = max(stage, tracker.query(ai) + 1)
        for ai in acc.intervals:
            tracker.place(ai, stage)
        graph._stage_of[acc.index] = stage
        while len(graph.stages) <= stage:
            graph.stages.append([])
        graph.stages[stage].append(acc.index)
    return graph


def execute_staged(
    graph: DependencyGraph,
    block: list[TxnAccessSet],
    db,
    sessions: int = 1,
    digest=None,
) -> list[bool]:
    """Run a block stage by stage; returns one success bit per transaction.

    Parse-failed transactions keep bit 0 without executing.  Within a stage,
    `sessions` worker threads pull transactions; the conflict-freedom of a
    stage makes any interleaving equivalent to block order.
    """
    by_index = {acc.index: acc for acc in block}
    bits = [False] * graph.node_count

    def run_one(index: int) -> bool:
        acc = by_index[index]
        return db.execute_transaction(acc.statements, digest).success

    if sessions <= 1:
        for members in graph.stages:
            for index in members:
                bits[index] = run_one(index)
        return bits

    with ThreadPoolExecutor(max_workers=sessions) as pool:
        for members in graph.stages:
            if len(members) == 1:
                bits[members[0]] = run_one(members[0])
                continue
            for index, ok in zip(members, pool.map(run_one, members)):
                bits[index] = ok  # barrier: map drains the stage
    return bits
