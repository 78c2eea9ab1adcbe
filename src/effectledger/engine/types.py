"""Value domain, table schemas, and per-engine quirk switches.

Three column types are supported: 64-bit signed INT, TEXT, and DECIMAL with a
per-column scale.  NULL does not exist anywhere.  Every stored value has a
single canonical byte encoding, so identically configured engines hash
identical state to identical bytes.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass, field
from enum import Enum

from ..errors import BindError, ConfigError, ConstraintViolation

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# Separator between canonical values inside one encoded row.
UNIT_SEP = b"\x1f"

MAX_SCALE = 30  # most fractional digits a DECIMAL column may declare

# Significant digits of DECIMAL arithmetic: any value with up to 18 integer
# digits (as many as an INT has, less one) at the largest scale.
DECIMAL_PRECISION = MAX_SCALE + 18

# The one context of all DECIMAL rounding and arithmetic.  It is passed
# explicitly, never installed as the thread's context, so a value never
# depends on which thread computed it or on a context a caller installed.
DECIMAL_CONTEXT = decimal.Context(
    prec=DECIMAL_PRECISION,
    rounding=decimal.ROUND_HALF_EVEN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)

# DECIMAL quantum per column scale: DECIMAL_QUANTA[2] is Decimal("0.01")
DECIMAL_QUANTA = tuple(decimal.Decimal(1).scaleb(-s) for s in range(MAX_SCALE + 1))


class ColumnType(str, Enum):
    INT = "INT"
    TEXT = "TEXT"
    DECIMAL = "DECIMAL"


class DecimalRounding(str, Enum):
    """How a value with excess fractional digits is fitted to column scale."""

    HALF_EVEN = "half_even"
    TRUNCATE = "truncate"


class TextCollation(str, Enum):
    """Collation used for ordering comparisons on TEXT columns.

    Equality stays binary under both settings; only <, >, <=, >= and BETWEEN
    are affected.  Primary-key identity is therefore collation-independent.
    """

    BINARY = "binary"
    CASE_INSENSITIVE = "case_insensitive"


@dataclass(frozen=True)
class QuirkConfig:
    """Behavioral switches that real engines disagree on.

    Two engines with equal QuirkConfig must produce byte-identical effects for
    the same statement sequence; flipping any switch is allowed to (and for
    exercised workloads will) diverge the effect hashes.
    """

    decimal_rounding: DecimalRounding = DecimalRounding.HALF_EVEN
    text_collation_for_order: TextCollation = TextCollation.BINARY
    update_noop_emits_digest: bool = True

    def __post_init__(self):
        # accept plain strings; downstream checks compare enum identity
        object.__setattr__(
            self, "decimal_rounding", DecimalRounding(self.decimal_rounding)
        )
        object.__setattr__(
            self,
            "text_collation_for_order",
            TextCollation(self.text_collation_for_order),
        )

    @classmethod
    def from_dict(cls, raw: dict, where: str = "quirks") -> "QuirkConfig":
        """Quirks from a JSON object; ConfigError naming the field on a
        value that is not one of its choices."""

        def choice(name, kind, default):
            value = raw.get(name, default)
            try:
                return kind(value)
            except ValueError:
                choices = ", ".join(member.value for member in kind)
                raise ConfigError(
                    f"{where}: unknown {name} {value!r}; choose from {choices}"
                ) from None

        noop_digest = raw.get("update_noop_emits_digest", True)
        if type(noop_digest) is not bool:
            raise ConfigError(
                f"{where}: update_noop_emits_digest must be true or false, not {noop_digest!r}"
            )
        return cls(
            decimal_rounding=choice("decimal_rounding", DecimalRounding, "half_even"),
            text_collation_for_order=choice("text_collation_for_order", TextCollation, "binary"),
            update_noop_emits_digest=noop_digest,
        )


@dataclass(frozen=True)
class Column:
    name: str
    type: ColumnType
    scale: int = 0  # fractional digits, DECIMAL only

    def __post_init__(self):
        if self.type is not ColumnType.DECIMAL and self.scale != 0:
            raise BindError(f"column {self.name}: scale only applies to DECIMAL")
        if self.scale < 0 or self.scale > MAX_SCALE:
            raise BindError(f"column {self.name}: unsupported scale {self.scale}")


@dataclass(frozen=True)
class TableSchema:
    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...]
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        index = {c.name: i for i, c in enumerate(self.columns)}
        if len(index) != len(self.columns):
            raise BindError(f"table {self.name}: duplicate column name")
        if not self.primary_key:
            raise BindError(f"table {self.name}: primary key required")
        for pk in self.primary_key:
            if pk not in index:
                raise BindError(f"table {self.name}: unknown pk column {pk}")
        object.__setattr__(self, "_index", index)

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise BindError(f"table {self.name}: unknown column {name}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    @property
    def pk_indices(self) -> tuple[int, ...]:
        return tuple(self._index[c] for c in self.primary_key)


def coerce_value(column: Column, raw, quirks: QuirkConfig):
    """Fit a literal or computed value into a column's domain.

    Returns the stored representation (int, str, or Decimal quantized to the
    column scale).  DECIMAL values with excess fractional digits are rounded
    per the engine's decimal_rounding quirk.
    """
    if column.type is ColumnType.INT:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise BindError(f"column {column.name}: expected INT, got {raw!r}")
        if not INT64_MIN <= raw <= INT64_MAX:
            raise ConstraintViolation(f"column {column.name}: INT out of range")
        return raw
    if column.type is ColumnType.TEXT:
        if not isinstance(raw, str):
            raise BindError(f"column {column.name}: expected TEXT, got {raw!r}")
        return raw
    # DECIMAL; int literals widen
    if isinstance(raw, bool) or not isinstance(raw, (int, decimal.Decimal)):
        raise BindError(f"column {column.name}: expected DECIMAL, got {raw!r}")
    value = decimal.Decimal(raw)
    quantum = DECIMAL_QUANTA[column.scale]
    mode = (
        decimal.ROUND_HALF_EVEN
        if quirks.decimal_rounding is DecimalRounding.HALF_EVEN
        else decimal.ROUND_DOWN
    )
    try:
        value = value.quantize(quantum, rounding=mode, context=DECIMAL_CONTEXT)
    except decimal.InvalidOperation:
        raise ConstraintViolation(f"column {column.name}: DECIMAL out of range") from None
    if value.is_zero():
        value = value.copy_abs()  # never store -0.00
    return value


def canonical_value_bytes(column: Column, value) -> bytes:
    """Canonical byte encoding used for row hashing and table dumps."""
    if column.type is ColumnType.INT:
        return b"%d" % value
    if column.type is ColumnType.TEXT:
        return value.encode("utf-8")
    return format(value, "f").encode("ascii")


def decode_literal(column: Column, raw):
    """A column value given from outside as a JSON number or string, or as
    command-line text.  DECIMAL goes through str, so 7, 7.5 and "-1" all work."""
    if column.type is ColumnType.INT:
        return int(raw)
    if column.type is ColumnType.TEXT:
        return str(raw)
    return decimal.Decimal(str(raw))


def _key_value(column: Column, raw):
    """decode_literal, with a DECIMAL brought to the column scale; None when
    the value is not exact at that scale and so cannot be a stored key."""
    value = decode_literal(column, raw)
    if column.type is not ColumnType.DECIMAL:
        return value
    try:
        scaled = value.quantize(DECIMAL_QUANTA[column.scale], context=DECIMAL_CONTEXT)
    except decimal.InvalidOperation:
        return None
    if scaled != value:
        return None
    return scaled.copy_abs() if scaled.is_zero() else scaled  # never -0.00, as stored


def row_key(schema: TableSchema, rows: dict, raw_pk) -> bytes:
    """Key of the stored row whose primary key reads raw_pk, one value per
    primary-key column decoded by decode_literal.  A DECIMAL matches at the
    column scale, so 2.5, "2.5" and "2.50" name the same row and 2.505 none.
    BindError when the arity is wrong or no such row exists."""
    if len(raw_pk) != len(schema.primary_key):
        raise BindError(
            f"table {schema.name} has a {len(schema.primary_key)}-column key"
        )
    columns = [schema.column(name) for name in schema.primary_key]
    values = [_key_value(column, raw) for column, raw in zip(columns, raw_pk)]
    key = None if None in values else UNIT_SEP.join(map(canonical_value_bytes, columns, values))
    if key is None or key not in rows:
        raise BindError(f"no row with key {tuple(raw_pk)} in {schema.name}")
    return key


def encode_row(schema: TableSchema, row: tuple) -> bytes:
    """Column count, then canonical values, all joined with the unit separator."""
    parts = [b"%d" % len(schema.columns)]
    parts.extend(
        canonical_value_bytes(col, value) for col, value in zip(schema.columns, row)
    )
    return UNIT_SEP.join(parts)


def pk_bytes(schema: TableSchema, row: tuple) -> bytes:
    """Canonical encoding of the row's primary-key values."""
    return UNIT_SEP.join(
        canonical_value_bytes(schema.columns[i], row[i]) for i in schema.pk_indices
    )


def ordering_key(column: Column, value, quirks: QuirkConfig):
    """Comparison key for <, >, <=, >=, BETWEEN under the engine's collation."""
    if column.type is ColumnType.TEXT and (
        quirks.text_collation_for_order is TextCollation.CASE_INSENSITIVE
    ):
        return value.casefold()
    return value
