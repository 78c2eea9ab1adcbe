"""Value domain, table schemas, per-engine quirk switches, and the one value
codec.

Three column types are supported: 64-bit signed INT, TEXT, and DECIMAL with a
per-column scale.  NULL does not exist anywhere.  Every stored value has a
single canonical byte encoding, so identically configured engines hash
identical state to identical bytes.

The codec (encode_values, decode_values) joins the canonical encodings of a
list of values with the unit separator 0x1F.  Primary keys, row hashes and
state dumps all use it, and it is injective:
  - INT is the decimal integer, "-" first when negative: b"-7".
  - DECIMAL is fixed-point at the column scale, never exponent notation and
    never "-0": b"1.50".
  - TEXT is UTF-8 with five bytes written as %XX (uppercase hex): "%" as %25,
    because it starts an escape; 0x1F as %1F, because it separates values;
    0x0A as %0A, because it ends a dump line; "=" as %3D and "#" as %23,
    because a dump line starting "== " or "#schema " is a header.  Every
    other byte stays as it is, and INT and DECIMAL hold none of the five.
"""

from __future__ import annotations

import decimal
import re
from dataclasses import dataclass, field
from enum import Enum

from ..errors import BindError, ConfigError, ConstraintViolation, MissingTarget, SchemaMismatch

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

UNIT_SEP = b"\x1f"  # between the canonical values of one encoded list
_TEXT_ESCAPES = {byte: f"%{byte:02X}" for byte in b"%\x1f\n=#"}  # a str.translate table
_ESCAPED = re.compile("%(25|1F|0A|3D|23)")

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
        object.__setattr__(self, "pk_indices", tuple(index[c] for c in self.primary_key))
        object.__setattr__(self, "pk_columns", tuple(map(self.columns.__getitem__, self.pk_indices)))

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise BindError(f"table {self.name}: unknown column {name}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]


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
    """One stored value in the codec's form (see the module docstring)."""
    if column.type is ColumnType.INT:
        return b"%d" % value
    if column.type is ColumnType.TEXT:
        return value.translate(_TEXT_ESCAPES).encode("utf-8")
    return format(value, "f").encode("ascii")


def encode_values(columns, values) -> bytes:
    """The codec's encoder: one value per column, joined by UNIT_SEP."""
    return UNIT_SEP.join(map(canonical_value_bytes, columns, values))


def decode_values(columns, data: bytes) -> tuple:
    """The codec's decoder, inverse of encode_values; SchemaMismatch when
    data is not an encoding of one value per column."""
    parts = data.split(UNIT_SEP)
    if len(parts) != len(columns):
        raise SchemaMismatch(f"{len(parts)} values for {len(columns)} columns")
    try:
        return tuple(map(_decode_value, columns, parts))
    except (ValueError, decimal.InvalidOperation):
        raise SchemaMismatch(f"undecodable values {data!r}") from None


def _decode_value(column: Column, raw: bytes):
    if column.type is ColumnType.INT:
        return int(raw)
    if column.type is ColumnType.TEXT:
        return _ESCAPED.sub(lambda m: chr(int(m[1], 16)), raw.decode("utf-8"))
    return decimal.Decimal(raw.decode("ascii"))


def encode_row(schema: TableSchema, row: tuple) -> bytes:
    """Column count, then the encoded values, joined with the unit separator."""
    return b"%d" % len(schema.columns) + UNIT_SEP + encode_values(schema.columns, row)


def key_bytes(schema: TableSchema, values: list) -> bytes | None:
    """The one primary-key encoding: the key columns' values, in key order.
    None when a value is None, as key_value gives for "no such row"."""
    return None if None in values else encode_values(schema.pk_columns, values)


def pk_bytes(schema: TableSchema, row: tuple) -> bytes:
    """Key of a stored row."""
    return key_bytes(schema, [row[i] for i in schema.pk_indices])


def decode_literal(column: Column, raw):
    """A column value given from outside as a JSON number or string, or as
    command-line text.  Numbers go through str, so 7, 7.5 and "-1" all work.
    BindError for any other value (null, a boolean, a list or an object), a
    number column given a non-number, or an INT column a fraction or a value
    outside its range."""
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float, decimal.Decimal)):
        raise BindError(f"column {column.name}: {raw!r} is not a number or a string")
    if column.type is ColumnType.TEXT:
        return str(raw)
    try:
        value = decimal.Decimal(str(raw))
    except decimal.InvalidOperation:
        value = decimal.Decimal("NaN")
    if not value.is_finite():
        raise BindError(f"column {column.name}: {raw!r} is not a number")
    if column.type is ColumnType.DECIMAL:
        return value
    if value != value.to_integral_value() or not INT64_MIN <= value <= INT64_MAX:
        raise BindError(f"column {column.name}: {raw!r} is not an INT")
    return int(value)


_EXACT = QuirkConfig()  # rounding mode is moot: key_value keeps exact values only


def key_value(column: Column, literal):
    """The stored value equal to a key literal of the column's kind (an int
    or Decimal for a number column, a str for TEXT), or None when no stored
    value can equal it: a fraction for an INT column, a value out of range,
    or a DECIMAL inexact at the column scale."""
    if column.type is ColumnType.INT:
        if not INT64_MIN <= literal <= INT64_MAX:
            return None
        if isinstance(literal, decimal.Decimal):
            return int(literal) if literal == literal.to_integral_value() else None
        return literal
    if column.type is ColumnType.TEXT:
        return literal
    try:
        value = coerce_value(column, literal, _EXACT)
    except ConstraintViolation:
        return None
    return value if value == literal else None


def row_key(schema: TableSchema, rows: dict, raw_pk) -> bytes:
    """Key of the stored row whose primary key reads raw_pk, one value per
    primary-key column decoded by decode_literal.  A DECIMAL matches at the
    column scale, so 2.5, "2.5" and "2.50" name the same row and 2.505 none.
    BindError when a value is malformed, the arity is wrong or no stored
    row can have the key; MissingTarget when no such row exists."""
    if len(raw_pk) != len(schema.primary_key):
        raise BindError(f"table {schema.name} has a {len(schema.primary_key)}-column key")
    values = [key_value(c, decode_literal(c, raw)) for c, raw in zip(schema.pk_columns, raw_pk)]
    key = key_bytes(schema, values)
    if key is None:
        raise BindError(f"no row can have key {tuple(raw_pk)} in {schema.name}")
    if key not in rows:
        raise MissingTarget(f"no row with key {tuple(raw_pk)} in {schema.name}")
    return key


def ordering_key(column: Column, value, quirks: QuirkConfig):
    """Comparison key for <, >, <=, >=, BETWEEN under the engine's collation."""
    if column.type is ColumnType.TEXT and (
        quirks.text_collation_for_order is TextCollation.CASE_INSENSITIVE
    ):
        return value.casefold()
    return value
