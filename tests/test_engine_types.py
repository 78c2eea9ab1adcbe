"""Value coercion, canonical encodings, and quirk plumbing."""

from decimal import Decimal

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from effectledger.engine.database import Database, Table
from effectledger.engine.types import (
    INT64_MAX,
    INT64_MIN,
    Column,
    ColumnType,
    DecimalRounding,
    QuirkConfig,
    TableSchema,
    TextCollation,
    UNIT_SEP,
    canonical_value_bytes,
    coerce_value,
    decode_literal,
    decode_values,
    encode_row,
    encode_values,
    ordering_key,
    pk_bytes,
    row_key,
)
from effectledger.errors import BindError, ConstraintViolation, SchemaMismatch

INT_COL = Column("n", ColumnType.INT)
TEXT_COL = Column("t", ColumnType.TEXT)
MONEY = Column("m", ColumnType.DECIMAL, scale=2)
DEFAULTS = QuirkConfig()


def test_int_range_is_signed_64_bit():
    assert coerce_value(INT_COL, 2**63 - 1, DEFAULTS) == 2**63 - 1
    assert coerce_value(INT_COL, -(2**63), DEFAULTS) == -(2**63)
    with pytest.raises(ConstraintViolation):
        coerce_value(INT_COL, 2**63, DEFAULTS)
    with pytest.raises(ConstraintViolation):
        coerce_value(INT_COL, -(2**63) - 1, DEFAULTS)


def test_int_rejects_non_integer_values():
    # type mismatches are binding errors, distinct from range violations
    with pytest.raises(BindError):
        coerce_value(INT_COL, Decimal("1.5"), DEFAULTS)
    with pytest.raises(BindError):
        coerce_value(INT_COL, "7", DEFAULTS)
    with pytest.raises(BindError):
        coerce_value(INT_COL, True, DEFAULTS)


def test_decimal_rounding_quirk_half_even_vs_truncate():
    half_even = QuirkConfig(decimal_rounding=DecimalRounding.HALF_EVEN)
    truncate = QuirkConfig(decimal_rounding=DecimalRounding.TRUNCATE)
    value = Decimal("1.005")
    assert coerce_value(MONEY, value, half_even) == Decimal("1.00")  # ties to even
    assert coerce_value(MONEY, Decimal("1.015"), half_even) == Decimal("1.02")
    assert coerce_value(MONEY, Decimal("1.019"), truncate) == Decimal("1.01")
    # third digit >= 6 always splits the two modes
    assert coerce_value(MONEY, Decimal("1.006"), half_even) != coerce_value(
        MONEY, Decimal("1.006"), truncate
    )


def test_decimal_negative_zero_normalizes():
    assert str(coerce_value(MONEY, Decimal("-0.001"), DEFAULTS)) == "0.00"


def test_canonical_bytes_stable_across_value_forms():
    assert canonical_value_bytes(INT_COL, 7) == b"7"
    assert canonical_value_bytes(MONEY, Decimal("1.50")) == b"1.50"
    assert canonical_value_bytes(TEXT_COL, "héllo") == "héllo".encode("utf-8")


def test_encode_row_length_prefixed_and_separated():
    schema = TableSchema("x", (INT_COL, TEXT_COL), ("n",))
    row = (5, "ab")
    assert encode_row(schema, row) == b"2" + UNIT_SEP + b"5" + UNIT_SEP + b"ab"


def test_pk_bytes_composite():
    schema = TableSchema("x", (INT_COL, TEXT_COL, MONEY), ("n", "t"))
    row = (5, "k", Decimal("1.00"))
    assert pk_bytes(schema, row) == b"5" + UNIT_SEP + b"k"


def test_text_ordering_quirk_only_affects_order_key():
    ci = QuirkConfig(text_collation_for_order=TextCollation.CASE_INSENSITIVE)
    assert ordering_key(TEXT_COL, "Apple", ci) == ordering_key(TEXT_COL, "apple", ci)
    assert ordering_key(TEXT_COL, "Apple", DEFAULTS) != ordering_key(
        TEXT_COL, "apple", DEFAULTS
    )


def test_quirk_config_from_dict_round_trip():
    quirks = QuirkConfig.from_dict(
        {"decimal_rounding": "truncate", "text_collation_for_order": "case_insensitive",
         "update_noop_emits_digest": False}
    )
    assert quirks.decimal_rounding is DecimalRounding.TRUNCATE
    assert quirks.text_collation_for_order is TextCollation.CASE_INSENSITIVE
    assert quirks.update_noop_emits_digest is False


def test_schema_requires_known_pk_columns():
    with pytest.raises(BindError):
        TableSchema("x", (INT_COL,), ("missing",))


def test_decimal_scale_bounds():
    with pytest.raises(BindError):
        Column("m", ColumnType.DECIMAL, scale=-1)


@pytest.mark.parametrize(
    "column, raw, value",
    [(INT_COL, 7, 7), (INT_COL, "-7", -7), (TEXT_COL, "x", "x"), (TEXT_COL, 5, "5"),
     (MONEY, "-1", Decimal("-1")), (MONEY, 0.1, Decimal("0.1")),
     (MONEY, Decimal("2.50"), Decimal("2.50"))],
)
def test_decode_literal_takes_json_numbers_and_text(column, raw, value):
    decoded = decode_literal(column, raw)
    assert decoded == value and type(decoded) is type(value)


@pytest.mark.parametrize(
    "column, raw",
    [(INT_COL, "abc"), (INT_COL, "1.5"), (INT_COL, 1.5), (INT_COL, True), (INT_COL, "2e19"),
     (MONEY, "abc"), (MONEY, "NaN"), (MONEY, "Infinity"), (MONEY, float("inf")), (MONEY, [1]),
     (TEXT_COL, None), (TEXT_COL, True), (TEXT_COL, [1]), (TEXT_COL, {"a": "x"})],
)
def test_decode_literal_rejects_what_is_no_value_of_the_column(column, raw):
    with pytest.raises(BindError):
        decode_literal(column, raw)


def test_row_key_finds_stored_rows_only():
    schema = TableSchema("t", (INT_COL, TEXT_COL, MONEY), ("n", "t"))
    row = (3, "a", Decimal("1.00"))
    rows = {pk_bytes(schema, row): row}
    assert row_key(schema, rows, ("3", "a")) == pk_bytes(schema, row)
    assert row_key(schema, rows, [3, "a"]) == pk_bytes(schema, row)
    for missing in ((4, "a"), (3, "b"), (3,), (3, "a", 1)):
        with pytest.raises(BindError):
            row_key(schema, rows, missing)


def test_row_key_matches_decimal_keys_at_the_column_scale():
    schema = TableSchema("t", (MONEY,), ("m",))
    rows = {pk_bytes(schema, (value,)): (value,) for value in (Decimal("2.50"), Decimal("0.00"))}
    for given in ("2.50", "2.5", 2.5, Decimal("2.5"), "2.500"):
        assert row_key(schema, rows, (given,)) == b"2.50"
    for given in ("0", 0, "-0", "-0.000"):
        assert row_key(schema, rows, (given,)) == b"0.00"
    for missing in ("2.505", 2.505, "2.51", "25", "1E+40"):
        with pytest.raises(BindError):
            row_key(schema, rows, (missing,))


# ---- the value codec: injective and round-tripping ----

# a composite key of two adjacent TEXT columns, where an unescaped separator
# would let ("x\x1fy", "z") and ("x", "y\x1fz") collide
PAIR = TableSchema("pair", (Column("s", ColumnType.TEXT), TEXT_COL, INT_COL, MONEY), ("s", "t", "n"))
ONE_TEXT = TableSchema("one", (Column("s", ColumnType.TEXT),), ("s",))
DUMP_SYNTAX = ["", "== x", "#schema x", "\n", "\x1f", "%", "%25", "%1F", "a\nb", "x\x1fy"]
TEXTS = st.text() | st.sampled_from(DUMP_SYNTAX)
MONEYS = st.decimals(min_value=-(10**8), max_value=10**8, places=2).map(
    lambda d: coerce_value(MONEY, d, DEFAULTS)
)
PAIR_ROWS = st.tuples(TEXTS, TEXTS, st.integers(INT64_MIN, INT64_MAX), MONEYS)
COLLIDING = (("x\x1fy", "z", 1, Decimal("0.00")), ("x", "y\x1fz", 1, Decimal("0.00")))


@given(PAIR_ROWS, PAIR_ROWS)
@example(*COLLIDING)
@example(("a\n", "b", 0, Decimal("1.00")), ("a", "\nb", 0, Decimal("1.00")))
def test_distinct_rows_encode_distinctly(a, b):
    assume(a != b)
    assert encode_row(PAIR, a) != encode_row(PAIR, b)


@given(PAIR_ROWS, PAIR_ROWS)
@example(*COLLIDING)
@example(("%1F", "", 0, Decimal("0.00")), ("\x1f", "", 0, Decimal("0.00")))
def test_distinct_keys_give_distinct_pk_bytes(a, b):
    assume(a[:3] != b[:3])
    assert pk_bytes(PAIR, a) != pk_bytes(PAIR, b)


@given(PAIR_ROWS)
@example(("== x", "#schema x", -5, Decimal("0.00")))
def test_decoding_an_encoded_list_gives_it_back(row):
    decoded = decode_values(PAIR.columns, encode_values(PAIR.columns, row))
    assert decoded == row and list(map(type, decoded)) == list(map(type, row))


def test_text_escapes_only_the_five_bytes():
    assert canonical_value_bytes(TEXT_COL, "%\x1f\n=#é\r\x00") == b"%25%1F%0A%3D%23\xc3\xa9\r\x00"


@pytest.mark.parametrize("data", [b"a" + UNIT_SEP + b"b", b"a\x1fb\x1fx\x1f1.00", b"a\x1fb\x1f1\x1fNaN?"])
def test_decode_values_rejects_what_encode_values_never_writes(data):
    with pytest.raises(SchemaMismatch):
        decode_values(PAIR.columns, data)


@given(st.lists(PAIR_ROWS, max_size=4), st.lists(TEXTS, max_size=4))
@example([], [""])
@example([COLLIDING[0]], DUMP_SYNTAX)
def test_dump_load_dump_is_the_identity(pair_rows, texts):
    db = Database()
    for schema, rows in ((PAIR, pair_rows), (ONE_TEXT, [(t,) for t in texts])):
        db.tables[schema.name] = Table(schema)
        db.tables[schema.name].rows.update((pk_bytes(schema, row), row) for row in rows)
    dump = db.dump_all()
    clone = Database.load_dump(dump)
    assert clone.dump_all() == dump
    assert {n: t.rows for n, t in clone.tables.items()} == {n: t.rows for n, t in db.tables.items()}
