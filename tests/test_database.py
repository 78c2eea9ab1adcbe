"""Storage engine behavior: CRUD, atomicity, quirks, snapshots, dumps."""

import hashlib
from decimal import Decimal

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from effectledger.engine.database import Database, TableSnapshot
from effectledger.engine.types import INT64_MAX, INT64_MIN, QuirkConfig, pk_bytes, row_key

from conftest import run_sql


def test_insert_and_select(bank_db):
    result = run_sql(bank_db, "SELECT owner, bal FROM acct WHERE id = 2;")
    assert result.success
    assert result.outputs == [[("bob", Decimal("250.50"))]]


def test_update_arithmetic(bank_db):
    run_sql(bank_db, "UPDATE acct SET bal = bal + 9.25 WHERE id = 1;")
    rows = run_sql(bank_db, "SELECT bal FROM acct WHERE id = 1;").outputs[0]
    assert rows == [(Decimal("109.25"),)]


def test_update_without_where_touches_all(bank_db):
    result = run_sql(bank_db, "UPDATE acct SET bal = 0;")
    assert result.outputs == [2]
    assert all(r[-1] == Decimal("0.00") for r in bank_db.table("acct").rows.values())


def test_delete_by_range(bank_db):
    result = run_sql(bank_db, "DELETE FROM acct WHERE id >= 2;")
    assert result.outputs == [1]
    assert len(bank_db.table("acct").rows) == 1


def test_duplicate_primary_key_rejected(bank_db):
    result = run_sql(bank_db, "INSERT INTO acct (id, owner, bal) VALUES (1, 'eve', 1);")
    assert not result.success
    assert "primary key" in result.error.lower() or "duplicate" in result.error.lower()


def test_transaction_rolls_back_on_mid_failure(bank_db):
    before = bank_db.state_hash()
    result = run_sql(
        bank_db,
        "UPDATE acct SET bal = bal + 1 WHERE id = 1;"
        "INSERT INTO acct (id, owner, bal) VALUES (2, 'dup', 0);",
    )
    assert not result.success
    assert bank_db.state_hash() == before


def test_rollback_restores_deleted_rows(bank_db):
    before = dict(bank_db.table("acct").rows)
    result = run_sql(bank_db, "DELETE FROM acct; SELECT * FROM missing;")
    assert not result.success
    assert bank_db.table("acct").rows == before


def test_primary_key_update_rejected(bank_db):
    result = run_sql(bank_db, "UPDATE acct SET id = 9 WHERE id = 1;")
    assert not result.success


def test_select_ignores_unknown_table(bank_db):
    result = run_sql(bank_db, "SELECT * FROM nowhere;")
    assert not result.success


def test_create_existing_table_fails(bank_db):
    result = run_sql(bank_db, "CREATE TABLE acct (x INT, PRIMARY KEY (x));")
    assert not result.success


def test_decimal_rounding_quirk_diverges():
    ties = Database(QuirkConfig(decimal_rounding="half_even"))
    trunc = Database(QuirkConfig(decimal_rounding="truncate"))
    ddl = "CREATE TABLE t (k INT, v DECIMAL(8, 2), PRIMARY KEY (k));"
    ins = "INSERT INTO t (k, v) VALUES (1, 10.006);"
    for db in (ties, trunc):
        assert run_sql(db, ddl).success
        assert run_sql(db, ins).success
    assert ties.table("t").rows[b"1"][1] == Decimal("10.01")
    assert trunc.table("t").rows[b"1"][1] == Decimal("10.00")
    assert ties.state_hash() != trunc.state_hash()


def test_collation_quirk_changes_range_matches_not_bytes():
    plain = Database(QuirkConfig(text_collation_for_order="binary"))
    folded = Database(QuirkConfig(text_collation_for_order="case_insensitive"))
    ddl = "CREATE TABLE t (k INT, name TEXT, PRIMARY KEY (k));"
    ins = "INSERT INTO t (k, name) VALUES (1, 'Bob'), (2, 'alice');"
    sel = "SELECT k FROM t WHERE name < 'annie';"
    for db in (plain, folded):
        run_sql(db, ddl)
        run_sql(db, ins)
    # binary: 'Bob' (0x42...) sorts below lowercase; casefold: 'bob' does not
    assert run_sql(plain, sel).outputs == [[(1,), (2,)]]
    assert run_sql(folded, sel).outputs == [[(2,)]]
    # stored bytes identical, so the state digest ignores collation
    assert plain.state_hash() == folded.state_hash()


def test_state_hash_oracle_empty():
    assert Database().state_hash() == hashlib.sha256(b"").digest()


def test_state_hash_matches_dump_oracle(bank_db):
    sep = b"\x1f"
    expected_dump = (
        b"== acct\n"
        b"#schema id:INT,owner:TEXT,bal:DECIMAL:2 pk=id\n"
        + sep.join((b"1", b"alice", b"100.00"))
        + b"\n"
        + sep.join((b"2", b"bob", b"250.50"))
        + b"\n"
    )
    assert bank_db.dump_all() == expected_dump
    assert bank_db.state_hash() == hashlib.sha256(expected_dump).digest()


def test_state_hash_insert_order_independent():
    a, b = Database(), Database()
    ddl = "CREATE TABLE t (k INT, v TEXT, PRIMARY KEY (k));"
    run_sql(a, ddl)
    run_sql(b, ddl)
    run_sql(a, "INSERT INTO t (k, v) VALUES (1, 'x');")
    run_sql(a, "INSERT INTO t (k, v) VALUES (2, 'y');")
    run_sql(b, "INSERT INTO t (k, v) VALUES (2, 'y');")
    run_sql(b, "INSERT INTO t (k, v) VALUES (1, 'x');")
    assert a.state_hash() == b.state_hash()


def test_snapshot_restore_round_trip(bank_db):
    snap = bank_db.snapshot_all()
    run_sql(bank_db, "DELETE FROM acct;")
    run_sql(bank_db, "CREATE TABLE extra (k INT, PRIMARY KEY (k));")
    bank_db.restore_all(snap)
    assert bank_db.table_names() == {"acct"}
    assert len(bank_db.table("acct").rows) == 2


def test_a_restore_reuses_the_keys_a_snapshot_took(bank_db):
    """Restoring a snapshot gives the rows, keys and order that encoding
    every key again gives, as it does for a snapshot made without keys."""
    snap = bank_db.snapshot_all()
    keyless = {name: TableSnapshot(s.schema, s.rows) for name, s in snap.items()}
    assert keyless == snap and all(s.keys is None for s in keyless.values())
    restored, encoded = Database(), Database()
    restored.restore_all(snap)
    encoded.restore_all(keyless)
    rows = restored.table("acct").rows
    assert list(rows.items()) == list(encoded.table("acct").rows.items())
    assert all(key == pk_bytes(s.schema, row) for s in snap.values() for key, row in rows.items())


def test_dump_round_trip(bank_db):
    blob = bank_db.dump_all()
    assert isinstance(blob, bytes)
    clone = Database.load_dump(blob)
    assert clone.state_hash() == bank_db.state_hash()
    assert clone.table("acct").rows == bank_db.table("acct").rows


def test_dump_accepts_text(bank_db):
    clone = Database.load_dump(bank_db.dump_all().decode("utf-8"))
    assert clone.state_hash() == bank_db.state_hash()


def test_reset_clears_everything(bank_db):
    bank_db.reset()
    assert bank_db.table_names() == set()
    assert bank_db.state_hash() == Database().state_hash()


def test_int_range_constraint(db):
    run_sql(db, "CREATE TABLE t (k INT, PRIMARY KEY (k));")
    ok = run_sql(db, f"INSERT INTO t (k) VALUES ({2**63 - 1});")
    assert ok.success
    over = run_sql(db, f"UPDATE t SET k = k + 1 WHERE k = {2**63 - 1};")
    assert not over.success


def test_decimal_scale_not_precision_enforced(db):
    run_sql(db, "CREATE TABLE t (k INT, v DECIMAL(4, 2), PRIMARY KEY (k));")
    assert run_sql(db, "INSERT INTO t (k, v) VALUES (1, 99.99);").success
    # only the scale is a hard constraint; magnitude may exceed the precision
    assert run_sql(db, "UPDATE t SET v = v + 0.01 WHERE k = 1;").success
    assert db.table("t").rows[b"1"][1] == Decimal("100.00")


class _DigestSpy:
    def __init__(self):
        self.entries = []

    def record(self, *entry):
        self.entries.append(entry)


@pytest.mark.parametrize("emits", [True, False])
def test_noop_update_digest_quirk(emits):
    db = Database(QuirkConfig(update_noop_emits_digest=emits))
    run_sql(db, "CREATE TABLE t (k INT, v INT, PRIMARY KEY (k));")
    run_sql(db, "INSERT INTO t (k, v) VALUES (1, 5);")
    spy = _DigestSpy()
    result = db.execute_transaction("UPDATE t SET v = 5 WHERE k = 1;", digest=spy)
    assert result.success and result.outputs == [1]
    assert len(spy.entries) == (1 if emits else 0)


# ---- DECIMAL precision: every scale a column may declare is usable ----

WIDE_DECIMALS = [
    ("d28", 28, "1.5", Decimal("1.5000000000000000000000000000")),
    ("d30", 30, "0.5", Decimal("0.500000000000000000000000000000")),
    ("d27", 27, "10.5", Decimal("10.500000000000000000000000000")),
]


@pytest.mark.parametrize("table, scale, literal, stored", WIDE_DECIMALS)
def test_wide_scale_decimal_inserts_exactly(table, scale, literal, stored):
    db = Database()
    assert run_sql(db, f"CREATE TABLE {table} (k INT, v DECIMAL(40, {scale}), PRIMARY KEY (k));").success
    result = run_sql(db, f"INSERT INTO {table} (k, v) VALUES (1, {literal});")
    assert result.success, result.error
    value = db.table(table).rows[b"1"][1]
    assert value == stored and value.as_tuple().exponent == -scale


def test_wide_scale_decimal_arithmetic_is_exact():
    db = Database()
    run_sql(db, "CREATE TABLE t (k INT, v DECIMAL(40, 30), PRIMARY KEY (k));")
    run_sql(db, "INSERT INTO t (k, v) VALUES (1, 1.5);")
    tiny = "0.000000000000000000000000000001"
    for sql in (
        f"UPDATE t SET v = v + {tiny} WHERE k = 1;",
        f"UPDATE t SET v = v - -{tiny} WHERE k = 1;",
        "UPDATE t SET v = v - 1 + 3 WHERE v = 1.500000000000000000000000000002;",
    ):
        assert run_sql(db, sql).outputs == [1]
    assert db.table("t").rows[b"1"][1] == Decimal("3.500000000000000000000000000002")


def test_wide_scale_decimals_hash_alike_staged_or_direct():
    """Staged execution here and direct execution in a fresh thread, which
    starts with the default 28-digit context, store the same values: DECIMAL
    arithmetic never depends on the calling thread's context."""
    import threading

    from effectledger.ledger import BlockDigest
    from effectledger.scheduler import access_set, build_dependency_graph, execute_staged

    def wide_tables():
        db = Database()
        for table, scale, _, _ in WIDE_DECIMALS:
            run_sql(db, f"CREATE TABLE {table} (k INT, v DECIMAL(40, {scale}), PRIMARY KEY (k));")
        return db

    sqls = [
        f"INSERT INTO {table} (k, v) VALUES (1, {literal});"
        for table, _, literal, _ in WIDE_DECIMALS
    ]
    staged = wide_tables()
    catalog = {name: t.schema for name, t in staged.tables.items()}
    block = [access_set(i, sql, catalog) for i, sql in enumerate(sqls)]
    graph = build_dependency_graph(block)
    assert len(graph.stages) == 1
    assert execute_staged(graph, block, staged, BlockDigest()) == [True] * len(block)

    direct = wide_tables()
    results = []
    worker = threading.Thread(
        target=lambda: results.extend(direct.execute_transaction(sql) for sql in sqls)
    )
    worker.start()
    worker.join()
    assert [r.success for r in results] == [True] * len(sqls)
    assert direct.state_hash() == staged.state_hash()


# ---- keys and dumps of TEXT holding the codec's special bytes ----


def test_text_keys_that_differ_only_in_where_a_separator_falls_are_distinct(db):
    run_sql(db, "CREATE TABLE pair (a TEXT, b TEXT, PRIMARY KEY (a, b));")
    assert run_sql(db, "INSERT INTO pair VALUES ('x\x1fy', 'z');").success
    result = run_sql(db, "INSERT INTO pair VALUES ('x', 'y\x1fz');")
    assert result.success, result.error
    assert sorted(db.table("pair").rows.values()) == [("x", "y\x1fz"), ("x\x1fy", "z")]


def sql_text(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


@pytest.mark.parametrize("text", ["", "== x", "#schema x", "a\nb"])
def test_dump_round_trips_text_that_looks_like_dump_syntax(db, text):
    run_sql(db, "CREATE TABLE notes (s TEXT, PRIMARY KEY (s));")
    assert run_sql(db, f"INSERT INTO notes VALUES ({sql_text(text)});").success
    dump = db.dump_all()
    clone = Database.load_dump(dump)
    assert clone.table("notes").rows == db.table("notes").rows
    assert clone.dump_all() == dump


TEXTS = st.text() | st.sampled_from(["x\x1fy", "z", "x", "y\x1fz", "", "== x", "'"])
KEYS = st.tuples(
    st.integers(INT64_MIN, INT64_MAX),
    TEXTS,
    TEXTS,
    st.decimals(min_value=-(10**6), max_value=10**6, places=2),
)


@given(st.lists(KEYS, min_size=1, max_size=5, unique=True))
@example([(1, "x\x1fy", "z", Decimal("2.50")), (1, "x", "y\x1fz", Decimal("2.50"))])
def test_row_key_and_the_sql_point_probe_name_the_same_row(keys):
    """row_key on a stored row's key literals, given as text, and an UPDATE
    whose WHERE pins every key column to a literal change the same row."""
    db = Database()
    run_sql(db, "CREATE TABLE keyed (k INT, s TEXT, t TEXT, d DECIMAL(10, 2), v INT, "
                "PRIMARY KEY (k, s, t, d));")
    for k, s, t, d in keys:
        result = run_sql(db, f"INSERT INTO keyed VALUES ({k}, {sql_text(s)}, {sql_text(t)}, {d}, 0);")
        assert result.success, result.error
    table = db.table("keyed")
    for k, s, t, d in keys:
        d_literal = format(d.normalize(), "f")  # 2.5 for a stored 2.50
        key = row_key(table.schema, table.rows, [str(k), s, t, d_literal])
        before = dict(table.rows)
        where = f"k = {k} AND s = {sql_text(s)} AND t = {sql_text(t)} AND d = {d_literal}"
        assert run_sql(db, f"UPDATE keyed SET v = v + 1 WHERE {where};").outputs == [1]
        assert [pk for pk, row in table.rows.items() if row != before[pk]] == [key]
