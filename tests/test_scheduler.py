"""Access analysis, the conflict rule, staging, and staged execution."""

import hashlib
import random
from decimal import Decimal

from hypothesis import example, given, settings, strategies as st

from effectledger.engine.database import Database
from effectledger.engine.types import QuirkConfig
from effectledger.ledger import BlockDigest, compute_hash_digest
from effectledger.scheduler import (
    Access,
    Interval,
    access_set,
    build_dependency_graph,
    execute_staged,
)
from effectledger.smallbank import CHECKING_DDL, SAVINGS_DDL, SmallbankConfig, generate_workload

from conftest import run_sql

CATALOG_SQL = (
    "CREATE TABLE acct (id INT, owner TEXT, bal DECIMAL(10, 2), PRIMARY KEY (id));",
    "CREATE TABLE audit (seq INT, note TEXT, PRIMARY KEY (seq));",
)


def fresh_db(rows=()):
    db = Database()
    for sql in CATALOG_SQL:
        assert run_sql(db, sql).success
    for rid, bal in rows:
        assert run_sql(
            db, f"INSERT INTO acct (id, owner, bal) VALUES ({rid}, 'u{rid}', {bal});"
        ).success
    return db


def catalog_of(db):
    return {name: db.table(name).schema for name in db.table_names()}


def analyze_all(db, sqls):
    catalog = catalog_of(db)
    return [access_set(i, sql, catalog) for i, sql in enumerate(sqls)]


# ---- interval extraction ----


def test_point_write_on_pk_equality():
    db = fresh_db()
    (acc,) = analyze_all(db, ["UPDATE acct SET bal = 0 WHERE id = 7 AND bal > 5;"])
    assert acc.analyzable
    (only,) = acc.accesses
    assert only.write
    assert list(only.witnesses) == ["id"]  # bal is assigned: no witness
    assert only.witnesses["id"] == Interval(7, 7)


def test_open_int_bound_normalizes_to_closed():
    db = fresh_db()
    (acc,) = analyze_all(db, ["SELECT * FROM acct WHERE id > 42;"])
    read = acc.accesses[0].witnesses["id"]
    assert (read.low, read.low_open) == (43, False)
    assert read.high is None


def test_insert_is_point_write_per_row():
    db = fresh_db()
    (acc,) = analyze_all(
        db, ["INSERT INTO acct (id, owner, bal) VALUES (3, 'x', 1), (9, 'y', 2);"]
    )
    assert [a.witnesses["id"] for a in acc.accesses if a.write] == [Interval(3, 3), Interval(9, 9)]


def test_ddl_claims_whole_table():
    db = fresh_db()
    (acc,) = analyze_all(db, ["CREATE TABLE fresh (k INT, PRIMARY KEY (k));"])
    assert acc.analyzable
    assert any(a.table == "fresh" and not a.witnesses and a.write for a in acc.accesses)


def test_unknown_table_claims_whole_table_conservatively():
    db = fresh_db()
    (acc,) = analyze_all(db, ["UPDATE ghost SET x = 1 WHERE k = 2;"])
    assert acc.analyzable
    assert any(a.table == "ghost" and not a.witnesses for a in acc.accesses)


def test_unparseable_sql_is_excluded():
    db = fresh_db()
    (acc,) = analyze_all(db, ["THIS IS NOT SQL"])
    assert not acc.analyzable
    assert acc.parse_error
    assert acc.accesses == ()


def test_full_table_scan_without_where():
    db = fresh_db()
    (acc,) = analyze_all(db, ["UPDATE acct SET bal = 0;"])
    assert any(not a.witnesses for a in acc.accesses)


# ---- pairwise conflict rules ----


def ai(table, column, low, high, write, low_open=False, high_open=False):
    return Access(table, write, {column: Interval(low, high, low_open, high_open)})


def test_read_read_never_conflicts():
    a = ai("t", "k", 1, 10, write=False)
    b = ai("t", "k", 5, 20, write=False)
    assert not a.conflicts_with(b)


def test_write_overlap_conflicts():
    a = ai("t", "k", 1, 10, write=True)
    b = ai("t", "k", 10, 20, write=False)
    assert a.conflicts_with(b) and b.conflicts_with(a)


def test_disjoint_ranges_do_not_conflict():
    a = ai("t", "k", 1, 10, write=True)
    b = ai("t", "k", 11, 20, write=True)
    assert not a.conflicts_with(b)


def test_open_endpoints_touching_do_not_conflict():
    a = ai("t", "k", 1, 10, write=True, high_open=True)
    b = ai("t", "k", 10, 20, write=True)
    assert not a.conflicts_with(b)


def test_different_tables_do_not_conflict_but_different_columns_do():
    a = ai("t", "k", 1, 10, write=True)
    assert not a.conflicts_with(ai("u", "k", 1, 10, write=True))
    other_column = ai("t", "v", 1, 10, write=True)
    assert a.conflicts_with(other_column) and other_column.conflicts_with(a)


def test_whole_table_access_conflicts_with_everything_on_table():
    whole = Access("t", True)
    assert whole.conflicts_with(ai("t", "k", 1, 2, write=False))
    assert not whole.conflicts_with(ai("u", "k", 1, 2, write=True))


def test_one_disjoint_witness_separates_whatever_the_other_columns():
    a = Access("t", True, {"k": Interval(1, 1), "v": Interval(0, 9)})
    b = Access("t", True, {"k": Interval(2, 2), "v": Interval(5, 5)})
    assert not a.conflicts_with(b) and not b.conflicts_with(a)


def analyzed_pair(first, second, quirks=None):
    db = Database(quirks)
    assert run_sql(db, "CREATE TABLE acct (id INT, name TEXT, bal INT, PRIMARY KEY (id));").success
    a, b = analyze_all(db, [first, second])
    return any(x.conflicts_with(y) for x in a.accesses for y in b.accesses)


def test_assigned_column_is_no_witness():
    # the first moves rows with bal > 100 to bal 0, into the second's range
    assert analyzed_pair(
        "UPDATE acct SET bal = 0 WHERE bal > 100;",
        "UPDATE acct SET name = 'x' WHERE bal < 50;",
    )
    # a column neither assigns still separates them
    assert not analyzed_pair(
        "UPDATE acct SET bal = 0 WHERE bal > 100 AND id = 1;",
        "UPDATE acct SET bal = 1 WHERE bal < 50 AND id = 2;",
    )


def test_smallbank_shaped_updates_stay_separated_on_the_key():
    assert not analyzed_pair(
        "UPDATE acct SET bal = bal + 1 WHERE id = 1;",
        "UPDATE acct SET bal = bal - 1 WHERE id = 2;",
    )
    assert analyzed_pair(
        "UPDATE acct SET bal = bal + 1 WHERE id = 1;",
        "UPDATE acct SET bal = bal - 1 WHERE id = 1;",
    )


def test_text_range_is_no_witness_but_text_point_is():
    assert analyzed_pair(
        "UPDATE acct SET bal = 5 WHERE name BETWEEN 'a' AND 'c';",
        "UPDATE acct SET bal = 7 WHERE name = 'x';",
    )
    assert not analyzed_pair(
        "UPDATE acct SET bal = 5 WHERE name = 'B';",
        "UPDATE acct SET bal = 7 WHERE name = 'b';",
    )
    (acc,) = analyze_all(fresh_db(), ["SELECT * FROM acct WHERE owner < 'm' AND owner = 'a';"])
    assert acc.accesses[0].witnesses == {"owner": Interval("a", "a")}


def test_insert_is_confined_to_its_key_only():
    # whether the INSERT succeeds depends on the row with id 1, whatever its bal
    assert analyzed_pair(
        "DELETE FROM acct WHERE bal < 50;",
        "INSERT INTO acct (id, name, bal) VALUES (1, 'a', 100);",
    )
    assert not analyzed_pair(
        "DELETE FROM acct WHERE id = 2;",
        "INSERT INTO acct (id, name, bal) VALUES (1, 'a', 100);",
    )


def test_insert_key_rounded_by_the_engine_is_no_witness():
    db = Database(QuirkConfig.from_dict({"decimal_rounding": "truncate"}))
    assert run_sql(db, "CREATE TABLE d (k DECIMAL(10, 2), v INT, PRIMARY KEY (k));").success
    assert run_sql(db, "INSERT INTO d (k, v) VALUES (1.01, 0);").success
    sqls = [
        "INSERT INTO d (k, v) VALUES (1.015, 1);",  # stored as 1.01 here: duplicate key
        "DELETE FROM d WHERE k = 1.01;",
    ]
    graph = build_dependency_graph(analyze_all(db, sqls))
    assert graph.stages == [[0], [1]]
    (acc,) = analyze_all(db, ["INSERT INTO d (k, v) VALUES (1.5, 1);"])
    assert acc.accesses[0].witnesses == {"k": Interval(Decimal("1.5"), Decimal("1.5"))}


# ---- graph construction ----


def test_figure_like_chain_and_island():
    db = fresh_db(rows=[(1, 100), (2, 100), (3, 100)])
    sqls = [
        "UPDATE acct SET bal = bal + 1 WHERE id = 1;",
        "UPDATE acct SET bal = bal + 1 WHERE id = 1;",
        "UPDATE acct SET bal = bal + 1 WHERE id = 2;",
        "INSERT INTO audit (seq, note) VALUES (1, 'n');",
    ]
    graph = build_dependency_graph(analyze_all(db, sqls))
    assert graph.edges == {(0, 1)}
    assert graph.stages == [[0, 2, 3], [1]]


def test_parse_failed_transactions_stay_out_of_graph():
    db = fresh_db()
    sqls = ["garbage", "UPDATE acct SET bal = 0 WHERE id = 1;"]
    graph = build_dependency_graph(analyze_all(db, sqls))
    assert graph.parse_failed == [0]
    assert graph.stages == [[1]]
    assert graph.edges == set()


def test_stage_soundness_no_intra_stage_conflicts_randomized():
    """Randomized blocks: members of one stage never conflict pairwise."""
    rng = random.Random(7)
    db = fresh_db(rows=[(i, 100) for i in range(1, 9)])
    catalog = catalog_of(db)
    for _ in range(40):
        sqls = []
        for _ in range(rng.randint(2, 24)):
            src, dst = rng.randint(1, 8), rng.randint(1, 8)
            sqls.append(
                rng.choice(
                    [
                        f"UPDATE acct SET bal = bal + 1 WHERE id = {src};",
                        f"UPDATE acct SET bal = bal - 1 WHERE id BETWEEN {min(src, dst)} AND {max(src, dst)};",
                        f"SELECT bal FROM acct WHERE id = {src};",
                        f"DELETE FROM acct WHERE id = {src};",
                    ]
                )
            )
        sets = [access_set(i, sql, catalog) for i, sql in enumerate(sqls)]
        graph = build_dependency_graph(sets)
        for members in graph.stages:
            for i in members:
                for j in members:
                    if i < j:
                        assert (i, j) not in graph.edges


def test_transactions_separated_on_different_witness_columns_share_a_stage():
    """T0 and T2 are separated on b, and T1 from each on a: no pair conflicts,
    so all three run in stage 0, though no single column separates T2 from
    both earlier transactions."""
    db = Database()
    assert run_sql(db, "CREATE TABLE t (a INT, b INT, v INT, PRIMARY KEY (a, b));").success
    sqls = [
        "UPDATE t SET v = v + 1 WHERE a = 1 AND b = 1;",
        "UPDATE t SET v = v + 1 WHERE a = 2;",
        "UPDATE t SET v = v + 1 WHERE a = 1 AND b = 2;",
    ]
    graph = build_dependency_graph(analyze_all(db, sqls))
    assert graph.stages == [[0, 1, 2]]
    assert graph.edges == set()


def test_to_dot_mentions_nodes_and_edges():
    db = fresh_db(rows=[(1, 100)])
    sqls = [
        "UPDATE acct SET bal = bal + 1 WHERE id = 1;",
        "UPDATE acct SET bal = bal + 2 WHERE id = 1;",
    ]
    dot = build_dependency_graph(analyze_all(db, sqls)).to_dot()
    assert dot.startswith("digraph")
    assert "t0 -> t1;" in dot
    assert 'label="T1 stage 1"' in dot


# ---- staged execution vs serial oracle ----


def run_serial(db, sqls):
    digest = BlockDigest()
    bits = []
    for sql in sqls:
        result = db.execute_transaction(sql, digest)
        bits.append(result.success)
    return bits, compute_hash_digest(digest), db.state_hash()


def run_staged(db, sqls):
    sets = analyze_all(db, sqls)
    graph = build_dependency_graph(sets)
    digest = BlockDigest()
    bits = execute_staged(graph, sets, db, digest=digest)
    return list(bits), compute_hash_digest(digest), db.state_hash()


TRANSFER_POOL = [
    "UPDATE acct SET bal = bal + 5 WHERE id = {a};",
    "UPDATE acct SET bal = bal - 5 WHERE id = {a}; UPDATE acct SET bal = bal + 5 WHERE id = {b};",
    "SELECT bal FROM acct WHERE id = {a};",
    "INSERT INTO audit (seq, note) VALUES ({seq}, 'm');",
    "DELETE FROM acct WHERE id = {a};",
    "UPDATE acct SET bal = 0 WHERE id BETWEEN {a} AND {c};",
]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_staged_execution_equals_serial(seed):
    rng = random.Random(seed)
    rows = [(i, 100) for i in range(1, 10)]
    sqls = []
    for n in range(rng.randint(2, 20)):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        sqls.append(
            rng.choice(TRANSFER_POOL).format(a=a, b=b, c=a + rng.randint(0, 3), seq=n)
        )
    serial_bits, serial_digest, serial_state = run_serial(fresh_db(rows), sqls)
    par_bits, par_digest, par_state = run_staged(fresh_db(rows), sqls)
    assert par_bits == serial_bits
    assert par_digest == serial_digest
    assert par_state == serial_state


# ---- the conflict rule against serial execution, any order within a stage ----

ORACLE_DDL = "CREATE TABLE t (id INT, n INT, s TEXT, PRIMARY KEY (id));"
ORACLE_ROWS = [(1, 0, "a"), (2, 1, "B"), (3, 2, "b"), (4, 3, "C")]

ids = st.integers(0, 5)
ints = st.integers(0, 3)
texts = st.sampled_from(["'a'", "'A'", "'b'", "'B'", "'c'", "'C'"])


def comparisons(column, values):
    return st.one_of(
        st.builds(f"{column} {{}} {{}}".format, st.sampled_from(["=", "<", ">"]), values),
        st.builds(f"{column} BETWEEN {{}} AND {{}}".format, values, values),
    )


conditions = st.one_of(comparisons("id", ids), comparisons("n", ints), comparisons("s", texts))
wheres = st.lists(conditions, min_size=1, max_size=2).map(" AND ".join)
statements = st.one_of(
    st.builds("UPDATE t SET n = n + 1 WHERE {};".format, wheres),
    st.builds("UPDATE t SET n = {} WHERE {};".format, ints, wheres),
    st.builds("UPDATE t SET s = {} WHERE {};".format, texts, wheres),
    st.builds("DELETE FROM t WHERE {};".format, wheres),
    st.builds("INSERT INTO t (id, n, s) VALUES ({}, {}, {});".format, ids, ints, texts),
    st.builds("SELECT * FROM t WHERE {};".format, wheres),
    st.sampled_from(["UPDATE t SET n = n + 1;", "DELETE FROM t;", "SELECT * FROM t;"]),
)
blocks = st.lists(st.lists(statements, min_size=1, max_size=2).map(" ".join), max_size=8)
collations = st.sampled_from(["binary", "case_insensitive"])


def oracle_db(collation):
    db = Database(QuirkConfig.from_dict({"text_collation_for_order": collation}))
    assert db.execute_transaction(ORACLE_DDL).success
    for row in ORACLE_ROWS:
        assert db.execute_transaction("INSERT INTO t (id, n, s) VALUES (%d, %d, '%s');" % row).success
    return db


def run_stages_in_order(db, sqls, arrange):
    """Each stage's members in the order `arrange` gives them, straight
    through the engine."""
    sets = analyze_all(db, sqls)
    graph = build_dependency_graph(sets)
    digest = BlockDigest()
    bits = [False] * len(sqls)
    for members in graph.stages:
        for i in arrange(list(members)):
            bits[i] = db.execute_transaction(sets[i].statements, digest).success
    return bits, compute_hash_digest(digest), db.state_hash()


DEFECT_SET_COLUMN = [  # an assigned column was not a write
    "UPDATE t SET n = n + 1 WHERE id = 1;",
    "UPDATE t SET n = 0 WHERE id = 1;",
    "UPDATE t SET n = n + 1 WHERE n < 3;",
]
DEFECT_OTHER_COLUMN = [  # predicates on different columns did not conflict
    "UPDATE t SET n = n + 1 WHERE id = 1;",
    "UPDATE t SET n = 0 WHERE id = 1;",
    "UPDATE t SET n = n + 1 WHERE s = 'a';",
]
DEFECT_TEXT_RANGE = [  # a binary TEXT range missed a case-insensitive match
    "UPDATE t SET n = 5 WHERE s BETWEEN 'a' AND 'c';",
    "UPDATE t SET n = 8 WHERE s = 'B';",
]


@settings(max_examples=300, deadline=None)
@given(blocks, collations, st.randoms(use_true_random=False))
@example(DEFECT_SET_COLUMN, "binary", random.Random(0))
@example(DEFECT_OTHER_COLUMN, "binary", random.Random(0))
@example(DEFECT_TEXT_RANGE, "case_insensitive", random.Random(1))
def test_any_order_within_stages_equals_serial(sqls, collation, rng):
    """Reversed order swaps every pair that shares a stage; a shuffle
    tries one more order."""
    serial = run_serial(oracle_db(collation), sqls)
    assert run_stages_in_order(oracle_db(collation), sqls, lambda m: m[::-1]) == serial
    assert run_stages_in_order(oracle_db(collation), sqls, lambda m: rng.sample(m, len(m))) == serial


def stages_and_row(sqls, collation="binary"):
    db = oracle_db(collation)
    sets = analyze_all(db, sqls)
    graph = build_dependency_graph(sets)
    execute_staged(graph, sets, db)
    return graph.stages, db.table("t").rows[b"1"]


def test_defect_assigned_column_is_a_write():
    # serial order: 0 + 1, then 0, then 0 + 1
    assert stages_and_row(DEFECT_SET_COLUMN) == ([[0], [1], [2]], (1, 1, "a"))


def test_defect_predicates_on_different_columns_conflict():
    assert stages_and_row(DEFECT_OTHER_COLUMN) == ([[0], [1], [2]], (1, 1, "a"))


def test_defect_text_range_under_case_insensitive_collation():
    stages, _ = stages_and_row(DEFECT_TEXT_RANGE, "case_insensitive")
    assert stages == [[0], [1]]


def test_smallbank_block_keeps_its_stages():
    """Smallbank confines every update to one custid, so the rule finds the
    same stages as the former rule, which keyed conflicts on WHERE columns
    only: 44 stages, widest 116, for this block of 256."""
    db = Database()
    for ddl in (CHECKING_DDL, SAVINGS_DDL):
        assert db.execute_transaction(ddl).success
    txns = generate_workload(SmallbankConfig(num_users=1000, zipf_s=1.1), seed=3, count=256)
    graph = build_dependency_graph(analyze_all(db, list(txns)))
    assert (len(graph.stages), max(map(len, graph.stages))) == (44, 116)
    assert (
        hashlib.sha256(repr(graph.stages).encode()).hexdigest()
        == "67d4410e6150fe97a1ecfa6ea4b7eb4b36ec3cf3bf8b58247d2d87f9baced63a"
    )


def test_parse_failed_bit_stays_zero():
    db = fresh_db(rows=[(1, 100)])
    sqls = ["nonsense;;;", "UPDATE acct SET bal = bal + 1 WHERE id = 1;"]
    sets = analyze_all(db, sqls)
    graph = build_dependency_graph(sets)
    bits = execute_staged(graph, sets, db)
    assert bits == [False, True]
    assert db.table("acct").rows[b"1"][2] == Decimal("101.00")


def test_failed_transaction_keeps_bit_zero_but_block_continues():
    db = fresh_db(rows=[(1, 100)])
    sqls = [
        "INSERT INTO acct (id, owner, bal) VALUES (1, 'dup', 0);",  # duplicate pk
        "UPDATE acct SET bal = bal + 1 WHERE id = 1;",
    ]
    sets = analyze_all(db, sqls)
    bits = execute_staged(build_dependency_graph(sets), sets, db)
    assert bits == [False, True]
