"""Shapes compiled once per organization: access set and executor.

Each organization compiles a shape its plan cache learned, against its own
engine, into an access function (scheduler) and an executor
(engine.compiled).  Both must give exactly what the interpreter gives: the
property below runs texts of one shape through a plan cache and a compiled
engine, and through the parser and a twin engine that only interprets, and
compares success bits, outputs, errors, digest tuples, state after each
transaction (rollbacks included) and accesses.  Bulk loads run the same
comparison on INSERT row shapes.  The other tests pin when a compiled form
must not be used: after the engine's tables were replaced, after a CREATE
TABLE rolled back, and for a table created earlier in the same block.
"""

import random
import re

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from effectledger.agreement import parse_transaction
from effectledger.engine.database import Database
from effectledger.engine.parser import PlanCache
from effectledger.engine.types import DecimalRounding, QuirkConfig
from effectledger.ledger import BlockDigest
from effectledger.scheduler import Access, Interval, access_set, analyze_transaction
from effectledger.smallbank import SmallbankConfig, bootstrap_transactions, generate_workload

from conftest import Cluster

COLUMNS = "a INT, b TEXT, c DECIMAL(6, 2), n INT, d DECIMAL(8, 2), s TEXT"
ROWS = (
    "(1, 'x', 1.5, 10, 2.5, 'p'), (2, 'y', 2, 20, 0, 'q'), (3, 'X', 2.25, -5, 1.25, 'r'), "
    "(-9223372036854775808, '', 0, 9223372036854775807, -3.75, 'A%=#')"
)
PRIMARY_KEYS = [("a",), ("b",), ("c",), ("a", "b"), ("b", "c"), ("c", "a")]
KEY_SLOTS = {"a": "{N}", "b": "{S}", "c": "{D}"}

# {N}, {D} and {S} are literal slots meant for an INT, DECIMAL and TEXT
# column; {PK} is an equality on each primary-key column, in any order.
TEMPLATES = [
    "UPDATE t SET n = n + {N} WHERE {PK}",
    "UPDATE t SET d = d - {D} WHERE {PK}",
    "UPDATE t SET d = n + d + {D}, s = {S} WHERE {PK}",
    "UPDATE t SET n = n WHERE {PK}",
    "UPDATE t SET n = {N}, d = {D} WHERE {PK} AND s = {S}",
    "UPDATE t SET s = s + {N} WHERE {PK}",
    "UPDATE t SET n = d WHERE {PK}",
    "UPDATE t SET a = {N} WHERE {PK}",
    "DELETE FROM t WHERE {PK}",
    "DELETE FROM t WHERE {PK} AND n = {N}",
    "SELECT * FROM t WHERE {PK}",
    "SELECT s, d, a FROM t WHERE {PK} AND d = {D}",
    "INSERT INTO t (a, b, c, n, d, s) VALUES ({N}, {S}, {D}, {N}, {D}, {S})",
    "INSERT INTO t VALUES ({N}, {S}, {D}, {N}, {D}, {S})",
    "INSERT INTO t (s, d, n, c, b, a) VALUES ({S}, {D}, {N}, {D}, {S}, {N})",
    "UPDATE t SET n = n + 1 WHERE n > {N}",
]
# the literal kinds a slot may hold: mostly its column's, sometimes one
# that the column refuses
SLOT_KINDS = {
    "{N}": ["int"] * 4 + ["-int", "dec"],
    "{D}": ["dec"] * 3 + ["-dec", "int"],
    "{S}": ["str"] * 5 + ["int"],
}
LONG = "1" * 47 + ".5"  # DECIMAL out of range at scale 2
WIDE = "123456789012345678901234567890.125"  # more digits than the default context keeps
LITERALS = {
    "int": st.sampled_from(
        ["0", "1", "2", "3", "20", "9223372036854775807", "9223372036854775808"]
    ) | st.integers(0, 30).map(str),
    "-int": st.sampled_from(["1", "5", "9223372036854775808", "9223372036854775809"]).map(
        "-{}".format
    ),
    "dec": st.sampled_from(
        ["1.5", "1.50", "2.0", "2.25", "2.255", "0.005", "2.675", "3.000", "0.0", LONG, WIDE]
    ),
    "-dec": st.sampled_from(["0.015", "3.75", "1.5", "0.004", "0.0"]).map("-{}".format),
    "str": st.sampled_from(["'x'", "'X'", "'y'", "''", "'p'", "'A%=#'", "'it''s'"]),
}
SLOT = re.compile(r"\{[NDS]\}")
quirk_sets = st.builds(
    QuirkConfig,
    decimal_rounding=st.sampled_from(list(DecimalRounding)),
    update_noop_emits_digest=st.booleans(),
)


def fill(script, literals):
    pieces = SLOT.split(script)
    return "".join(piece + literal for piece, literal in zip(pieces, literals)) + pieces[-1]


@st.composite
def shapes(draw):
    """(primary key, quirks, texts of one shape with different literals)."""
    pk = draw(st.sampled_from(PRIMARY_KEYS))
    statements = []
    for template in draw(st.lists(st.sampled_from(TEMPLATES), min_size=1, max_size=2)):
        key = " AND ".join(f"{c} = {KEY_SLOTS[c]}" for c in draw(st.permutations(pk)))
        statements.append(template.replace("{PK}", key))
    script = "; ".join(statements) + ";"
    kinds = [draw(st.sampled_from(SLOT_KINDS[slot])) for slot in SLOT.findall(script)]
    bindings = draw(
        st.lists(st.tuples(*(LITERALS[kind] for kind in kinds)), min_size=2, max_size=6)
    )
    return pk, draw(quirk_sets), [fill(script, literals) for literals in bindings]


def seeded(pk, quirks):
    db = Database(quirks)
    for sql in (
        f"CREATE TABLE t ({COLUMNS}, PRIMARY KEY ({', '.join(pk)}));",
        f"INSERT INTO t (a, b, c, n, d, s) VALUES {ROWS};",
    ):
        assert db.execute_transaction(sql).success
    return db


def catalog(db):
    return {name: table.schema for name, table in db.tables.items()}


def outcome(db, statements):
    """What executing the statements gives, with the digest tuples recorded."""
    digest = BlockDigest()
    try:
        result = db.execute_transaction(statements, digest)
    except Exception as exc:  # an error the engine does not turn into a failed result
        return type(exc), str(exc)
    return result.success, result.outputs, result.error, digest.tuples


def run_both(compiled, plans, twin, sql):
    """Analyze and execute sql on the engine that compiles, through its plan
    cache, and on the twin through the parser; assert they agree."""
    mine = access_set(0, parse_transaction(sql, plans), catalog(compiled))
    theirs = access_set(0, parse_transaction(sql), catalog(twin))
    assert (mine.parse_error, mine.accesses) == (theirs.parse_error, theirs.accesses)
    if theirs.parse_error is not None:
        return None
    result = outcome(compiled, mine.statements)
    assert result == outcome(twin, theirs.statements)
    assert compiled.dump_all() == twin.dump_all()
    return result


def compiled_runs(plans):
    return sum(plan.executed for plan in plans.plans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shapes())
def test_a_compiled_shape_gives_what_the_interpreter_gives(case):
    pk, quirks, texts = case
    compiled, twin, plans = seeded(pk, quirks), seeded(pk, quirks), PlanCache()
    for sql in texts:
        run_both(compiled, plans, twin, sql)
    event(f"compiled runs: {min(compiled_runs(plans), 2)}")


DEPOSIT = "UPDATE t SET d = d + {} WHERE a = {};"


def fresh():
    """An engine that compiles, its interpreting twin, and a plan cache;
    table t keyed on a."""
    return seeded(("a",), QuirkConfig()), seeded(("a",), QuirkConfig()), PlanCache()


def test_single_row_shapes_compile_and_others_do_not():
    # shape -> (compiled runs, compiled analyses) of its second and third text
    expected = {
        "UPDATE t SET d = d + 1.5 WHERE a = {};": (2, 2),
        "UPDATE t SET n = n - 1, s = 'z' WHERE s = 'p' AND a = {};": (2, 2),
        "DELETE FROM t WHERE a = {};": (2, 2),
        "SELECT b, c FROM t WHERE a = {};": (2, 2),
        "INSERT INTO t (a, b, c, n, d, s) VALUES ({}0, 'k', 1, 2, 3.5, 'v');": (2, 2),
        "UPDATE t SET n = n + 1 WHERE a > {};": (0, 0),  # a range
        "UPDATE t SET n = n + 1 WHERE a = {} AND a = 2;": (0, 0),  # a column twice
        "UPDATE t SET n = 1.5 WHERE a = {};": (0, 2),  # fails its bind check
        "UPDATE t SET n = n + 1 WHERE b = 'x' AND n = {};": (0, 2),  # the key is not pinned
    }
    for template, counts in expected.items():
        compiled, twin, plans = fresh()
        for key in (1, 2, 3):
            run_both(compiled, plans, twin, template.format(key))
        [plan] = plans.plans()
        assert (plan.executed, plan.analyzed) == counts, template


def test_an_executor_resolves_its_table_after_restore_all_and_reset():
    compiled, twin, plans = fresh()
    snapshot, twin_snapshot = compiled.snapshot_all(), twin.snapshot_all()
    for key in (1, 2):
        run_both(compiled, plans, twin, DEPOSIT.format("1.25", key))
    compiled.restore_all(snapshot)
    twin.restore_all(twin_snapshot)
    run_both(compiled, plans, twin, DEPOSIT.format("2.5", 1))
    assert compiled_runs(plans) == 2

    # a snapshot of another engine whose t has other columns
    other = Database()
    assert other.execute_transaction(
        "CREATE TABLE t (a INT, d TEXT, PRIMARY KEY (a)); INSERT INTO t VALUES (1, 'w');"
    ).success
    compiled.restore_all(other.snapshot_all())
    twin.restore_all(other.snapshot_all())
    result = run_both(compiled, plans, twin, DEPOSIT.format("3.5", 1))
    assert result[0] is False  # TEXT arithmetic, on the interpreter
    assert compiled_runs(plans) == 2

    compiled.reset()
    twin.reset()
    assert run_both(compiled, plans, twin, DEPOSIT.format("1.5", 1)) == (
        False, [], "unknown table t", ()
    )
    assert compiled_runs(plans) == 2
    for db in (compiled, twin):
        assert db.execute_transaction(
            "CREATE TABLE t (d DECIMAL(4, 1), a INT, PRIMARY KEY (a));"
            " INSERT INTO t (a, d) VALUES (1, 0.5);"
        ).success
    run_both(compiled, plans, twin, DEPOSIT.format("1.26", 1))
    assert compiled_runs(plans) == 3  # compiled again, against the new schema
    [plan] = plans.plans()
    assert plan.executor.db is compiled


def test_a_create_table_that_rolled_back_leaves_no_table_to_run_on():
    compiled, twin, plans = Database(), Database(), PlanCache()
    insert = "INSERT INTO u (k, v) VALUES ({}, 1);"
    for db in (compiled, twin):
        failed = db.execute_transaction(
            "CREATE TABLE u (k INT, v INT, PRIMARY KEY (k));"
            " INSERT INTO u (k, v) VALUES (1, 1); INSERT INTO u (k, v) VALUES (1, 2);"
        )
        assert not failed.success and "u" not in db.tables
    for key in (1, 2, 3):
        result = run_both(compiled, plans, twin, insert.format(key))
        assert result == (False, [], "unknown table u", ())
    assert compiled_runs(plans) == 0
    for db in (compiled, twin):
        assert db.execute_transaction("CREATE TABLE u (k INT, v TEXT, PRIMARY KEY (k));").success
    run_both(compiled, plans, twin, insert.format(4))  # a TEXT column refuses 1
    for db in (compiled, twin):
        db.reset()
        assert db.execute_transaction("CREATE TABLE u (k INT, v INT, PRIMARY KEY (k));").success
    for key in (5, 6):
        assert run_both(compiled, plans, twin, insert.format(key))[0] is True
    assert compiled_runs(plans) == 2


# column lists a bulk load may name, and the order its values take
BULK_COLUMNS = {
    "in order": (" (a, b, c, n, d, s)", "abcnds"),
    "reordered": (" (s, d, n, c, b, a)", "sdncba"),
    "no column list": ("", "abcnds"),
}


def bulk(order, *rows):
    """A bulk load of rows, each a dict of literal texts by column."""
    columns, names = BULK_COLUMNS[order]
    values = ", ".join("(" + ", ".join(row[name] for name in names) + ")" for row in rows)
    return f"INSERT INTO t{columns} VALUES {values};"


def row(a, n="1", c="1.5", d="2.675"):
    return {"a": str(a), "b": f"'k{a}'", "c": c, "n": n, "d": d, "s": "'it''s'"}


@pytest.mark.parametrize("order", sorted(BULK_COLUMNS))
@pytest.mark.parametrize("pk", [("a",), ("c", "a")])
@pytest.mark.parametrize("rounding", list(DecimalRounding))
def test_a_compiled_bulk_load_gives_what_the_interpreter_gives(order, pk, rounding):
    """Success bits, outputs, error text, digest tuples and state after each
    bulk load, compiled from its row shape and interpreted; the values
    round differently under each decimal_rounding quirk."""
    quirks = QuirkConfig(decimal_rounding=rounding)
    compiled, twin, plans = seeded(pk, quirks), seeded(pk, quirks), PlanCache()
    cases = [
        ([row(10), row(11, d="0.015")], None),  # teaches the row shape
        ([row(12, c="0.005"), row(13, d="2.665"), row(14, n="9223372036854775807")], None),
        ([row(20), row(21), row(20)], "table t: duplicate primary key"),  # within the load
        ([row(30), row(1)], "table t: duplicate primary key"),  # an existing row
        ([row(40), row(41, n="9223372036854775808")], "column n: INT out of range"),
        ([row(50, c=LONG)], "column c: DECIMAL out of range"),
        ([row(n, d=f"{n}.125") for n in range(60, 360)], None),
    ]
    for rows, error in cases:
        before = compiled.state_hash()
        success, outputs, text, tuples = run_both(compiled, plans, twin, bulk(order, *rows))
        assert (success, text) == (error is None, error)
        assert compiled.state_hash() == twin.state_hash()
        if error is None:
            assert outputs == [len(rows)] and len(tuples) == len(rows)
        else:
            assert compiled.state_hash() == before  # the whole load rolled back
    [plan] = plans.plans()
    assert plan.rows and plan.executed == len(cases) - 1


def test_a_table_created_earlier_in_the_block_is_analyzed_coarsely(monkeypatch):
    from effectledger import org as org_module

    cluster = Cluster(count=1, min_matching=1)
    node = cluster["O1"]
    analyses = []

    def recorded(statements, catalog, analyze=org_module.analyze_transaction):
        analyses.append((statements, dict(catalog), analyze(statements, catalog)))
        return analyses[-1][2]

    monkeypatch.setattr(org_module, "analyze_transaction", recorded)
    block = [
        "CREATE TABLE u (k INT, v DECIMAL(6, 2), PRIMARY KEY (k));",
        "INSERT INTO u (k, v) VALUES (1, 1.5);",
        "INSERT INTO u (k, v) VALUES (2, 2.5);",
        "UPDATE u SET v = v + 1 WHERE k = 1;",
        "UPDATE u SET v = v + 2 WHERE k = 2;",
    ]
    cluster.round(1, *block)
    assert node.ledger.block(1).successful == (True,) * 5
    for statements, block_start, accesses in analyses:
        assert block_start == {}
        assert accesses == (Access("u", True),)
        assert accesses == analyze_transaction(tuple(statements), block_start)  # interpreted
    plans = {type(plan.template[0]).__name__: plan for plan in node.plans.plans()}
    assert (plans["Insert"].executed, plans["Update"].executed) == (1, 1)
    assert (plans["Insert"].analyzed, plans["Update"].analyzed) == (1, 1)

    twin = Database()
    for sql in block:
        assert twin.execute_transaction(sql).success
    assert node.db.state_hash() == twin.state_hash()

    analyses.clear()
    cluster.round(2, "INSERT INTO u (k, v) VALUES (3, 3.5);", "UPDATE u SET v = v + 3 WHERE k = 3;")
    assert [accesses[0].witnesses for _, _, accesses in analyses] == [
        {"k": Interval(3, 3)}, {"k": Interval(3, 3)}
    ]
    assert (plans["Insert"].analyzed, plans["Update"].analyzed) == (2, 2)


def test_a_bulk_load_into_a_table_created_earlier_in_the_block_runs_compiled(monkeypatch):
    """The block's second bulk load binds and runs compiled on the table the
    block created, with the coarse access of a table missing at block
    start; in the next block it has one access per row."""
    from effectledger import org as org_module

    cluster = Cluster(count=1, min_matching=1)
    node = cluster["O1"]
    analyses = []

    def recorded(statements, catalog, analyze=org_module.analyze_transaction):
        analyses.append(analyze(statements, catalog))
        return analyses[-1]

    monkeypatch.setattr(org_module, "analyze_transaction", recorded)
    loads = [
        "INSERT INTO u (k, v) VALUES (1, 1.5), (2, 2.5);",
        "INSERT INTO u (k, v) VALUES (3, 3.5), (4, 4.5), (5, 5.5);",
        "INSERT INTO u (k, v) VALUES (6, 6.5), (7, 7.5);",
    ]
    block = ["CREATE TABLE u (k INT, v DECIMAL(6, 2), PRIMARY KEY (k));", *loads[:2]]
    cluster.round(1, *block)
    assert node.ledger.block(1).successful == (True,) * 3
    assert analyses[1:] == [(Access("u", True),)] * 2
    [plan] = node.plans.plans()
    assert (plan.rows, plan.executed, plan.analyzed) == (True, 1, 1)

    analyses.clear()
    cluster.round(2, loads[2])
    assert analyses == [(Access("u", True, {"k": Interval(6, 6)}),
                         Access("u", True, {"k": Interval(7, 7)}))]
    assert (plan.executed, plan.analyzed) == (2, 2)
    twin = Database()
    for sql in block + loads[2:]:
        assert twin.execute_transaction(sql).success
    assert node.db.state_hash() == twin.state_hash()


def test_each_organization_compiles_every_smallbank_shape_for_itself():
    # a bank-steady block: 1024 Smallbank transactions over 1000 accounts
    bootstrap = bootstrap_transactions(1000, random.Random(1))
    block = list(generate_workload(SmallbankConfig(num_users=1000, zipf_s=1.1), 1, 1024))
    cluster = Cluster()
    cluster.round(1, *bootstrap)
    cluster.round(2, *block)
    executors = []
    for node in cluster.nodes.values():
        assert node.ledger.height == 2 and all(node.ledger.block(2).successful)
        plans = node.plans.plans()
        # transact_savings, deposit_checking, send_payment, write_check, and
        # the row shapes of the checking and savings bulk loads
        assert len(plans) == 6
        # the first bulk load of each table and the first text of each
        # Smallbank shape miss; the other six bulk loads bind and compile
        assert node.plans.hits == len(block) - 4 + 6
        assert sum(plan.executed for plan in plans) == len(block) - 4 + 6
        assert sum(plan.analyzed for plan in plans) == len(block) - 4 + 6
        assert all(plan.executor.db is node.db for plan in plans)
        executors += [plan.executor for plan in plans]
    assert len({id(executor) for executor in executors}) == len(executors)

    twin = Database()
    for sql in bootstrap + block:
        twin.execute_transaction(sql)
    assert cluster["O1"].db.state_hash() == twin.state_hash()

    # a compiled transaction reads the bound values only: no statements are built
    built = []
    for node in cluster.nodes.values():
        for plan in node.plans.plans():
            plan.build = lambda values, build=plan.build: built.append(values) or build(values)
    cluster.round(3, *generate_workload(SmallbankConfig(num_users=1000, zipf_s=1.1), 2, 256))
    assert built == []
    for node in cluster.nodes.values():
        assert sum(plan.executed for plan in node.plans.plans()) == len(block) - 4 + 6 + 256
