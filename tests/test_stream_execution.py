"""An organization executes each transaction of a block as its verdict
arrives, in block order, placing it in its stage first.  That must give what
staged execution gives: the dependency graph of the block's analyses, run
stage by stage on a twin engine by scheduler.execute_staged.  Same bits,
digest hash, block hash, state hash and stage sizes, over random blocks with
DDL mid-block, failing statements, parse errors and transactions that fail
verification, under each rounding quirk and with no-op updates emitting
digest tuples or not.  An organization with other quirks, whose plan cache
already knows every shape of the block, so that it analyzes them compiled,
places the same stages."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from effectledger.agreement import (
    ChainedTransaction,
    TransactionProposal,
    make_proposal,
    parse_transaction,
    verify_chained_transaction,
)
from effectledger.engine.database import Database
from effectledger.engine.types import DecimalRounding, QuirkConfig
from effectledger.keys import KeyRegistry, derive_private_key
from effectledger.ledger import (
    BlockDigest,
    TransactionRecord,
    block_hash,
    build_ledger_block,
    compute_hash_digest,
)
from effectledger.org import Action, OrgNode
from effectledger.scheduler import (
    TxnAccessSet,
    access_set,
    build_dependency_graph,
    execute_staged,
)

CLIENT = "client"
CLIENT_KEY = derive_private_key("test:stream:client")
SEED = (
    "CREATE TABLE t (id INT, n INT, d DECIMAL(8, 2), s TEXT, PRIMARY KEY (id));",
    "INSERT INTO t (id, n, d, s) VALUES (1, 0, 1.25, 'a'), (2, 5, 2.5, 'B'), (3, 9, 0, 'c');",
)

ids = st.integers(1, 5)
amounts = st.sampled_from(["1", "0.005", "2.675", "-0.015", "3"])
statements = st.one_of(
    st.builds("UPDATE t SET n = n + 1 WHERE id = {};".format, ids),
    st.builds("UPDATE t SET d = d + {} WHERE id = {};".format, amounts, ids),
    st.builds("UPDATE t SET n = n WHERE id = {};".format, ids),  # a no-op update
    st.builds("UPDATE t SET d = d * 2 WHERE n > {};".format, st.integers(0, 9)),
    st.builds("DELETE FROM t WHERE id = {};".format, ids),
    st.builds("INSERT INTO t (id, n, d, s) VALUES ({}, 1, {}, 'x');".format, ids, amounts),
    st.builds("SELECT * FROM t WHERE id = {};".format, ids),
    # DDL mid-block, and statements on the table it creates or fails to
    st.just("CREATE TABLE u (k INT, v DECIMAL(6, 1), PRIMARY KEY (k));"),
    st.builds("INSERT INTO u (k, v) VALUES ({}, {});".format, ids, amounts),
    st.builds("UPDATE u SET v = v + {} WHERE k = {};".format, amounts, ids),
    # failing at execution: unknown column, or a type the column refuses
    st.builds("UPDATE t SET missing = 1 WHERE id = {};".format, ids),
    st.builds("UPDATE t SET n = 'text' WHERE id = {};".format, ids),
)
# a transaction's SQL, or a parse error
scripts = st.one_of(
    st.lists(statements, min_size=1, max_size=3).map(" ".join),
    st.sampled_from(["UPDATE t SET", "nonsense;", ""]),
)
# (SQL, whether its client signature is genuine)
blocks = st.lists(st.tuples(scripts, st.booleans().map(lambda forged: not forged)), max_size=12)
quirk_sets = st.builds(
    QuirkConfig,
    decimal_rounding=st.sampled_from(list(DecimalRounding)),
    update_noop_emits_digest=st.booleans(),
)


def chained(sql, genuine):
    proposal = make_proposal(CLIENT, sql, CLIENT_KEY)
    if not genuine:  # signed over other SQL: fails verification
        other = make_proposal(CLIENT, sql + " ", CLIENT_KEY)
        proposal = TransactionProposal(CLIENT, sql, other.signature)
    return ChainedTransaction(proposal)


def seeded(database):
    for sql in SEED:
        assert database.execute_transaction(sql).success
    return database


def staged(quirks, action, registry, hash_previous):
    """bits, digest hash, block hash, state hash and stage sizes of action
    run stage by stage on a fresh engine seeded like the organization's."""
    db = seeded(Database(quirks))
    catalog = {name: table.schema for name, table in db.tables.items()}
    access_sets = []
    for i, ct in enumerate(action.transactions):
        parsed = verify_chained_transaction(ct, {}, registry)
        if parsed is None:
            access_sets.append(TxnAccessSet(i, parse_error="agreement verification failed"))
        else:
            access_sets.append(access_set(i, parsed, catalog))
    digest = BlockDigest()
    graph = build_dependency_graph(access_sets)
    bits = execute_staged(graph, access_sets, db, digest)
    records = [TransactionRecord(ct.proposal.client, ct.proposal.sql) for ct in action.transactions]
    block = build_ledger_block(action.round_id, records, bits, digest, hash_previous)
    stages = tuple(len(members) for members in graph.stages)
    return bits, compute_hash_digest(digest), block_hash(block), db.state_hash(), stages


@settings(max_examples=150, deadline=None, derandomize=True)
@given(blocks, quirk_sets)
@example(  # a table created mid-block is missing from the catalog analysis reads
    [
        ("CREATE TABLE u (k INT, v DECIMAL(6, 1), PRIMARY KEY (k));", True),
        ("INSERT INTO u (k, v) VALUES (1, 1);", True),
        ("INSERT INTO u (k, v) VALUES (2, 2);", True),
        ("UPDATE t SET", True),
        ("UPDATE u SET v = v + 1 WHERE k = 1;", False),
        ("UPDATE u SET v = v + 1 WHERE k = 2;", True),
        ("UPDATE t SET n = n + 1 WHERE id = 1;", True),
    ],
    QuirkConfig(),
)
def test_streaming_execution_equals_staged_execution(block, quirks):
    registry = KeyRegistry()
    registry.register(CLIENT, CLIENT_KEY)
    node = OrgNode("O1", quirks=quirks, registry=registry)
    seeded(node.db)
    action = Action(1, tuple(chained(sql, genuine) for sql, genuine in block))

    effect_hash = node.execute_action(action)
    pending = node.pending
    streamed = (
        list(pending.block.successful), pending.block.hash_digest, effect_hash,
        node.db.state_hash(), pending.stages,
    )
    assert streamed == staged(quirks, action, registry, node.ledger.head_hash())
    assert pending.verdicts == tuple(genuine for _, genuine in block)

    roundings = list(DecimalRounding)
    other = QuirkConfig(
        decimal_rounding=roundings[roundings.index(quirks.decimal_rounding) - 1],
        update_noop_emits_digest=not quirks.update_noop_emits_digest,
    )
    twin = OrgNode("O2", quirks=other, registry=registry)
    seeded(twin.db)
    for sql, _ in block:
        parse_transaction(sql, twin.plans)
    twin.execute_action(action)
    assert twin.pending.stages == pending.stages
