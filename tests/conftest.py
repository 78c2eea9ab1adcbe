"""Shared fixtures: engines, multi-org clusters, and round-driving helpers."""

import gc

import pytest

from effectledger import keys
from effectledger.agreement import ChainedTransaction, make_proposal
from effectledger.consensus import ConsensusPolicy
from effectledger.engine.database import Database
from effectledger.engine.parser import parse_script
from effectledger.engine.types import QuirkConfig
from effectledger.keys import KeyRegistry, derive_private_key
from effectledger.org import Action, OrgNode

CLIENT = "client"


@pytest.fixture
def db():
    return Database()


def run_sql(database, sql):
    """Parse and execute one transaction, returning its TransactionResult."""
    return database.execute_transaction(parse_script(sql))


def unread_verdicts() -> list:
    """The live keys.Verdicts that still have verdicts to read, after a
    collection.

    A reader drops a Verdicts with its iterator once it has read the last
    verdict, and a Verdicts that nobody holds goes with the next collection,
    held-back jobs and all.  So every one still live after gc.collect() is
    unread, unless the caller itself keeps one it has read to the end; a
    caller that does deletes it first.
    """
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, keys.Verdicts)]


def block_id_of(block) -> int:
    """The id of a LedgerBlock or of its serialization, which starts with it
    as a u64: ledger.block_hash takes either."""
    return int.from_bytes(block[:8], "big") if isinstance(block, bytes) else block.block_id


@pytest.fixture
def block_errors(monkeypatch):
    """Per block an organization runs, the error of each transaction's
    ParsedTransaction (None for one that parsed), read as the block runs."""
    blocks = []
    run_block = OrgNode._run_block

    def recorded(node, block_id, records, parsed, hash_previous):
        errors = []
        blocks.append(errors)

        def read():
            for txn in parsed:
                errors.append(txn.error)
                yield txn

        return run_block(node, block_id, records, read(), hash_previous)

    monkeypatch.setattr(OrgNode, "_run_block", recorded)
    return blocks


@pytest.fixture
def bank_db():
    """Engine with a two-row accounts table, handy for predicate tests."""
    database = Database()
    for sql in (
        "CREATE TABLE acct (id INT, owner TEXT, bal DECIMAL(10, 2), PRIMARY KEY (id));",
        "INSERT INTO acct (id, owner, bal) VALUES (1, 'alice', 100), (2, 'bob', 250.50);",
    ):
        result = run_sql(database, sql)
        assert result.success, result.error
    return database


class Cluster:
    """A handful of organization nodes wired together without the simulator."""

    def __init__(self, count=3, min_matching=2, quirks=None, **node_kwargs):
        self.registry = KeyRegistry()
        policy = ConsensusPolicy(min_matching)
        quirks = quirks or [QuirkConfig()] * count
        self.client_key = derive_private_key(f"test:{CLIENT}")
        self.registry.register(CLIENT, self.client_key)
        self.nodes = {}
        for i in range(count):
            org = f"O{i + 1}"
            key = derive_private_key(f"test:{org}")
            self.registry.register(org, key)
            self.nodes[org] = OrgNode(
                org,
                quirks=quirks[i],
                policy=policy,
                registry=self.registry,
                private_key=key,
                **node_kwargs,
            )

    def __getitem__(self, org):
        return self.nodes[org]

    def peers_of(self, org):
        return [o for o in self.nodes if o != org]

    def fetch_vote(self, responder, block_id):
        return self.nodes[responder].serve_hash_request(block_id)

    def action(self, block_id, *sqls):
        return Action(
            block_id,
            tuple(
                ChainedTransaction(make_proposal(CLIENT, sql, self.client_key), ())
                for sql in sqls
            ),
        )

    def round(self, block_id, *sqls):
        """Execute and complete one block of signed transactions everywhere."""
        action = self.action(block_id, *sqls)
        outcomes = {}
        for node in self.nodes.values():
            node.execute_action(action)
        for org, node in self.nodes.items():
            outcomes[org] = node.complete_round(self.peers_of(org), self.fetch_vote)
        return outcomes


@pytest.fixture
def cluster():
    return Cluster()
