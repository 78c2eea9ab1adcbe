"""Each organization parses a transaction once, through its plan cache, and
only after its signatures check out; the outcome bits are those of
verify-then-analyze."""

import pytest

from effectledger import agreement, scheduler
from effectledger import org as org_module
from effectledger.agreement import (
    AgreementPolicy,
    AgreementPredicate,
    ChainedTransaction,
    TransactionProposal,
    collect_agreements,
    endorsers,
    make_proposal,
)
from effectledger.engine import database, parser
from effectledger.engine.parser import PlanCache

from conftest import CLIENT, Cluster

DDL = "CREATE TABLE acct (id INT, bal DECIMAL(12, 2), PRIMARY KEY (id));"
SEED_ROWS = "INSERT INTO acct (id, bal) VALUES (1, 100), (2, 200);"
BLOCK = (
    "UPDATE acct SET bal = bal + 1 WHERE id = 1;",
    "UPDATE acct SET bal = bal - 1 WHERE id = 2;",
    "SELECT * FROM acct WHERE id = 1;",
    "INSERT INTO acct (id, bal) VALUES (3, 5);",
    "DELETE FROM acct WHERE id = 3;",
)
POLICIES = {"acct": AgreementPolicy("acct", ("O2",))}


@pytest.fixture
def parses(monkeypatch):
    """SQL texts each party reads: one per lookup in an organization's plan
    cache, hit or miss, and one per parse outside a plan cache (the
    client's), through every module that parses."""
    seen = []

    def looked_up(cache, sql, parse, lookup=PlanCache.parse):
        seen.append(sql)
        return lookup(cache, sql, parser.parse_script)  # a miss is not a second read

    monkeypatch.setattr(PlanCache, "parse", looked_up)
    for module in (agreement, scheduler, database):
        def counted(sql, original=module.parse_script):
            seen.append(sql)
            return original(sql)

        monkeypatch.setattr(module, "parse_script", counted)
    return seen


def endorsed(cluster, sql):
    """A transaction carrying every agreement POLICIES asks for."""
    proposal = make_proposal(CLIENT, sql, cluster.client_key)
    evaluators = {org: node.evaluate_agreement for org, node in cluster.nodes.items()}
    return collect_agreements(proposal, endorsers(sql, POLICIES), evaluators)


def commit(cluster, action):
    """Execute one action everywhere, then reach consensus; the outcomes."""
    for node in cluster.nodes.values():
        node.execute_action(action)
    return {
        org: node.complete_round(cluster.peers_of(org), cluster.fetch_vote)
        for org, node in cluster.nodes.items()
    }


def seeded_cluster(**node_kwargs):
    cluster = Cluster(**node_kwargs)
    commit(cluster, org_module.Action(1, (endorsed(cluster, DDL), endorsed(cluster, SEED_ROWS))))
    assert cluster["O1"].ledger.block(1).successful == (True, True)
    return cluster


@pytest.mark.parametrize("policies", [{}, POLICIES])
def test_execute_action_parses_each_transaction_once(parses, policies):
    cluster = seeded_cluster(agreement_policies=policies)
    action = org_module.Action(2, tuple(endorsed(cluster, sql) for sql in BLOCK))
    parses.clear()
    cluster["O1"].execute_action(action)
    assert sorted(parses) == sorted(BLOCK)


def test_finding_endorsers_without_policies_does_not_parse(parses):
    assert endorsers(BLOCK[0], {}) == ()
    assert parses == []
    endorsers(BLOCK[0], POLICIES)
    assert parses == [BLOCK[0]]


def test_evaluate_agreement_parses_once(parses):
    cluster = seeded_cluster(
        predicates={"acct": AgreementPredicate.parse("acct", ["T.id >= 1"])}
    )
    proposal = make_proposal(CLIENT, BLOCK[0], cluster.client_key)
    parses.clear()
    assert cluster["O1"].evaluate_agreement(proposal).verdict
    assert parses == [BLOCK[0]]


def test_forged_client_signature_is_not_parsed(parses):
    cluster = seeded_cluster()
    proposal = make_proposal(CLIENT, BLOCK[0], cluster.client_key)
    forged = TransactionProposal(CLIENT, BLOCK[1], proposal.signature)
    action = org_module.Action(
        2, (ChainedTransaction(forged), ChainedTransaction(proposal))
    )
    parses.clear()
    node = cluster["O1"]
    node.execute_action(action)
    assert parses == [BLOCK[0]]
    assert node.pending.block.successful == (False, True)
    assert not node.evaluate_agreement(forged).verdict
    assert parses == [BLOCK[0]]


def test_failed_transactions_keep_their_bits_and_hash(block_errors):
    """Unparseable SQL passes the agreement check and fails as parse-failed; a
    stripped agreement fails verification.  An equal-quirk organization that
    replays the committed block, running only its bit-1 transactions, must
    arrive at the same block hash."""
    cluster = seeded_cluster(agreement_policies=POLICIES)
    unparseable = make_proposal(CLIENT, "UPDATE acct SET", cluster.client_key)
    stripped = make_proposal(CLIENT, BLOCK[1], cluster.client_key)
    action = org_module.Action(
        2,
        (
            endorsed(cluster, BLOCK[0]),
            ChainedTransaction(unparseable),
            ChainedTransaction(stripped),
            endorsed(cluster, BLOCK[3]),
        ),
    )
    block_errors.clear()
    outcomes = commit(cluster, action)
    errors = block_errors[0]
    assert errors[0] is None and errors[3] is None
    assert errors[1].startswith("unexpected end")
    assert errors[2] == "agreement verification failed"
    assert all(e == errors for e in block_errors)

    block = cluster["O1"].ledger.block(2)
    assert block.successful == (True, False, False, True)
    assert len({o.votes[org] for org, o in outcomes.items()}) == 1

    replica = Cluster(count=1, min_matching=1)["O1"]
    ledger = cluster["O1"].ledger
    replica.replay_committed_block(ledger.block(1))
    assert replica.replay_committed_block(block) == outcomes["O1"].votes["O1"]
