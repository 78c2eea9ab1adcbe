"""Per-organization round pipeline: execute, vote, commit, replay."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from effectledger.agreement import (
    AgreementPolicy,
    ChainedTransaction,
    TransactionProposal,
    collect_agreements,
    make_proposal,
)
from effectledger.consensus import ConsensusStatus
from effectledger.engine.types import QuirkConfig
from effectledger.errors import DuplicateRound, EngineFailure, OutOfOrderAction
from effectledger.org import Action
from effectledger.smallbank import (
    CHECKING_TABLE,
    SmallbankConfig,
    bootstrap_transactions,
    generate_workload,
    render_deposit_checking,
)

from conftest import CLIENT, Cluster

DDL = "CREATE TABLE acct (id INT, bal DECIMAL(12, 2), PRIMARY KEY (id));"
SEED_ROWS = "INSERT INTO acct (id, bal) VALUES (1, 100), (2, 200);"


def test_clean_round_commits_everywhere(cluster):
    outcomes = cluster.round(1, DDL, SEED_ROWS)
    assert all(o.status is ConsensusStatus.COMMITTED for o in outcomes.values())
    heads = {node.ledger.head_hash() for node in cluster.nodes.values()}
    assert len(heads) == 1
    assert all(node.height == 1 for node in cluster.nodes.values())


def test_round_outcome_reports_votes(cluster):
    outcomes = cluster.round(1, DDL)
    o1 = outcomes["O1"]
    local_hash = cluster.fetch_vote("O1", 1).effect_hash
    assert o1.block_id == 1
    assert o1.quorum_hash == local_hash
    assert list(o1.votes.values()) == [local_hash] * 3
    assert cluster["O1"].transcripts[1].status.value == "consenting_committed"


def test_committed_block_lists_signers(cluster):
    cluster.round(1, DDL)
    block = cluster["O2"].ledger.block(1)
    assert block.transactions[0].client == CLIENT
    assert block.successful == (True,)


def test_duplicate_round_raises(cluster):
    cluster.round(1, DDL)
    with pytest.raises(DuplicateRound):
        cluster["O1"].execute_action(cluster.action(1, SEED_ROWS))


def test_future_round_raises(cluster):
    cluster.round(1, DDL)
    with pytest.raises(OutOfOrderAction):
        cluster["O1"].execute_action(cluster.action(3, SEED_ROWS))


def test_second_execute_with_round_pending_raises(cluster):
    cluster["O1"].execute_action(cluster.action(1, DDL))
    with pytest.raises(OutOfOrderAction):
        cluster["O1"].execute_action(cluster.action(2, SEED_ROWS))


def test_complete_without_pending_raises(cluster):
    with pytest.raises(OutOfOrderAction):
        cluster["O1"].complete_round(cluster.peers_of("O1"), cluster.fetch_vote)


def test_engine_failure_surfaces(cluster):
    cluster["O1"].db.failed = True
    with pytest.raises(EngineFailure):
        cluster["O1"].execute_action(cluster.action(1, DDL))


def test_receive_buffers_by_round(cluster):
    later = cluster.action(2, SEED_ROWS)
    first = cluster.action(1, DDL)
    node = cluster["O1"]
    node.receive_action(later)
    assert node.executable_action() is None
    node.receive_action(first)
    assert node.executable_action() is first


def test_no_consensus_then_late_commit(cluster):
    """A node alone in a round keeps it pending until peers catch up."""
    action = cluster.action(1, DDL)
    early = cluster["O1"]
    early.execute_action(action)
    outcome = early.complete_round(cluster.peers_of("O1"), cluster.fetch_vote)
    assert outcome.status is ConsensusStatus.NO_CONSENSUS
    assert early.pending is not None
    assert early.height == 0

    for org in ("O2", "O3"):
        cluster[org].execute_action(action)
    late = early.complete_round(cluster.peers_of("O1"), cluster.fetch_vote)
    assert late.status is ConsensusStatus.COMMITTED
    assert early.height == 1 and early.pending is None


def test_quirk_divergence_is_non_consenting():
    cluster = Cluster(
        quirks=[
            QuirkConfig(decimal_rounding="truncate"),
            QuirkConfig(),
            QuirkConfig(),
        ]
    )
    cluster.round(1, DDL, SEED_ROWS)
    # third fractional digit 6: ties-to-even and truncation disagree
    outcomes = cluster.round(2, "UPDATE acct SET bal = bal + 0.016 WHERE id = 1;")
    assert outcomes["O1"].status is ConsensusStatus.NON_CONSENTING
    assert outcomes["O2"].status is ConsensusStatus.COMMITTED
    assert outcomes["O3"].status is ConsensusStatus.COMMITTED
    assert outcomes["O1"].quorum_hash == cluster.fetch_vote("O2", 2).effect_hash

    diverged = cluster["O1"]
    assert diverged.pending is not None  # kept for recovery to resolve
    assert diverged.height == 1


def test_unverifiable_transaction_fails_deterministically(cluster):
    cluster.round(1, DDL, SEED_ROWS)
    unsigned = ChainedTransaction(TransactionProposal(CLIENT, "DELETE FROM acct;"), ())
    signed = make_proposal(CLIENT, "UPDATE acct SET bal = 0 WHERE id = 1;", cluster.client_key)
    action_2 = Action(2, (unsigned, ChainedTransaction(signed, ())))
    for node in cluster.nodes.values():
        node.execute_action(action_2)
    outcomes = {
        org: node.complete_round(cluster.peers_of(org), cluster.fetch_vote)
        for org, node in cluster.nodes.items()
    }
    assert all(o.status is ConsensusStatus.COMMITTED for o in outcomes.values())
    block = cluster["O1"].ledger.block(2)
    assert block.successful == (False, True)
    # the refused DELETE had no effect anywhere
    assert all(len(n.db.table("acct").rows) == 2 for n in cluster.nodes.values())


def test_unknown_client_signature_fails_bit(cluster):
    from effectledger.keys import derive_private_key

    cluster.round(1, DDL, SEED_ROWS)
    rogue = make_proposal("mallory", "DELETE FROM acct;", derive_private_key("mallory"))
    action = Action(2, (ChainedTransaction(rogue, ()),))
    for node in cluster.nodes.values():
        node.execute_action(action)
    for org, node in cluster.nodes.items():
        assert node.complete_round(cluster.peers_of(org), cluster.fetch_vote).status is ConsensusStatus.COMMITTED
    assert cluster["O1"].ledger.block(2).successful == (False,)


def test_replay_matches_committed_hashes(cluster):
    cluster.round(1, DDL, SEED_ROWS)
    cluster.round(2, "UPDATE acct SET bal = bal + 7 WHERE id = 1;")
    node = Cluster(count=1)["O1"]
    for block_id in (1, 2):
        block = cluster["O2"].ledger.block(block_id)
        replayed = node.replay_committed_block(block)
        assert replayed == cluster.fetch_vote("O2", block_id).effect_hash
        node.ledger.append(block)
    assert node.db.state_hash() == cluster["O2"].db.state_hash()


ACCOUNTS = 3  # few accounts, so that a block's transactions conflict
BANK_POLICIES = {CHECKING_TABLE: AgreementPolicy(CHECKING_TABLE, ("O2",))}
FAILURES = ("unparseable", "duplicate_key", "stripped_agreement")


def failing_transaction(cluster, kind):
    """A transaction that commits with bit 0, for one of three causes."""
    if kind == "unparseable":
        return ChainedTransaction(make_proposal(CLIENT, "UPDATE savings SET", cluster.client_key))
    if kind == "duplicate_key":
        return endorse(cluster, "INSERT INTO savings (custid, bal) VALUES (1, 0);")
    # BANK_POLICIES asks for O2's agreement on checking, and this carries none
    sql = render_deposit_checking(1, "1.000")
    return ChainedTransaction(make_proposal(CLIENT, sql, cluster.client_key))


def endorse(cluster, sql):
    proposal = make_proposal(CLIENT, sql, cluster.client_key)
    evaluators = {org: node.evaluate_agreement for org, node in cluster.nodes.items()}
    return collect_agreements(proposal, BANK_POLICIES, evaluators)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(
        st.lists(st.tuples(st.integers(0, 8), st.sampled_from(FAILURES)), max_size=4),
        min_size=1,
        max_size=2,
    ),
)
def test_replay_skips_failed_transactions(seed, failures_per_block):
    """Smallbank blocks with bit-0 transactions at any position replay, on a
    fresh equal-quirk node, to the committed hashes and the same state."""
    cluster = Cluster(agreement_policies=BANK_POLICIES)
    workload = generate_workload(
        SmallbankConfig(num_users=ACCOUNTS, distribution="uniform"), seed
    )
    bootstrap = bootstrap_transactions(ACCOUNTS, random.Random(seed))
    blocks = [[endorse(cluster, sql) for sql in bootstrap]]
    failing = [set()]
    for failures in failures_per_block:
        txns = [endorse(cluster, next(workload)) for _ in range(8)]
        bad = []
        for position, kind in failures:
            ct = failing_transaction(cluster, kind)
            txns.insert(position, ct)
            bad.append(ct)
        blocks.append(txns)
        failing.append({i for i, ct in enumerate(txns) if any(ct is b for b in bad)})
    for block_id, txns in enumerate(blocks, start=1):
        action = Action(block_id, tuple(txns))
        for node in cluster.nodes.values():
            node.execute_action(action)
        for org, node in cluster.nodes.items():
            transcript = node.complete_round(cluster.peers_of(org), cluster.fetch_vote)
            assert transcript.status is ConsensusStatus.COMMITTED

    source = cluster["O1"]
    fresh = Cluster(count=1)["O1"]
    for block_id, bad in enumerate(failing, start=1):
        committed = source.ledger.block(block_id)
        assert not any(committed.successful[i] for i in bad)
        assert fresh.replay_committed_block(committed) == source.ledger.stored_hash(block_id)
        fresh.ledger.append(committed)
    assert fresh.db.state_hash() == source.db.state_hash()


def test_evaluate_agreement_checks_client_signature(cluster):
    proposal = TransactionProposal(CLIENT, "SELECT * FROM acct;", b"bad sig")
    agreement = cluster["O1"].evaluate_agreement(proposal)
    assert not agreement.verdict
    good = make_proposal(CLIENT, "SELECT * FROM acct;", cluster.client_key)
    assert cluster["O1"].evaluate_agreement(good).verdict
