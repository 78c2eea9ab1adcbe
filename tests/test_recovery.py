"""Checkpoint cadence and the recovery ladder: checkpoints, then full replay."""

import pytest

from effectledger import keys
from effectledger import ledger as ledger_module
from effectledger import org as org_module
from effectledger import recovery as recovery_module
from effectledger.consensus import ConsensusStatus
from effectledger.engine.types import QuirkConfig
from effectledger.errors import HistoryUnavailable, VerifierUnavailable
from effectledger.recovery import CheckpointManager, recover

from conftest import Cluster, block_id_of

DDL = "CREATE TABLE acct (id INT, bal DECIMAL(12, 2), PRIMARY KEY (id));"
SEED = "INSERT INTO acct (id, bal) VALUES (1, 100), (2, 200), (3, 300);"
AUDIT_DDL = "CREATE TABLE audit (seq INT, note TEXT, PRIMARY KEY (seq));"


def bump(i, amount="1"):
    return f"UPDATE acct SET bal = bal + {amount} WHERE id = {i};"


def managed_cluster(interval=3, capacity=3, **kwargs):
    cluster = Cluster(**kwargs)
    for node in cluster.nodes.values():
        CheckpointManager(interval=interval, capacity=capacity).attach(node)
    return cluster


def corrupt_row(node, pk=b"1", bal="999999.99"):
    table = node.db.table("acct")
    row = table.rows[pk]
    from decimal import Decimal

    table.rows[pk] = (row[0], Decimal(bal))


# ---- checkpoint cadence ----


def test_checkpoints_every_interval():
    cluster = managed_cluster(interval=3)
    cluster.round(1, DDL, SEED)
    cluster.round(2, bump(1))
    node = cluster["O1"]
    assert [c.block_id for c in node.checkpoints.snapshots] == []
    cluster.round(3, bump(2))
    assert [c.block_id for c in node.checkpoints.snapshots] == [3]
    for bid in (4, 5, 6):
        cluster.round(bid, bump(1))
    assert [c.block_id for c in node.checkpoints.snapshots] == [3, 6]


def test_ring_drops_oldest_checkpoint():
    cluster = managed_cluster(interval=1, capacity=3)
    cluster.round(1, DDL, SEED)
    for bid in range(2, 7):
        cluster.round(bid, bump(1))
    node = cluster["O1"]
    assert [c.block_id for c in node.checkpoints.snapshots] == [4, 5, 6]


def test_unchanged_tables_share_payload():
    cluster = managed_cluster(interval=1)
    cluster.round(1, DDL, SEED)
    cluster.round(2, AUDIT_DDL)
    node = cluster["O1"]
    first, second = node.checkpoints.snapshots[-2:]
    # acct untouched in block 2: its snapshot is carried forward by reference
    assert second.tables["acct"] is first.tables["acct"]
    assert "audit" in second.tables and "audit" not in first.tables


def test_checkpoint_restores_full_state():
    cluster = managed_cluster(interval=2)
    cluster.round(1, DDL, SEED)
    cluster.round(2, bump(1, "5.50"))
    node = cluster["O1"]
    want = node.db.state_hash()
    cluster.round(3, bump(2))
    (checkpoint,) = node.checkpoints.snapshots
    node.db.restore_all(checkpoint.tables)
    assert node.db.state_hash() == want


# ---- recovery ladder ----


def diverge(cluster, sql=None):
    """Drive O1 into a non-consenting round, leaving it pending.

    The default SQL reads and rewrites row 1, so it surfaces either a
    corrupted row 1 or a rounding-quirk mismatch (third fractional digit 6).
    """
    sql = sql or bump(1, "0.006")
    action = cluster.action(cluster["O1"].next_round, sql)
    outcomes = {}
    for node in cluster.nodes.values():
        node.execute_action(action)
    for org, node in cluster.nodes.items():
        outcomes[org] = node.complete_round(cluster.peers_of(org), cluster.fetch_vote)
    assert outcomes["O1"].status is ConsensusStatus.NON_CONSENTING
    assert outcomes["O2"].status is ConsensusStatus.COMMITTED
    assert outcomes["O3"].status is ConsensusStatus.COMMITTED


def diverge_then_recover(cluster, sql=None):
    """diverge, then run recovery for O1."""
    diverge(cluster, sql)
    return recover(cluster["O1"], cluster.peers_of("O1"), cluster.fetch_vote)


def test_recover_nothing_pending_raises():
    cluster = managed_cluster()
    cluster.round(1, DDL)
    with pytest.raises(HistoryUnavailable):
        recover(cluster["O1"], cluster.peers_of("O1"), cluster.fetch_vote)


def test_corrupt_row_newest_checkpoint_one_iteration():
    cluster = managed_cluster(interval=3)
    cluster.round(1, DDL, SEED)
    for bid in (2, 3, 4):
        cluster.round(bid, bump(1))
    corrupt_row(cluster["O1"])  # external damage to committed state
    report = diverge_then_recover(cluster, sql=bump(1))
    assert report.recovered
    assert len(report.iterations) == 1
    assert report.iterations[0].source == "checkpoint:3"
    assert cluster["O1"].db.state_hash() == cluster["O2"].db.state_hash()
    assert cluster["O1"].ledger.head_hash() == cluster["O2"].ledger.head_hash()


def test_checkpoint_replay_reads_stored_hashes(monkeypatch):
    """Replaying N committed blocks hashes N+1 blocks: each replayed block and
    the re-executed failing one; the stored hashes come from the chain."""
    cluster = managed_cluster(interval=4)
    cluster.round(1, DDL, SEED)
    for bid in range(2, 8):
        cluster.round(bid, bump(1))
    node = cluster["O1"]
    corrupt_row(node)
    action = cluster.action(node.next_round, bump(1))
    for peer in cluster.nodes.values():
        peer.execute_action(action)
    for org, peer in cluster.nodes.items():
        peer.complete_round(cluster.peers_of(org), cluster.fetch_vote)
    hashed = []
    for module in (ledger_module, org_module, recovery_module):
        def counted(block, original=module.block_hash):
            hashed.append(block_id_of(block))
            return original(block)

        monkeypatch.setattr(module, "block_hash", counted)
    report = recover(node, cluster.peers_of("O1"), cluster.fetch_vote)
    assert report.recovered
    assert [(it.source, it.blocks_replayed) for it in report.iterations] == [("checkpoint:4", 4)]
    assert sorted(hashed) == [5, 6, 7, 8]
    assert node.ledger.head_hash() == cluster["O2"].ledger.head_hash()


def test_corrupt_snapshot_falls_back_one_checkpoint():
    cluster = managed_cluster(interval=2)
    cluster.round(1, DDL, SEED)
    for bid in (2, 3, 4, 5):
        cluster.round(bid, bump(1))
    node = cluster["O1"]
    assert [c.block_id for c in node.checkpoints.snapshots] == [2, 4]
    corrupt_row(node)
    # damage the newest snapshot too: replay from it diverges from the ledger
    from decimal import Decimal

    newest = node.checkpoints.snapshots[-1]
    snap = newest.tables["acct"]
    rows = tuple(
        (rid, Decimal("123456.00")) if rid == 1 else (rid, bal) for rid, bal in snap.rows
    )
    newest.tables["acct"] = type(snap)(snap.schema, rows)
    report = diverge_then_recover(cluster, sql=bump(1))
    assert report.recovered
    assert len(report.iterations) == 2
    assert report.iterations[0].source == "checkpoint:4"
    assert not report.iterations[0].consented
    assert report.iterations[1].source == "checkpoint:2"
    assert cluster["O1"].db.state_hash() == cluster["O2"].db.state_hash()


def test_full_replay_from_empty_without_checkpoints():
    cluster = Cluster()  # no CheckpointManager attached
    cluster.round(1, DDL, SEED)
    cluster.round(2, bump(1))
    corrupt_row(cluster["O1"])
    report = diverge_then_recover(cluster, sql=bump(1))
    assert report.recovered
    assert report.iterations[-1].source == "full_replay"
    # replays blocks 1..2 then re-executes the failing block 3
    assert report.iterations[-1].blocks_replayed == 3
    assert cluster["O1"].db.state_hash() == cluster["O2"].db.state_hash()


def test_interval_zero_takes_no_checkpoints_and_replays_everything():
    cluster = managed_cluster(interval=0)
    cluster.round(1, DDL, SEED)
    for bid in (2, 3, 4):
        cluster.round(bid, bump(1))
    assert cluster["O1"].checkpoints.snapshots == []
    corrupt_row(cluster["O1"])
    report = diverge_then_recover(cluster, sql=bump(1))
    assert report.recovered
    # replays blocks 1..4 then re-executes the failing block 5
    assert [(it.source, it.blocks_replayed) for it in report.iterations] == [("full_replay", 5)]
    assert cluster["O1"].ledger.head_hash() == cluster["O2"].ledger.head_hash()


def test_same_quirk_failure_is_excluded_after_all_sources():
    """When divergence is behavioral, every replay reproduces it: exclusion."""
    cluster = managed_cluster(
        interval=2,
        quirks=[QuirkConfig(decimal_rounding="truncate"), QuirkConfig(), QuirkConfig()],
    )
    cluster.round(1, DDL, SEED)
    cluster.round(2, bump(1))
    report = diverge_then_recover(cluster)
    assert not report.recovered
    # walked the checkpoint then fell through to full replay
    assert [it.source for it in report.iterations] == ["checkpoint:2", "full_replay"]
    assert all(not it.consented for it in report.iterations)


def test_recovered_node_keeps_committing():
    cluster = managed_cluster(interval=3)
    cluster.round(1, DDL, SEED)
    for bid in (2, 3):
        cluster.round(bid, bump(1))
    corrupt_row(cluster["O1"])
    report = diverge_then_recover(cluster, sql=bump(1))
    assert report.recovered
    outcomes = cluster.round(5, bump(3, "2.25"))
    assert all(o.status is ConsensusStatus.COMMITTED for o in outcomes.values())
    heads = {n.ledger.head_hash() for n in cluster.nodes.values()}
    assert len(heads) == 1


def test_vote_replaced_after_recovery():
    cluster = managed_cluster(interval=3)
    cluster.round(1, DDL, SEED)
    corrupt_row(cluster["O1"])
    failing_block = cluster["O1"].next_round
    wrong_vote = None
    action = cluster.action(failing_block, bump(1))
    for node in cluster.nodes.values():
        node.execute_action(action)
    wrong_vote = cluster["O1"].serve_hash_request(failing_block).effect_hash
    for org, node in cluster.nodes.items():
        node.complete_round(cluster.peers_of(org), cluster.fetch_vote)
    recover(cluster["O1"], cluster.peers_of("O1"), cluster.fetch_vote)
    fixed_vote = cluster["O1"].serve_hash_request(failing_block).effect_hash
    assert fixed_vote != wrong_vote
    assert fixed_vote == cluster["O2"].serve_hash_request(failing_block).effect_hash


# ---- re-execution reads the pending round's verdicts ----


@pytest.mark.parametrize("interval", [0, 1])  # full replay; replay from a checkpoint
def test_recovery_checks_no_signature_again(interval, monkeypatch):
    cluster = managed_cluster(interval=interval)
    cluster.round(1, DDL, SEED)
    corrupt_row(cluster["O1"])
    checked = []
    original = org_module.OrgNode._verify_signatures

    def counted(node, action):
        checked.append(node.org_id)
        return original(node, action)

    monkeypatch.setattr(org_module.OrgNode, "_verify_signatures", counted)
    assert diverge_then_recover(cluster, sql=bump(1)).recovered
    assert checked == ["O1", "O2", "O3"]  # each organization's first execution only


def test_recovery_needs_no_signature_worker(monkeypatch):
    cluster = Cluster()
    cluster.round(1, DDL, SEED)
    corrupt_row(cluster["O1"])
    diverge(cluster, sql=bump(1))  # leaves O1's block 2 pending

    def gone():
        raise VerifierUnavailable("worker gone")

    monkeypatch.setattr(keys, "signature_worker", gone)
    node = cluster["O1"]
    report = recover(node, cluster.peers_of("O1"), cluster.fetch_vote)
    assert report.recovered
    assert node.height == 2
    assert node.ledger.head_hash() == cluster["O2"].ledger.head_hash()
