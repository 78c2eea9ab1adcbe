"""Checkpointing and recovery of a non-consenting organization.

Checkpoints are taken every `interval` committed blocks, only at consenting
blocks, and live outside the ledger in a small ring (default three).  Each
checkpoint snapshots the tables changed since the previous one and carries
forward the untouched payloads by reference.

Recovery walks checkpoints newest to oldest: restore, replay the organization's
own ledger up to the failing block, re-execute the pending round from the
signature verdicts read at its first execution (no signature is checked
again), and re-run consensus for just that block.  A replayed block whose recomputed hash differs
from the committed one (read from the chain, not rehashed) is evidence the
snapshot itself is bad, so the walk falls back to the next older checkpoint.
When no checkpoint works the entire history is replayed from empty state.

recover only reports whether the organization reached consent again
(RecoveryReport.recovered).  Excluding an organization that did not is the
caller's decision: the simulator's driver takes it out of the network.

The alternative strategy of copying a consenting peer's state adopts that
state on faith (its first verification happens in the next round), which is
why replay is the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import consensus as cns
from .consensus import ConsensusStatus
from .engine.database import TableSnapshot
from .errors import HistoryUnavailable
from .ledger import LedgerBlock, block_hash
from .org import OrgNode


class RecoveryStrategy(str, Enum):
    """OPTIMIZED_PARTIAL_REPLAY replays from the checkpoints, newest first,
    then from empty state; FULL_REPLAY from empty state only."""

    RESTORE_FROM_PEER_STATE = "restore_from_peer_state"
    FULL_REPLAY = "full_replay"
    OPTIMIZED_PARTIAL_REPLAY = "optimized_partial_replay"


@dataclass
class Checkpoint:
    block_id: int
    tables: dict[str, TableSnapshot]


class CheckpointManager:
    """Ring of state snapshots, one every `interval` consenting blocks."""

    def __init__(self, interval: int = 3, capacity: int = 3):
        self.interval = interval
        self.capacity = capacity
        self.snapshots: list[Checkpoint] = []  # oldest first
        self._changed_since: set[str] = set()

    def attach(self, node: OrgNode):
        node.checkpoints = self
        return self

    def note_commit(self, node: OrgNode, block_id: int, changed_tables: set[str]):
        self._changed_since |= changed_tables
        if self.interval > 0 and block_id % self.interval == 0:
            self.take(node, block_id)

    def take(self, node: OrgNode, block_id: int):
        previous = self.snapshots[-1] if self.snapshots else None
        tables: dict[str, TableSnapshot] = {}
        for name, table in node.db.tables.items():
            if (
                previous is not None
                and name not in self._changed_since
                and name in previous.tables
            ):
                tables[name] = previous.tables[name]  # unchanged: share payload
            else:
                tables[name] = table.snapshot()
        self.snapshots.append(Checkpoint(block_id, tables))
        if len(self.snapshots) > self.capacity:
            del self.snapshots[: len(self.snapshots) - self.capacity]
        self._changed_since = set()

    def newest_first(self) -> list[Checkpoint]:
        return list(reversed(self.snapshots))

    def invalidate_all(self):
        """After adopting foreign state, old snapshots no longer apply."""
        self.snapshots = []
        self._changed_since = set()

    def mark_all_changed(self, node: OrgNode):
        """Force the next checkpoint to snapshot every table afresh."""
        self._changed_since = set(node.db.tables)


@dataclass
class RecoveryIteration:
    source: str  # "checkpoint:<block_id>", "full_replay", or "peer:<org>"
    blocks_replayed: int
    consented: bool
    reason: str | None = None


@dataclass
class RecoveryReport:
    recovered: bool = False
    iterations: list[RecoveryIteration] = field(default_factory=list)

    @property
    def blocks_replayed_total(self) -> int:
        return sum(it.blocks_replayed for it in self.iterations)


def recover(
    node: OrgNode,
    peers,
    fetch_vote,
    strategy: RecoveryStrategy | None = RecoveryStrategy.OPTIMIZED_PARTIAL_REPLAY,
    fetch_state=None,
) -> RecoveryReport:
    """Try to bring a non-consenting organization back to consent.

    Expects node.pending to hold the failing round.  With strategy None the
    organization has neither actions nor state to rebuild from, and the
    report says it did not recover without trying.
    """
    if node.pending is None:
        raise HistoryUnavailable(f"{node.org_id}: nothing pending to recover")
    report = RecoveryReport()
    if strategy is RecoveryStrategy.RESTORE_FROM_PEER_STATE:
        _recover_from_peer(node, peers, fetch_state, report)
    elif strategy is not None:
        sources: list[Checkpoint | None] = []
        if strategy is not RecoveryStrategy.FULL_REPLAY and node.checkpoints is not None:
            sources.extend(node.checkpoints.newest_first())
        sources.append(None)  # full replay from empty state is the last resort
        for checkpoint in sources:
            if _try_replay(node, checkpoint, peers, fetch_vote, report):
                report.recovered = True
                if node.checkpoints is not None:
                    node.checkpoints.mark_all_changed(node)
                break
    return report


def _try_replay(
    node: OrgNode, checkpoint: Checkpoint | None, peers, fetch_vote, report: RecoveryReport
) -> bool:
    failing_id = node.pending.action.round_id
    if checkpoint is None:
        source = "full_replay"
        start = 1
        node.db.reset()
    else:
        source = f"checkpoint:{checkpoint.block_id}"
        start = checkpoint.block_id + 1
        node.db.restore_all(checkpoint.tables)

    replayed = 0
    for block_id in range(start, failing_id):
        stored = node.ledger.block(block_id)
        recomputed = node.replay_committed_block(stored)
        replayed += 1
        if recomputed != node.ledger.stored_hash(block_id):
            # the base snapshot (or the history itself) is damaged here
            report.iterations.append(
                RecoveryIteration(source, replayed, False,
                                  f"replayed block {block_id} diverges from ledger")
            )
            return False

    node.reexecute_pending()
    status = node.complete_round(peers, fetch_vote).status
    consented = status is ConsensusStatus.COMMITTED
    reason = None if consented else f"block {failing_id} still {status.value}"
    report.iterations.append(RecoveryIteration(source, replayed + 1, consented, reason))
    return consented


def _recover_from_peer(node: OrgNode, peers, fetch_state, report: RecoveryReport):
    """Copy a consenting peer's state and adopt its block for the failing round."""
    if fetch_state is None:
        report.iterations.append(
            RecoveryIteration("peer:none", 0, False, "no state transport available")
        )
        return
    failing_id = node.pending.action.round_id
    transcript = node.pending.transcript
    quorum_hash = transcript.quorum_hash if transcript else None
    for peer in peers:
        fetched = fetch_state(peer, failing_id)
        if fetched is None:
            continue
        snapshots, block = fetched
        if not isinstance(block, LedgerBlock) or block.block_id != failing_id:
            refused = "peer sent wrong block"
        elif quorum_hash is not None and block_hash(block) != quorum_hash:
            refused = "peer hash not the quorum hash"
        elif block.hash_previous != node.ledger.head_hash():
            refused = "peer block does not extend local chain"
        else:
            refused = None
        if refused is not None:
            report.iterations.append(RecoveryIteration(f"peer:{peer}", 0, False, refused))
            continue
        peer_hash = block_hash(block)
        # adopt on faith; the next round's consensus is the verification
        node.db.restore_all(snapshots)
        node.abandon_pending()
        node.ledger.append(block, peer_hash)
        node.votes[failing_id] = cns.make_vote(node.org_id, failing_id, peer_hash, node.private_key)
        # the audit record of the adopted block: the peers' votes of the
        # last attempt, with this organization's own vote now the adopted hash
        votes = dict(transcript.votes) if transcript else {}
        votes[node.org_id] = peer_hash
        node.transcripts[failing_id] = cns.ConsensusTranscript(
            failing_id, node.org_id, votes=votes,
            status=ConsensusStatus.COMMITTED, quorum_hash=peer_hash,
        )
        if node.checkpoints is not None:
            node.checkpoints.invalidate_all()
        report.iterations.append(RecoveryIteration(f"peer:{peer}", 0, True))
        report.recovered = True
        return
