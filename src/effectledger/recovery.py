"""Checkpointing and recovery of a non-consenting organization.

Checkpoints are taken every `interval` committed blocks, only at consenting
blocks, and live outside the ledger in a small ring (default three).  Each
checkpoint snapshots the tables changed since the previous one and carries
forward the untouched payloads by reference.

Recovery walks checkpoints newest to oldest: restore, replay the organization's
own ledger up to the failing block, re-execute the failing action, and re-run
consensus for just that block.  A replayed block whose recomputed hash differs
from the committed one (read from the chain, not rehashed) is evidence the
snapshot itself is bad, so the walk falls back to the next older checkpoint.
When no checkpoint works the entire history is replayed from empty state; when
even that cannot reach consent the organization is excluded.

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
    RESTORE_FROM_PEER_STATE = "restore_from_peer_state"
    FULL_REPLAY = "full_replay"
    PARTIAL_REPLAY = "partial_replay"
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
    recovered: bool
    excluded: bool
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
    max_retries: int = 10,
    on_retry=None,
) -> RecoveryReport:
    """Bring a non-consenting organization back, or exclude it.

    Expects node.pending to hold the failing round.  With strategy None the
    organization has neither actions nor state to rebuild from and is excluded
    immediately.
    """
    if node.pending is None:
        raise HistoryUnavailable(f"{node.org_id}: nothing pending to recover")
    report = RecoveryReport(recovered=False, excluded=False)
    if strategy is None:
        report.excluded = True
        node.excluded = True
        return report

    if strategy is RecoveryStrategy.RESTORE_FROM_PEER_STATE:
        _recover_from_peer(node, peers, fetch_vote, fetch_state, report, max_retries, on_retry)
    else:
        parallel = strategy is not RecoveryStrategy.PARTIAL_REPLAY
        sources: list[Checkpoint | None] = []
        if strategy is not RecoveryStrategy.FULL_REPLAY and node.checkpoints is not None:
            sources.extend(node.checkpoints.newest_first())
        sources.append(None)  # full replay from empty state is the last resort
        for checkpoint in sources:
            if _try_replay(node, checkpoint, peers, fetch_vote, parallel, report,
                           max_retries, on_retry):
                report.recovered = True
                if node.checkpoints is not None:
                    node.checkpoints.mark_all_changed(node)
                break

    if not report.recovered:
        report.excluded = True
        node.excluded = True
    return report


def _try_replay(
    node: OrgNode,
    checkpoint: Checkpoint | None,
    peers,
    fetch_vote,
    parallel: bool,
    report: RecoveryReport,
    max_retries: int,
    on_retry,
) -> bool:
    failing = node.pending.action
    failing_id = failing.round_id
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
        recomputed = node.replay_committed_block(stored, parallel)
        replayed += 1
        if recomputed != node.ledger.stored_hash(block_id):
            # the base snapshot (or the history itself) is damaged here
            report.iterations.append(
                RecoveryIteration(source, replayed, False,
                                  f"replayed block {block_id} diverges from ledger")
            )
            return False

    node.abandon_pending()
    node.execute_action(failing)
    outcome = node.complete_round(peers, fetch_vote, max_retries, on_retry)
    consented = outcome.status is ConsensusStatus.COMMITTED
    report.iterations.append(
        RecoveryIteration(
            source,
            replayed + 1,
            consented,
            None if consented else f"block {failing_id} still {outcome.status.value}",
        )
    )
    return consented


def _recover_from_peer(
    node: OrgNode,
    peers,
    fetch_vote,
    fetch_state,
    report: RecoveryReport,
    max_retries: int,
    on_retry,
):
    """Copy a consenting peer's state and adopt its block for the failing round."""
    if fetch_state is None:
        report.iterations.append(
            RecoveryIteration("peer:none", 0, False, "no state transport available")
        )
        return
    failing_id = node.pending.action.round_id
    transcript = node.last_transcript
    if transcript is not None and transcript.block_id != failing_id:
        transcript = None
    quorum_hash = transcript.quorum_hash if transcript else None
    for peer in peers:
        fetched = fetch_state(peer, failing_id)
        if fetched is None:
            continue
        snapshots, block = fetched
        if not isinstance(block, LedgerBlock) or block.block_id != failing_id:
            report.iterations.append(
                RecoveryIteration(f"peer:{peer}", 0, False, "peer sent wrong block")
            )
            continue
        peer_hash = block_hash(block)
        if quorum_hash is not None and peer_hash != quorum_hash:
            report.iterations.append(
                RecoveryIteration(f"peer:{peer}", 0, False, "peer hash not the quorum hash")
            )
            continue
        if block.hash_previous != node.ledger.head_hash():
            report.iterations.append(
                RecoveryIteration(f"peer:{peer}", 0, False, "peer block does not extend local chain")
            )
            continue
        # adopt on faith; the next round's consensus is the verification
        node.db.restore_all(snapshots)
        node.abandon_pending()
        node.ledger.append(block, peer_hash)
        node.vote_store.record(
            cns.make_vote(node.org_id, failing_id, peer_hash, node.private_key)
        )
        node.transcripts[failing_id] = transcript or cns.ConsensusTranscript(
            failing_id, node.org_id, votes={node.org_id: peer_hash},
            status=ConsensusStatus.COMMITTED, quorum_hash=peer_hash,
        )
        node.buffered.pop(failing_id, None)
        if node.checkpoints is not None:
            node.checkpoints.invalidate_all()
        report.iterations.append(RecoveryIteration(f"peer:{peer}", 0, True))
        report.recovered = True
        return
