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
When no checkpoint works the entire history is replayed from empty state;
interval 0 takes no checkpoints, so every recovery is that full replay.

recover only reports whether the organization reached consent again
(RecoveryReport.recovered).  Excluding an organization that did not is the
caller's decision: the simulator's driver takes it out of the network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .consensus import ConsensusStatus
from .engine.database import TableSnapshot
from .errors import HistoryUnavailable
from .org import OrgNode


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

    def mark_all_changed(self, node: OrgNode):
        """Force the next checkpoint to snapshot every table afresh."""
        self._changed_since = set(node.db.tables)


@dataclass
class RecoveryIteration:
    source: str  # "checkpoint:<block_id>" or "full_replay"
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


def recover(node: OrgNode, peers, fetch_vote) -> RecoveryReport:
    """Try to bring a non-consenting organization back to consent: from each
    checkpoint, newest first, then from empty state.

    Expects node.pending to hold the failing round.
    """
    if node.pending is None:
        raise HistoryUnavailable(f"{node.org_id}: nothing pending to recover")
    report = RecoveryReport()
    sources: list[Checkpoint | None] = []
    if node.checkpoints is not None:
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
