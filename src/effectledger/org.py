"""One organization: engine, ledger, votes, and the per-round pipeline.

A round processes exactly one ordered action (a block of chained
transactions): verify signatures, parse each transaction once, analyze,
execute stage by stage on the calling thread, assemble the ledger block, then
seek consensus on its hash.  The block only enters the ledger when enough
organizations report the same hash and it matches the local one; otherwise
the round stays pending until consensus arrives late (peers catching up) or
recovery rebuilds the state.

Each round has one record at a time: received (self.verifying: the action
and the verdicts on its signatures), then pending (self.pending: the block
and the verdicts as read at execution), then committed (the ledger).
Recovery re-executes the pending round from its recorded verdicts
(reexecute_pending), so no signature is checked twice.

"Parse" means a lookup in the organization's own plan cache (self.plans), as
a DBMS keeps prepared statements; endorsement, execution and replay all go
through it.  A transaction whose text differs from a shape seen before only
in its literals is bound from that shape; only a new shape runs the parser.
The cache is never shared, since each organization stands for its own DBMS.

Where signatures are verified, and by which process, is told in keys.  This
process runs no other thread: a helper thread would contend with execution
for the interpreter lock, and so would executor threads inside a block.

Execution mutates the engine before the commit decision on purpose: the model
votes on effects, so the effects must exist first.  Recovery owns undoing
them when the vote goes against us.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import agreement as agmt
from . import consensus as cns
from . import keys
from .engine.database import Database
from .engine.parser import PlanCache
from .engine.types import QuirkConfig
from .errors import DuplicateRound, EngineFailure, OutOfOrderAction
from .ledger import (
    Ledger,
    LedgerBlock,
    TransactionRecord,
    BlockDigest,
    block_hash,
    build_ledger_block,
)
from .scheduler import TxnAccessSet, analyze_transaction, build_dependency_graph, execute_staged


@dataclass(frozen=True)
class Action:
    """One ordered block of transactions, as broadcast by the orderer."""

    round_id: int
    transactions: tuple[agmt.ChainedTransaction, ...]


@dataclass
class PendingRound:
    """An executed round awaiting consensus: its block and the signature
    verdicts read at first execution (one bool per transaction)."""

    action: Action
    block: LedgerBlock
    effect_hash: bytes
    changed_tables: set[str]
    verdicts: tuple[bool, ...]


class OrgNode:
    def __init__(
        self,
        org_id: str,
        quirks: QuirkConfig | None = None,
        policy: cns.ConsensusPolicy = cns.ConsensusPolicy(1),
        registry: keys.KeyRegistry | None = None,
        private_key=None,
        agreement_policies: dict[str, agmt.AgreementPolicy] | None = None,
        predicates: dict[str, agmt.AgreementPredicate] | None = None,
        ledger_path=None,
        durable: bool = False,
    ):
        self.org_id = org_id
        self.db = Database(quirks)
        self.ledger = Ledger(ledger_path, durable=durable)
        self.policy = policy
        self.registry = registry or keys.KeyRegistry()
        self.private_key = private_key or keys.derive_private_key(f"org:{org_id}")
        self.agreement_policies = agreement_policies or {}
        self.predicates = predicates or {}
        # own signed votes, served to peers on request, old blocks' too (so a
        # lagging peer can finish old rounds); recovery replaces a divergent one
        self.votes: dict[int, cns.HashVote] = {}
        self.transcripts: dict[int, cns.ConsensusTranscript] = {}
        # round -> (received action, verdicts on its signatures), until executed
        self.verifying: dict[int, tuple[Action, keys.Verdicts]] = {}
        self.pending: PendingRound | None = None
        self.checkpoints = None  # attached by recovery.CheckpointManager
        self.plans = PlanCache()

    # ---- identity / bookkeeping ----

    @property
    def height(self) -> int:
        return self.ledger.height

    @property
    def next_round(self) -> int:
        return self.ledger.height + 1

    def catalog(self):
        return {name: t.schema for name, t in self.db.tables.items()}

    # ---- agreement service ----

    def evaluate_agreement(self, proposal: agmt.TransactionProposal) -> agmt.Agreement:
        """Signed verdict on a proposal, judged against committed state only."""
        verdict = self.registry.known(proposal.client) and self.registry.verify_as(
            proposal.client, proposal.signature, proposal.signed_payload()
        )
        if verdict:
            parsed = agmt.parse_transaction(proposal.sql, self.plans)
            fields = parsed.fields(self.catalog())
            for table in parsed.dml_tables:
                predicate = self.predicates.get(table)
                if predicate is not None and not agmt.evaluate_predicate(
                    predicate, fields, self.db
                ):
                    verdict = False
                    break
        return agmt.make_agreement(
            self.org_id, proposal.digest(), verdict, self.private_key
        )

    # ---- action intake ----

    def receive_action(self, action: Action):
        """Record an ordered action and queue its signatures for verification,
        with the keys the registry holds now.  An action for a round that is
        committed, pending or already received is ignored."""
        round_id = action.round_id
        if (
            round_id >= self.next_round
            and round_id not in self.verifying
            and (self.pending is None or self.pending.action.round_id != round_id)
        ):
            self.verifying[round_id] = (action, self._verify_signatures(action))

    def _verify_signatures(self, action: Action) -> keys.Verdicts:
        jobs = (agmt.signature_jobs(ct, self.registry) for ct in action.transactions)
        return keys.signature_worker().verify(jobs)

    def executable_action(self) -> Action | None:
        if self.pending is not None:
            return None
        received = self.verifying.get(self.next_round)
        return None if received is None else received[0]

    # ---- the W phase: order is given, execute and hash ----

    def execute_action(self, action: Action) -> bytes:
        """Apply one action to the engine and vote on the resulting block hash.

        Reads the verdicts queued when the action was received; an action
        nobody queued (a direct call) has its signatures queued here.
        Deterministic in (quirks, committed state, action).  Raises
        OutOfOrderAction/DuplicateRound when the action does not extend the
        committed chain, EngineFailure when the engine is gone and
        VerifierUnavailable when the signature worker is.
        """
        if self.db.failed:
            raise EngineFailure(f"{self.org_id}: engine unavailable")
        if action.round_id < self.next_round:
            raise DuplicateRound(
                f"round {action.round_id} already committed at {self.org_id}"
            )
        if action.round_id > self.next_round or self.pending is not None:
            raise OutOfOrderAction(
                f"cannot execute round {action.round_id}; next is {self.next_round}"
            )

        received = self.verifying.pop(action.round_id, None)
        if received is not None and received[0] is action:
            verdicts = received[1]
        else:
            verdicts = self._verify_signatures(action)
        return self._execute(action, verdicts)

    def reexecute_pending(self) -> bytes:
        """Execute the pending round again on the current state, from the
        verdicts read at its first execution; recovery calls this once it has
        rebuilt the state the round extends."""
        pending, self.pending = self.pending, None
        return self._execute(pending.action, pending.verdicts)

    def _execute(self, action: Action, verdicts) -> bytes:
        """Execute action with one signature verdict per transaction, read in
        block order.  Each transaction is parsed once, through the plan cache,
        by finish_verification after its signatures check out; analysis and
        execution read that parse."""
        catalog = self.catalog()
        names_before = set(self.db.tables)
        access_sets: list[TxnAccessSet] = []
        read: list[bool] = []
        for i, (ct, signatures_ok) in enumerate(zip(action.transactions, verdicts)):
            read.append(signatures_ok)
            parsed = agmt.finish_verification(
                ct, signatures_ok, self.agreement_policies, self.plans
            )
            if parsed is None:
                access_sets.append(TxnAccessSet(i, parse_error="agreement verification failed"))
            else:
                access_sets.append(analyze_transaction(i, parsed, catalog))
        records = tuple(
            TransactionRecord(ct.proposal.client, ct.proposal.sql, ct.agreed_orgs)
            for ct in action.transactions
        )
        digest, block, effect_hash = self._run_block(
            action.round_id, access_sets, records, self.ledger.head_hash()
        )
        changed = digest.tables_touched() | (set(self.db.tables) - names_before)
        self.pending = PendingRound(action, block, effect_hash, changed, tuple(read))
        self.votes[action.round_id] = cns.make_vote(
            self.org_id, action.round_id, effect_hash, self.private_key
        )
        return effect_hash

    def _run_block(self, block_id, access_sets, records, hash_previous):
        """Stage and execute one analyzed block on the engine, then build its
        ledger block; returns (digest, block, block hash).  Transactions with
        a parse_error keep bit 0 without executing."""
        graph = build_dependency_graph(access_sets)
        digest = BlockDigest()
        bits = execute_staged(graph, access_sets, self.db, digest)
        block = build_ledger_block(block_id, records, bits, digest, hash_previous)
        return digest, block, block_hash(block)

    # ---- the LC phase: consensus then commit ----

    def complete_round(self, peers, fetch_vote) -> cns.ConsensusTranscript:
        """One consensus attempt for the pending block, polling each peer
        once; commits when the transcript's status is COMMITTED.

        Otherwise the pending round stays open: the caller makes another
        attempt at a later tick while peers catch up, or hands the node to
        recovery after a decided mismatch (NON_CONSENTING).
        """
        if self.pending is None:
            raise OutOfOrderAction(f"{self.org_id}: no pending round")
        pending = self.pending
        transcript = cns.run_consensus(
            pending.block.block_id, self.org_id, pending.effect_hash, peers, self.policy,
            fetch_vote, self.registry,
        )
        if transcript.status is cns.ConsensusStatus.COMMITTED:
            self.commit_pending(transcript)
        return transcript

    def commit_pending(self, transcript: cns.ConsensusTranscript):
        pending = self.pending
        self.ledger.append(pending.block, pending.effect_hash)
        self.transcripts[pending.block.block_id] = transcript
        self.pending = None
        if self.checkpoints is not None:
            self.checkpoints.note_commit(self, pending.block.block_id, pending.changed_tables)

    # ---- vote service ----

    def serve_hash_request(self, block_id: int) -> cns.HashVote | None:
        """This organization's vote on block_id, or None when not ready."""
        return self.votes.get(block_id)

    # ---- replay support ----

    def replay_committed_block(self, block: LedgerBlock) -> bytes:
        """Re-execute one committed block from its ta_list; returns the hash
        the replay would have committed.

        Transactions whose committed bit is 0 had no effects, so they are
        marked failed rather than re-executed; signatures are not re-checked
        because signature bytes never reach the ledger.  A transaction that
        succeeded historically but fails on replay flips its bit and thereby
        the hash.
        """
        catalog = self.catalog()
        access_sets = [
            analyze_transaction(i, agmt.parse_transaction(rec.sql, self.plans), catalog)
            if ok
            else TxnAccessSet(i, parse_error="failed when committed")
            for i, (rec, ok) in enumerate(zip(block.transactions, block.successful))
        ]
        _, _, effect_hash = self._run_block(
            block.block_id, access_sets, block.transactions, block.hash_previous
        )
        return effect_hash
