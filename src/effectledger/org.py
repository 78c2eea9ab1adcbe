"""One organization: engine, ledger, votes, and the per-round pipeline.

A round processes exactly one ordered action (a block of chained
transactions): verify signatures, parse each transaction once, analyze,
execute in conflict-free stages, assemble the ledger block, then seek
consensus on its hash.  The block only enters the ledger when enough
organizations report the same hash and it matches the local one; otherwise
the round stays pending until consensus arrives late (peers catching up) or
recovery rebuilds the state.

Signatures are verified in the worker process of keys.signature_worker; the
checks that need no signature stay here.  receive_action sends a block's
signatures to the worker as soon as the block arrives, so the worker verifies
them while this process executes other organizations' copies or earlier
blocks.  execute_action sends them itself when nothing was sent at receipt
for that action: a re-execution in recovery, or a direct call.  It reads the
verdicts chunk by chunk in block order, and parses and analyzes each
transaction once its chunk's verdicts are back.  No thread of this process
waits on the worker: a helper thread would contend with execution for the
interpreter lock (see keys).

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
class RoundOutcome:
    status: cns.ConsensusStatus
    block_id: int
    local_hash: bytes
    consensus_hash: bytes | None
    transcript: cns.ConsensusTranscript


@dataclass
class PendingRound:
    action: Action
    block: LedgerBlock
    effect_hash: bytes
    changed_tables: set[str]


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
        sessions: int = 1,
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
        self.sessions = max(1, sessions)
        self.vote_store = cns.VoteStore()
        self.transcripts: dict[int, cns.ConsensusTranscript] = {}
        self.buffered: dict[int, Action] = {}
        # round -> (buffered action, verdicts on its signatures, sent at receipt)
        self.verifying: dict[int, tuple[Action, keys.Verdicts]] = {}
        self.pending: PendingRound | None = None
        self.last_transcript: cns.ConsensusTranscript | None = None
        self.excluded = False
        self.checkpoints = None  # attached by recovery.CheckpointManager

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
            parsed = agmt.parse_transaction(proposal.sql)
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
        """Buffer an ordered action and send its signatures for verification,
        with the keys the registry holds now.  A second action for a buffered
        round is ignored."""
        if action.round_id not in self.buffered:
            self.buffered[action.round_id] = action
            self.verifying[action.round_id] = (action, self._verify_signatures(action))

    def _verify_signatures(self, action: Action) -> keys.Verdicts:
        jobs = (agmt.signature_jobs(ct, self.registry) for ct in action.transactions)
        return keys.signature_worker().verify(jobs)

    def executable_action(self) -> Action | None:
        if self.pending is not None:
            return None
        return self.buffered.get(self.next_round)

    # ---- the W phase: order is given, execute and hash ----

    def execute_action(self, action: Action) -> bytes:
        """Apply one action to the engine and vote on the resulting block hash.

        Each transaction is parsed once, by finish_verification after its
        signatures check out; analysis and execution read that parse.
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

        sent = self.verifying.pop(action.round_id, None)
        if sent is not None and sent[0] is action:
            verdicts = sent[1]
        else:
            verdicts = self._verify_signatures(action)
        catalog = self.catalog()
        names_before = set(self.db.tables)
        access_sets: list[TxnAccessSet] = []
        for i, (ct, signatures_ok) in enumerate(zip(action.transactions, verdicts)):
            parsed = agmt.finish_verification(ct, signatures_ok, self.agreement_policies)
            if parsed is None:
                access_sets.append(TxnAccessSet(i, parse_error="agreement verification failed"))
            else:
                access_sets.append(analyze_transaction(i, parsed, catalog))
        graph = build_dependency_graph(access_sets)
        digest = BlockDigest()
        bits = execute_staged(graph, access_sets, self.db, self.sessions, digest)

        records = tuple(
            TransactionRecord(ct.proposal.client, ct.proposal.sql, ct.agreed_orgs)
            for ct in action.transactions
        )
        block = build_ledger_block(
            action.round_id, records, bits, digest, self.ledger.head_hash()
        )
        effect_hash = block_hash(block)
        changed = digest.tables_touched() | (set(self.db.tables) - names_before)
        self.pending = PendingRound(action, block, effect_hash, changed)
        self.vote_store.record(
            cns.make_vote(self.org_id, action.round_id, effect_hash, self.private_key)
        )
        return effect_hash

    # ---- the LC phase: consensus then commit ----

    def complete_round(self, peers, fetch_vote, max_retries: int = 10, on_retry=None) -> RoundOutcome:
        """One consensus attempt for the pending block; commits on consent.

        Without consent the pending round stays open: the caller may retry
        while peers catch up, or hand the node to recovery after a decided
        mismatch.
        """
        if self.pending is None:
            raise OutOfOrderAction(f"{self.org_id}: no pending round")
        pending = self.pending
        decision, transcript = cns.run_consensus(
            pending.block.block_id,
            self.org_id,
            pending.effect_hash,
            peers,
            self.policy,
            fetch_vote,
            self.registry,
            max_retries=max_retries,
            on_retry=on_retry,
        )
        self.last_transcript = transcript
        if decision.consenting:
            self.commit_pending(transcript)
            status = cns.ConsensusStatus.COMMITTED
        elif decision.decided:
            status = cns.ConsensusStatus.NON_CONSENTING
        else:
            status = cns.ConsensusStatus.NO_CONSENSUS
        return RoundOutcome(
            status,
            pending.block.block_id,
            pending.effect_hash,
            decision.quorum_hash,
            transcript,
        )

    def commit_pending(self, transcript: cns.ConsensusTranscript):
        pending = self.pending
        self.ledger.append(pending.block, pending.effect_hash)
        self.transcripts[pending.block.block_id] = transcript
        self.buffered.pop(pending.block.block_id, None)
        self.pending = None
        if self.checkpoints is not None:
            self.checkpoints.note_commit(self, pending.block.block_id, pending.changed_tables)

    def abandon_pending(self):
        """Drop the pending round (recovery re-executes it from scratch)."""
        self.pending = None

    # ---- vote service ----

    def serve_hash_request(self, block_id: int):
        return self.vote_store.serve_hash_request(block_id)

    # ---- replay support ----

    def replay_committed_block(self, block: LedgerBlock, parallel: bool) -> bytes:
        """Re-execute one committed block from its ta_list; returns the hash
        the replay would have committed.

        Transactions whose committed bit is 0 had no effects, so they are
        skipped rather than re-executed; signatures are not re-checked because
        signature bytes never reach the ledger.  A transaction that succeeded
        historically but fails on replay flips its bit and thereby the hash.
        """
        catalog = self.catalog()
        subset: list[TxnAccessSet] = []
        positions: list[int] = []
        for i, (rec, ok) in enumerate(zip(block.transactions, block.successful)):
            if ok:
                acc = analyze_transaction(len(subset), rec.sql, catalog)
                subset.append(acc)
                positions.append(i)
        graph = build_dependency_graph(subset)
        digest = BlockDigest()
        sessions = self.sessions if parallel else 1
        bits = execute_staged(graph, subset, self.db, sessions, digest)
        replay_bits = list(block.successful)
        for pos, ok in zip(positions, bits):
            replay_bits[pos] = ok
        rebuilt = build_ledger_block(
            block.block_id, block.transactions, replay_bits, digest, block.hash_previous
        )
        return block_hash(rebuilt)
