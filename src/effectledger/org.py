"""One organization: engine, ledger, votes, and the per-round pipeline.

A round processes exactly one ordered action (a block of chained
transactions) on the calling thread, one transaction at a time in block
order: read the verdict on its signatures, parse it once, analyze it against
the catalog as of block start, place it in its stage, and execute it.  The
stages describe the block's parallelism (scheduler), and running the block
in block order gives the same bits, digest and state as running it stage by
stage; no dependency graph is built, and the round keeps only the size of
each stage.  Then the ledger block is assembled and consensus sought on its
hash.  The block only enters the ledger when enough organizations report the
same hash and it matches the local one; otherwise the round stays pending
until consensus arrives late (peers catching up) or recovery rebuilds the
state.  Replaying a committed block runs the same per-transaction loop and
discards the stage sizes.

Endorsing: evaluate_agreement verifies the client checks in place and
signs an agreement only after its check passed; the first call for a
prepared chunk endorses every proposal of the chunk that needs this
organization and signs all of their agreements as one batch, with the
ChunkMemo that network passes.

Each round has one record at a time: received (self.verifying: the action
and the verdicts on its signatures), then pending (self.pending: the block
and the verdicts as read at execution), then committed (the ledger).  A
round is received from the first chunk of it that the orderer streams while
the block forms, and grows with each chunk; it can be executed once the
block is cut and the rest delivered.
Recovery re-executes the pending round from its recorded verdicts
(reexecute_pending), so no signature is checked twice.  Nor is one checked
again that the organization checked or made while endorsing: receiving a
block takes each transaction's entry from self.endorsed, which holds the
client check that passed and the agreement signed, and leaves those two
checks out of the round's verification.

"Parse" means a lookup in the organization's own plan cache (self.plans), as
a DBMS keeps prepared statements; endorsement, execution and replay all go
through it.  A transaction whose text differs from a shape seen before only
in its literals is bound from that shape; only a new shape, and DDL, runs
the parser.  A bulk INSERT binds from its one-row shape whatever its row
count, so a bulk load, and its replay, parses once per table and row shape.
The organization compiles each bound shape once, into an access function
that analysis calls (scheduler.analyze_transaction) and an executor for its
own engine (Database.execute_transaction), and keeps both in the shape's
plan; shapes that do not compile are analyzed and run by the interpreters.
The cache is never shared, since each organization stands for its own DBMS.

Where signatures are verified, and by which process, is told in keys.  This
process runs no other thread: a helper thread would contend with execution
for the interpreter lock, and so would executor threads inside a block.

Execution mutates the engine before the commit decision on purpose: the model
votes on effects, so the effects must exist first.  Recovery owns undoing
them when the vote goes against us.
"""

from __future__ import annotations

import hashlib
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
from .scheduler import StageTracker, analyze_transaction


@dataclass(frozen=True)
class Action:
    """One ordered block of transactions, as broadcast by the orderer."""

    round_id: int
    transactions: tuple[agmt.ChainedTransaction, ...]


class ChunkMemo(dict):
    """One organization's memo for one prepared chunk of proposals.

    The dict itself is the organization's keys.verify_jobs memo for the
    chunk's client checks.  agreements maps each proposal of the chunk that
    needs the organization, in chunk order, to the agreement it signed on
    it, None until the first of them is asked (OrgNode.evaluate_agreement).
    """

    def __init__(self):
        super().__init__()
        self.agreements: dict[agmt.TransactionProposal, agmt.Agreement | None] = {}


@dataclass
class PendingRound:
    """An executed round awaiting consensus: its block, with the block's
    serialization that its hash was taken of and that the ledger appends,
    the signature verdicts read at first execution (one bool per
    transaction) and the number of transactions placed in each stage."""

    action: Action
    block: LedgerBlock
    serialized: bytes
    effect_hash: bytes
    changed_tables: set[str]
    verdicts: tuple[bool, ...]
    stages: tuple[int, ...]


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
        # round -> (action received so far, verdicts on its signatures), from
        # the round's first delivery until it executes
        self.verifying: dict[int, tuple[Action, keys.Verdicts]] = {}
        self.pending: PendingRound | None = None
        self.checkpoints = None  # attached by recovery.CheckpointManager
        self.plans = PlanCache()
        # proposals this organization agreed to, until their block arrives
        self.endorsed = agmt.Endorsements(keys.public_bytes(self.private_key))

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

    def evaluate_agreement(
        self, proposal: agmt.TransactionProposal, memo: dict | None = None
    ) -> agmt.Agreement:
        """Signed verdict on a proposal, judged against committed state only.

        memo is this organization's ChunkMemo for the proposal's prepared
        chunk, which network passes.  The first call for a proposal of the
        chunk endorses every proposal of the chunk that needs this
        organization, in chunk order, and signs all of their agreements as
        one batch; each later call returns its own proposal's agreement.  A
        call with no memo, or for a proposal that memo does not hold, is a
        batch of one (see _endorse).
        """
        chunk = getattr(memo, "agreements", {})
        if proposal not in chunk:
            return self._endorse([proposal], memo)[0]
        if chunk[proposal] is None:
            chunk.update(zip(chunk, self._endorse(list(chunk), memo)))
        return chunk[proposal]

    def _endorse(self, proposals, memo: dict | None) -> list[agmt.Agreement]:
        """This organization's agreements on proposals, in order, signed as
        one batch (agmt.make_agreements).

        Each client check is verified first, in place, with memo as the
        keys.verify_jobs memo (a new one when None); a client the registry
        does not know is refused.  The predicates of the proposals whose
        check passed are evaluated against one catalog of the committed
        state.  Each agreement is recorded in self.endorsed, in order, with
        the client check that passed, so that receiving the transaction
        checks neither again.
        """
        checks = [
            (self.registry.encoded_key(p.client), p.signature, p.signed_payload())
            for p in proposals
        ]
        verdicts = keys.signature_worker().verify_here(
            [None if check[0] is None else (check,) for check in checks], memo
        )
        catalog = self.catalog()
        for i, proposal in enumerate(proposals):
            if verdicts[i]:
                parsed = agmt.parse_transaction(proposal.sql, self.plans)
                fields = parsed.fields(catalog)
                verdicts[i] = all(
                    agmt.evaluate_predicate(self.predicates[table], fields, self.db)
                    for table in parsed.dml_tables
                    if table in self.predicates
                )
        agreements = agmt.make_agreements(
            self.org_id,
            [(hashlib.sha256(check[2]).digest(), ok) for check, ok in zip(checks, verdicts)],
            self.private_key,
        )
        for check, agreement in zip(checks, agreements):
            if agreement.verdict:
                self.endorsed.add(check, agreement)
        return agreements

    # ---- action intake ----

    def receive_action(self, action: Action, forming: bool = False):
        """Record an ordered round's transactions and queue the checks of
        those not received before, with the keys the registry holds now.

        The orderer delivers a round while it forms, a chunk at a time
        (forming), each time as every transaction it has queued for the
        round so far, and the rest when it cuts the block: action is then
        the block.  A round is received from its first delivery; it can be
        executed once cut.  An action for a round that is committed, pending
        or already cut is ignored."""
        round_id = action.round_id
        received = self.verifying.get(round_id)
        if received is not None:
            if received[1].forming:
                received[1].extend(self._jobs(action, len(received[0].transactions)), forming)
                self.verifying[round_id] = (action, received[1])
        elif round_id >= self.next_round and (
            self.pending is None or self.pending.action.round_id != round_id
        ):
            self.verifying[round_id] = (action, self._verify_signatures(action, forming))

    def _jobs(self, action: Action, start: int = 0):
        """The checks of action's transactions from start on."""
        return (
            agmt.signature_jobs(ct, self.registry, self.endorsed)
            for ct in action.transactions[start:]
        )

    def _verify_signatures(self, action: Action, forming: bool = False) -> keys.Verdicts:
        return keys.signature_worker().verify(self._jobs(action), forming)

    def executable_action(self) -> Action | None:
        if self.pending is not None:
            return None
        received = self.verifying.get(self.next_round)
        if received is None or received[1].forming:
            return None
        return received[0]

    # ---- the W phase: order is given, execute and hash ----

    def execute_action(self, action: Action) -> bytes:
        """Apply one action to the engine and vote on the resulting block hash.

        Reads the verdicts queued when the action was received; an action
        nobody queued (a direct call) has its signatures queued here.
        Deterministic in (quirks, committed state, action).  Raises
        OutOfOrderAction/DuplicateRound when the action does not extend the
        committed chain, EngineFailure when the engine is gone and
        VerifierUnavailable when the signature worker is, which leaves the
        transactions executed before it in the engine.
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
        if received is not None and received[0] is action and not received[1].forming:
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
        by finish_verification after its signatures check out, and executed
        before the next verdict is read."""
        read: list[bool] = []

        def parsed():
            for ct, signatures_ok in zip(action.transactions, verdicts):
                read.append(signatures_ok)
                yield agmt.finish_verification(
                    ct, signatures_ok, self.agreement_policies, self.plans
                ) or agmt.ParsedTransaction(error="agreement verification failed")

        records = tuple(
            TransactionRecord(ct.proposal.client, ct.proposal.sql, ct.agreed_orgs)
            for ct in action.transactions
        )
        names_before = set(self.db.tables)
        stages, digest, block, serialized, effect_hash = self._run_block(
            action.round_id, records, parsed(), self.ledger.head_hash()
        )
        changed = digest.tables_touched() | (set(self.db.tables) - names_before)
        self.pending = PendingRound(
            action, block, serialized, effect_hash, changed, tuple(read), stages
        )
        self.votes[action.round_id] = cns.make_vote(
            self.org_id, action.round_id, effect_hash, self.private_key
        )
        return effect_hash

    def _run_block(self, block_id, records, parsed, hash_previous):
        """Analyze, place and execute one block a transaction at a time, in
        block order, then build its ledger block; returns (stage sizes,
        digest, block, its serialization, block hash).

        parsed yields each transaction's ParsedTransaction; one with an error
        (it did not parse, or fails without executing) keeps bit 0 and is
        neither analyzed nor placed.  Analysis reads the catalog as of block
        start, so each transaction lands in the stage that
        build_dependency_graph gives it.
        """
        catalog = self.catalog()
        digest = BlockDigest()
        tracker = StageTracker()
        bits: list[bool] = []
        for i, txn in enumerate(parsed):
            ok = txn.error is None
            if ok:
                tracker.add(analyze_transaction(txn.statements, catalog), i)
                ok = self.db.execute_transaction(txn.statements, digest).success
            bits.append(ok)
        block = build_ledger_block(block_id, records, bits, digest, hash_previous)
        serialized = block.serialize()
        return tuple(map(len, tracker.stages)), digest, block, serialized, block_hash(serialized)

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
        self.ledger.append(pending.block, pending.effect_hash, pending.serialized)
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
        parsed = (
            agmt.parse_transaction(rec.sql, self.plans)
            if ok else agmt.ParsedTransaction(error="failed when committed")
            for rec, ok in zip(block.transactions, block.successful)
        )
        *_, effect_hash = self._run_block(
            block.block_id, block.transactions, parsed, block.hash_previous
        )
        return effect_hash
