"""Deterministic multi-organization simulator.

Everything runs in one process on a logical tick clock: clients submit
proposals on schedule, an untrusted FIFO orderer cuts blocks at blocksize or
timeout, and each organization steps a small state machine per tick
(execute -> seek consensus -> commit / recover).  Execution latency is modeled
by an engine delay in ticks; a "slow" organization simply finishes blocks
later, which is what produces the catch-up and halting timelines.

A vote reaches waiting peers when it is published, not at their next poll.  It
is published when its execution finishes and, for a recovering organization,
when the recovery window ends.  The publisher then makes its own consensus
attempt first, and each other live organization waiting on consensus makes one
attempt in the same tick, fetching and verifying every vote itself.  Waiting
organizations also poll once per tick, which is how a vote dropped by a fault
rule is fetched after the rule expires.

Signatures are verified outside the tick clock.  When the orderer cuts a
block, each live organization's receive_action sends its copy's client and
agreement signatures to the process's signature worker (keys), which verifies
them while the organizations execute in turn; execute_action reads the
verdicts in block order.  Nothing in this process waits for the worker on a
thread of its own, since such a thread would contend with execution for the
interpreter lock.  Effect votes are verified here, by each organization that
fetches them.

Identical (config, schedule, fault script) inputs produce identical reports
and identical ledger bytes.  The only randomness anywhere is the workload
generator's seeded RNG, outside this module.

Faults are scripted, never emergent: rows or snapshots corrupted at a tick,
organizations killed, the orderer equivocating one block to one victim, and
vote traffic dropped or tampered between pairs of organizations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import agreement as agmt
from . import keys
from .consensus import ConsensusPolicy, ConsensusStatus
from .engine.types import QuirkConfig, decode_literal, row_key
from .errors import BindError, ConfigError
from .org import Action, OrgNode
from .recovery import CheckpointManager, RecoveryStrategy, recover

# report event names
CUT = "CUT"
EXEC_START = "EXEC_START"
EXEC_DONE = "EXEC_DONE"
COMMIT = "COMMIT"
NONCONSENT = "NONCONSENT"
RECOVER_START = "RECOVER_START"
RECOVER_DONE = "RECOVER_DONE"
RECOVER_FAIL = "RECOVER_FAIL"
EXCLUDED = "EXCLUDED"
KILL = "KILL"
CORRUPT = "CORRUPT"
CORRUPT_SNAPSHOT = "CORRUPT_SNAPSHOT"
EQUIVOCATE = "EQUIVOCATE"
REJECT = "REJECT"

REPORT_HEADER = "# effectledger simulation report v1"
REPORT_COLUMNS = "# columns: tick org event block"


@dataclass
class ReportLine:
    tick: int
    org: str
    event: str
    block: int


class SimulationReport:
    """Line-oriented, append-only run record."""

    def __init__(self):
        self.lines: list[ReportLine] = []
        self.summary: dict[str, int] = {}  # org -> committed height at end

    def emit(self, tick: int, org: str, event: str, block: int = 0):
        self.lines.append(ReportLine(tick, org, event, block))

    def events(self, org: str | None = None, kind: str | None = None) -> list[ReportLine]:
        return [
            l for l in self.lines
            if (org is None or l.org == org) and (kind is None or l.event == kind)
        ]

    def commits(self, org: str) -> list[tuple[int, int]]:
        """Per-org commit timeline as (block id, tick) pairs."""
        return [(l.block, l.tick) for l in self.events(org, COMMIT)]

    def first(self, org: str, kind: str) -> ReportLine | None:
        found = self.events(org, kind)
        return found[0] if found else None

    def to_text(self) -> str:
        out = [REPORT_HEADER, REPORT_COLUMNS]
        out.extend(f"{l.tick}\t{l.org}\t{l.event}\t{l.block}" for l in self.lines)
        for org in sorted(self.summary):
            out.append(f"# summary: org={org} committed={self.summary[org]}")
        return "\n".join(out) + "\n"

    @classmethod
    def parse(cls, text: str) -> "SimulationReport":
        report = cls()
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            tick, org, event, block = line.split("\t")
            report.emit(int(tick), org, event, int(block))
        return report


# ---- configuration ----

@dataclass
class OrgConfig:
    org_id: str
    quirks: QuirkConfig = field(default_factory=QuirkConfig)
    engine_delay: int = 0  # ticks one block execution takes
    sessions: int = 1  # parallel executor sessions

    @classmethod
    def from_dict(cls, raw: dict) -> "OrgConfig":
        return cls(
            org_id=raw["id"],
            quirks=QuirkConfig.from_dict(raw.get("quirks", {})),
            engine_delay=int(raw.get("engine_delay", 0)),
            sessions=int(raw.get("sessions", 1)),
        )


@dataclass
class NetworkConfig:
    orgs: list[OrgConfig]
    min_matching: int = 2
    blocksize: int = 128
    block_timeout: int = 4  # ticks from first queued txn to forced cut
    checkpoint_interval: int = 3
    checkpoint_capacity: int = 3
    recovery_strategy: RecoveryStrategy | None = RecoveryStrategy.OPTIMIZED_PARTIAL_REPLAY
    agreement_policies: dict[str, list[str]] = field(default_factory=dict)
    predicates: dict[str, dict[str, list[str]]] = field(default_factory=dict)  # org -> table -> lines
    seed: int = 0
    out_dir: str | None = None
    durable: bool = False  # fsync ledger appends (bench mode)

    def __post_init__(self):
        if not self.orgs:
            raise ConfigError("at least one organization required")
        if len({o.org_id for o in self.orgs}) != len(self.orgs):
            raise ConfigError("duplicate organization id")
        ConsensusPolicy(self.min_matching).validate(len(self.orgs))
        if self.blocksize < 1:
            raise ConfigError("blocksize must be positive")
        if self.block_timeout < 1:
            raise ConfigError("block_timeout must be positive")

    @classmethod
    def from_dict(cls, raw: dict) -> "NetworkConfig":
        strategy = raw.get("recovery_strategy", "optimized_partial_replay")
        return cls(
            orgs=[OrgConfig.from_dict(o) for o in raw["organizations"]],
            min_matching=int(raw.get("min_matching", 2)),
            blocksize=int(raw.get("blocksize", 128)),
            block_timeout=int(raw.get("block_timeout", 4)),
            checkpoint_interval=int(raw.get("checkpoint_interval", 3)),
            checkpoint_capacity=int(raw.get("checkpoint_capacity", 3)),
            recovery_strategy=None if strategy is None else RecoveryStrategy(strategy),
            agreement_policies={
                t: list(orgs) for t, orgs in raw.get("agreement_policies", {}).items()
            },
            predicates=raw.get("predicates", {}),
            seed=int(raw.get("seed", 0)),
            out_dir=raw.get("out_dir"),
            durable=bool(raw.get("durable", False)),
        )

    @classmethod
    def from_json(cls, text: str) -> "NetworkConfig":
        return cls.from_dict(json.loads(text))


# ---- fault script ----

@dataclass
class FaultEvent:
    at_tick: int
    kind: str  # corrupt_row | corrupt_snapshot | kill_org | equivocate_orderer | drop_votes | tamper_vote
    org: str | None = None
    table: str | None = None
    pk: tuple = ()
    column: str | None = None
    value: object = None
    block_id: int | None = None
    requester: str | None = None
    responder: str | None = None
    until_tick: int | None = None
    block_from: int | None = None
    block_to: int | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultEvent":
        return cls(
            at_tick=int(raw["at_tick"]),
            kind=raw["kind"],
            org=raw.get("org"),
            table=raw.get("table"),
            pk=tuple(raw.get("pk", ())),
            column=raw.get("column"),
            value=raw.get("value"),
            block_id=raw.get("block_id"),
            requester=raw.get("requester"),
            responder=raw.get("responder"),
            until_tick=raw.get("until_tick"),
            block_from=raw.get("block_from"),
            block_to=raw.get("block_to"),
        )


def load_fault_script(raw) -> list[FaultEvent]:
    if isinstance(raw, str):
        raw = json.loads(raw)
    return [e if isinstance(e, FaultEvent) else FaultEvent.from_dict(e) for e in raw]


# ---- orderer ----

class Orderer:
    """Untrusted FIFO ordering service.

    Cuts a block when blocksize transactions are queued or when block_timeout
    ticks passed since the first still-queued transaction, whichever first.
    """

    def __init__(self, blocksize: int, block_timeout: int):
        self.blocksize = blocksize
        self.block_timeout = block_timeout
        self.queue: list[tuple[int, agmt.ChainedTransaction]] = []
        self.next_block_id = 1

    def submit(self, ct: agmt.ChainedTransaction, tick: int):
        self.queue.append((tick, ct))

    def _cut(self) -> Action:
        batch, self.queue = self.queue[: self.blocksize], self.queue[self.blocksize:]
        action = Action(self.next_block_id, tuple(ct for _, ct in batch))
        self.next_block_id += 1
        return action

    def tick(self, now: int) -> list[Action]:
        actions = []
        while len(self.queue) >= self.blocksize:
            actions.append(self._cut())
        if self.queue and now - self.queue[0][0] >= self.block_timeout:
            actions.append(self._cut())
        return actions

    def flush(self) -> list[Action]:
        actions = []
        while self.queue:
            actions.append(self._cut())
        return actions

    @property
    def empty(self) -> bool:
        return not self.queue


# ---- per-org runtime wrapper ----

_IDLE, _EXECUTING, _CONSENSUS = "idle", "executing", "consensus"


@dataclass
class _OrgRuntime:
    node: OrgNode
    config: OrgConfig
    phase: str = _IDLE
    busy_until: int = 0
    staged_action: Action | None = None
    recovering_block: int | None = None
    deferred: list = field(default_factory=list)  # (tick, event, block, then_exclude)
    killed: bool = False
    last_recovery: object = None

    @property
    def live(self) -> bool:
        return not self.killed and not self.node.excluded


class Network:
    """Wires organizations, orderer, transport, and faults into one run."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        self.registry = keys.KeyRegistry()
        self.report = SimulationReport()
        self.orderer = Orderer(config.blocksize, config.block_timeout)
        policy = ConsensusPolicy(config.min_matching)
        self.agreement_policies = {
            table: agmt.AgreementPolicy(table, tuple(orgs))
            for table, orgs in config.agreement_policies.items()
        }
        agreement_policies = self.agreement_policies
        self.runtimes: dict[str, _OrgRuntime] = {}
        for org_cfg in config.orgs:
            private_key = keys.derive_private_key(f"{config.seed}:org:{org_cfg.org_id}")
            predicates = {
                table: agmt.AgreementPredicate.parse(table, lines)
                for table, lines in config.predicates.get(org_cfg.org_id, {}).items()
            }
            ledger_path = None
            if config.out_dir is not None:
                ledger_path = f"{config.out_dir}/{org_cfg.org_id}.ledger"
            node = OrgNode(
                org_cfg.org_id,
                quirks=org_cfg.quirks,
                policy=policy,
                registry=self.registry,
                private_key=private_key,
                agreement_policies=agreement_policies,
                predicates=predicates,
                sessions=org_cfg.sessions,
                ledger_path=ledger_path,
                durable=config.durable,
            )
            CheckpointManager(config.checkpoint_interval, config.checkpoint_capacity).attach(node)
            self.registry.register(org_cfg.org_id, private_key)
            self.runtimes[org_cfg.org_id] = _OrgRuntime(node, org_cfg)
        self._client_keys: dict[str, object] = {}
        self._drop_rules: list[FaultEvent] = []
        self._tamper_rules: list[FaultEvent] = []
        self._equivocations: dict[tuple[str, int], FaultEvent] = {}
        self.tick = 0

    # ---- keys ----

    def client_key(self, client: str):
        if client not in self._client_keys:
            key = keys.derive_private_key(f"{self.config.seed}:client:{client}")
            self._client_keys[client] = key
            self.registry.register(client, key)
        return self._client_keys[client]

    def node(self, org_id: str) -> OrgNode:
        return self.runtimes[org_id].node

    @property
    def nodes(self) -> dict[str, OrgNode]:
        return {org_id: rt.node for org_id, rt in self.runtimes.items()}

    def close(self):
        """Close every organization's ledger file (a no-op without out_dir)."""
        for rt in self.runtimes.values():
            rt.node.ledger.close()

    def peers_of(self, org_id: str) -> list[str]:
        return [o for o in self.runtimes if o != org_id]

    # ---- transport (in-process, fault-filtered) ----

    def _rule_active(self, rule: FaultEvent, requester: str, responder: str, block_id: int) -> bool:
        if rule.requester is not None and rule.requester != requester:
            return False
        if rule.responder is not None and rule.responder != responder:
            return False
        if self.tick < rule.at_tick:
            return False
        if rule.until_tick is not None and self.tick >= rule.until_tick:
            return False
        if rule.block_from is not None and block_id < rule.block_from:
            return False
        return rule.block_to is None or block_id <= rule.block_to

    def fetch_vote(self, requester: str):
        def fetch(responder: str, block_id: int):
            rt = self.runtimes.get(responder)
            if rt is None or rt.killed or rt.node.excluded:
                return None
            if rt.recovering_block is not None and block_id >= rt.recovering_block:
                return None  # recovering: not ready for this block yet
            if rt.phase == _EXECUTING and block_id >= rt.node.next_round:
                return None  # still executing: vote not published
            for rule in self._drop_rules:
                if self._rule_active(rule, requester, responder, block_id):
                    return None
            vote = rt.node.serve_hash_request(block_id)
            if vote is None:
                return None
            for rule in self._tamper_rules:
                if self._rule_active(rule, requester, responder, block_id):
                    flipped = bytes([vote.effect_hash[0] ^ 0xFF]) + vote.effect_hash[1:]
                    return type(vote)(vote.org, vote.block_id, flipped, vote.signature)
            return vote

        return fetch

    def fetch_state(self, requester: str):
        def fetch(responder: str, block_id: int):
            rt = self.runtimes.get(responder)
            if rt is None or not rt.live:
                return None
            node = rt.node
            if node.height == block_id and node.pending is None:
                return node.db.snapshot_all(), node.ledger.block(block_id)
            # a checkpoint taken exactly at the requested block also works; it
            # is the only source while an executed round holds uncommitted effects
            if node.height >= block_id and node.checkpoints is not None:
                for cp in node.checkpoints.newest_first():
                    if cp.block_id == block_id:
                        return dict(cp.tables), node.ledger.block(block_id)
            return None

        return fetch

    # ---- fault application ----

    def apply_fault(self, event: FaultEvent):
        if event.kind == "kill_org":
            rt = self.runtimes[event.org]
            rt.killed = True
            self.report.emit(self.tick, event.org, KILL)
        elif event.kind == "corrupt_row":
            node = self.node(event.org)
            table = node.db.table(event.table)
            try:
                pk = row_key(table.schema, table.rows, event.pk)
            except BindError as exc:
                raise ConfigError(f"corrupt_row: {exc}") from None
            row = list(table.rows[pk])
            idx = table.schema.column_index(event.column)
            row[idx] = decode_literal(table.schema.columns[idx], event.value)
            table.rows[pk] = tuple(row)
            self.report.emit(self.tick, event.org, CORRUPT)
        elif event.kind == "corrupt_snapshot":
            manager = self.node(event.org).checkpoints
            if not manager or not manager.snapshots:
                raise ConfigError("corrupt_snapshot: no checkpoint to corrupt")
            checkpoint = manager.snapshots[-1]
            snap = checkpoint.tables[event.table]
            idx = snap.schema.column_index(event.column)
            value = decode_literal(snap.schema.columns[idx], event.value)
            pk_cols = snap.schema.pk_indices
            want = tuple(
                decode_literal(snap.schema.columns[i], raw)
                for i, raw in zip(pk_cols, event.pk)
            )
            rows = list(snap.rows)
            for i, row in enumerate(rows):
                if tuple(row[j] for j in pk_cols) == want:
                    mutated = list(row)
                    mutated[idx] = value
                    rows[i] = tuple(mutated)
                    break
            else:
                raise ConfigError("corrupt_snapshot: row not in snapshot")
            checkpoint.tables[event.table] = type(snap)(snap.schema, tuple(rows))
            self.report.emit(self.tick, event.org, CORRUPT_SNAPSHOT, checkpoint.block_id)
        elif event.kind == "equivocate_orderer":
            self._equivocations[(event.org, event.block_id)] = event
        elif event.kind == "drop_votes":
            self._drop_rules.append(event)
        elif event.kind == "tamper_vote":
            self._tamper_rules.append(event)
        else:
            raise ConfigError(f"unknown fault kind {event.kind!r}")

    # ---- submission ----

    def submit(self, client: str, sql: str):
        """Chainify one proposal: gather agreements, then hand to the orderer."""
        proposal = agmt.make_proposal(client, sql, self.client_key(client))
        policies = self.agreement_policies
        evaluators = {
            org: (rt.node.evaluate_agreement if rt.live else None)
            for org, rt in self.runtimes.items()
        }
        result = agmt.collect_agreements(proposal, policies, evaluators)
        if isinstance(result, agmt.Rejected):
            self.report.emit(self.tick, result.dissenting[0], REJECT)
            return result
        self.orderer.submit(result, self.tick)
        return result

    def _broadcast(self, action: Action):
        self.report.emit(self.tick, "orderer", CUT, action.round_id)
        for org_id, rt in self.runtimes.items():
            delivered = action
            fault = self._equivocations.get((org_id, action.round_id))
            if fault is not None:
                delivered = Action(action.round_id, action.transactions[:-1])
                self.report.emit(self.tick, org_id, EQUIVOCATE, action.round_id)
            if rt.live:
                rt.node.receive_action(delivered)

    # ---- per-org state machine ----

    def _step_org(self, rt: _OrgRuntime):
        """One tick of one organization: deferred events, then end of a
        recovery window, end of an execution, a consensus poll, and the start
        of the next execution, as far as the organization is free to go.

        A vote becomes visible to peers when its execution finishes and, for
        a recovering organization, when its recovery window ends.  At either
        point the publisher decides first, so it has committed before a peer
        can pick it as a recovery state source; then every waiting peer makes
        one consensus attempt in the same tick (_wake_waiting_peers).  A
        recovered publisher committed during recovery, at its window's start.
        """
        tick = self.tick
        if rt.killed:
            return
        while rt.deferred and rt.deferred[0][0] <= tick:
            _, event, block, then_exclude = rt.deferred.pop(0)
            self.report.emit(tick, rt.node.org_id, event, block)
            if then_exclude:
                rt.node.excluded = True
        if not rt.live or tick < rt.busy_until:
            return
        if rt.recovering_block is not None:
            rt.recovering_block = None
            self._wake_waiting_peers(rt)

        if rt.phase == _EXECUTING:
            self._finish_execution(rt)
        elif rt.phase == _CONSENSUS:
            self._attempt_consensus(rt)
        self._start_next_execution(rt)

    def _start_next_execution(self, rt: _OrgRuntime):
        """Start executing the next buffered block if rt is idle and free."""
        if rt.phase != _IDLE or self.tick < rt.busy_until:
            return
        action = rt.node.executable_action()
        if action is None:
            return
        self.report.emit(self.tick, rt.node.org_id, EXEC_START, action.round_id)
        rt.staged_action = action
        if rt.config.engine_delay > 0:
            rt.phase = _EXECUTING
            rt.busy_until = self.tick + rt.config.engine_delay
            return
        self._finish_execution(rt)

    def _finish_execution(self, rt: _OrgRuntime):
        action, rt.staged_action = rt.staged_action, None
        rt.node.execute_action(action)
        self.report.emit(self.tick, rt.node.org_id, EXEC_DONE, action.round_id)
        rt.phase = _CONSENSUS
        self._attempt_consensus(rt)
        if rt.recovering_block is None:  # recovery hides the vote until its window ends
            self._wake_waiting_peers(rt)

    def _wake_waiting_peers(self, publisher: _OrgRuntime):
        """publisher's vote just became visible: each other live organization
        waiting on consensus past its busy time makes one attempt, in org
        order, fetching and verifying the votes itself.  One that commits
        starts its next buffered block at once, as it would in its own step."""
        for rt in self.runtimes.values():
            if (
                rt is not publisher
                and rt.live
                and rt.phase == _CONSENSUS
                and self.tick >= rt.busy_until
            ):
                self._attempt_consensus(rt)
                self._start_next_execution(rt)

    def _attempt_consensus(self, rt: _OrgRuntime):
        node = rt.node
        org_id = node.org_id
        outcome = node.complete_round(
            self.peers_of(org_id), self.fetch_vote(org_id), max_retries=0
        )
        if outcome.status is ConsensusStatus.COMMITTED:
            self.report.emit(self.tick, org_id, COMMIT, outcome.block_id)
            rt.phase = _IDLE
        elif outcome.status is ConsensusStatus.NON_CONSENTING:
            self.report.emit(self.tick, org_id, NONCONSENT, outcome.block_id)
            self._run_recovery(rt, outcome.block_id)
        # NO_CONSENSUS: keep polling on later ticks

    def _run_recovery(self, rt: _OrgRuntime, failing_block: int):
        node = rt.node
        org_id = node.org_id
        self.report.emit(self.tick, org_id, RECOVER_START, failing_block)
        rt.recovering_block = failing_block
        report = recover(
            node,
            self.peers_of(org_id),
            self.fetch_vote(org_id),
            strategy=self.config.recovery_strategy,
            fetch_state=self.fetch_state(org_id),
            max_retries=0,
        )
        cost = max(1, report.blocks_replayed_total) * max(1, rt.config.engine_delay)
        done_tick = self.tick + cost
        rt.busy_until = done_tick
        rt.last_recovery = report
        if report.recovered:
            rt.deferred.append((done_tick, RECOVER_DONE, failing_block, False))
            rt.deferred.append((done_tick, COMMIT, failing_block, False))
            rt.phase = _IDLE
        else:
            node.excluded = False  # re-flag when the deferred event fires
            rt.deferred.append((done_tick, RECOVER_FAIL, failing_block, False))
            rt.deferred.append((done_tick, EXCLUDED, failing_block, True))
            rt.phase = _IDLE

    # ---- main loop ----

    def run(self, schedule, faults=(), max_ticks: int = 10_000) -> SimulationReport:
        """Drive the network to quiescence or the tick budget.

        schedule: iterable of (tick, client, sql), pre-sorted or not.
        faults: FaultEvents or dicts.
        """
        pending_submissions = sorted(
            ((int(t), c, s) for t, c, s in schedule), key=lambda e: e[0]
        )
        fault_events = sorted(load_fault_script(list(faults)), key=lambda e: e.at_tick)
        sub_i = 0
        fault_i = 0
        self.tick = 0
        while self.tick <= max_ticks:
            while fault_i < len(fault_events) and fault_events[fault_i].at_tick <= self.tick:
                self.apply_fault(fault_events[fault_i])
                fault_i += 1
            while sub_i < len(pending_submissions) and pending_submissions[sub_i][0] <= self.tick:
                _, client, sql = pending_submissions[sub_i]
                self.submit(client, sql)
                sub_i += 1
            for action in self.orderer.tick(self.tick):
                self._broadcast(action)
            for rt in self.runtimes.values():
                self._step_org(rt)
            if self._quiescent(sub_i == len(pending_submissions), fault_i == len(fault_events)):
                break
            self.tick += 1

        for org_id, rt in self.runtimes.items():
            self.report.summary[org_id] = rt.node.height
        if self.config.out_dir is not None:
            with open(f"{self.config.out_dir}/report.tsv", "w") as fh:
                fh.write(self.report.to_text())
        return self.report

    def throughput(self, org_id: str, ramp_ticks: int = 0) -> float:
        """Successful transactions per tick for blocks committed after ramp."""
        node = self.node(org_id)
        commits = [(b, t) for b, t in self.report.commits(org_id) if t >= ramp_ticks]
        if not commits:
            return 0.0
        successful = sum(sum(node.ledger.block(b).successful) for b, _ in commits)
        span = max(1, commits[-1][1] - ramp_ticks + 1)
        return successful / span

    def _quiescent(self, submissions_done: bool, faults_done: bool) -> bool:
        if not (submissions_done and faults_done and self.orderer.empty):
            return False
        for rt in self.runtimes.values():
            if not rt.live:
                continue
            if rt.deferred or rt.phase != _IDLE or rt.node.pending is not None:
                return False
            if rt.node.executable_action() is not None:
                return False
        return True


def run_network(config: NetworkConfig, schedule, faults=(), max_ticks: int = 10_000) -> SimulationReport:
    return Network(config).run(schedule, faults, max_ticks)
