"""Deterministic multi-organization simulator.

Everything runs in one process on a logical tick clock that never rewinds:
clients submit proposals on schedule, an untrusted FIFO orderer cuts blocks
at blocksize or timeout, and each organization steps a small state machine
(execute -> seek consensus -> commit / recover).  Its state is derived from
the few facts _OrgRuntime stores; a kill and an exclusion after failed
recovery are one way out (Network._retire).  One agenda holds what falls due
(_Due), and Network.run steps the network only at those ticks: faults,
submissions, cuts, then each organization in org order.  A run ends when
nothing on the agenda can change state, quiescent or stalled (organizations
wait on rounds that can no longer commit; each is reported STALLED), or at
its tick budget.  Execution latency is modeled by an engine delay in ticks;
a "slow" organization simply finishes blocks later, which is what produces
the catch-up and halting timelines.

A vote reaches waiting peers when it is published, not at their next poll.  It
is published when its execution finishes and, for a recovering organization,
when the recovery window ends (a recovered organization committed at the
window's start).  The publisher decides first; then each other live
organization waiting on consensus makes one attempt in the same tick,
fetching and verifying every vote itself.  Waiting organizations poll again
at each tick the network steps, which is how a vote dropped by a fault rule
is fetched in the tick the rule expires.

Signatures are verified outside the tick clock, and keys tells where and by
which process.  run submits the proposals due at a tick a
keys.CHUNK_TRANSACTIONS chunk at a time: it prepares a chunk, then submits
each of its proposals (_submit_due).  Each client signs its proposals of a
chunk as one batch, with one ECDSA signature (keys.sign_batch), and so does
each endorser with its agreements.  Each prepared chunk has one {org: memo}
dict, and each organization's memo maps the chunk's proposals that need it,
in chunk order, to its agreements on them.  submit asks each live
organization that a proposal needs for its agreement, with that memo
(OrgNode.evaluate_agreement).  The organization's first call for the chunk
endorses all of the memo's proposals: it verifies their client checks in
this process, in one call, so each client's batch root once, evaluates its
predicates, and signs all of its agreements with one ECDSA signature; each
later call returns its own proposal's agreement.  Organizations do not step
while a chunk is submitted, so its predicates read the committed state that
each proposal's own submit would read.  A memo belongs to its organization
and chunk alone, so no verdict or agreement passes between organizations,
and a required organization that is not live is never asked and signs
nothing.  The orderer streams each forming block to every live organization
a keys.CHUNK_TRANSACTIONS chunk at a time, as submit queues it (a chunk once
a later transaction of its block is queued), and each organization's
receive_action queues that chunk's checks at once; when the orderer cuts the
block, at the tick it would anyway, it delivers the rest, and an
equivocation victim's copy without the last transaction, which was never
streamed.  Effect votes are verified here, by each organization that fetches
them.

Identical (config, schedule, fault script) inputs produce identical reports
and identical ledger bytes.  The only randomness anywhere is the workload
generator's seeded RNG, outside this module.

Faults are scripted, never emergent: rows or snapshots corrupted at a tick,
organizations stopped for good, the orderer equivocating one block to one
victim, and vote traffic dropped or tampered between pairs of organizations.
A corruption whose table, row or checkpoint does not exist when it fires is
reported CORRUPT_MISSED, and the run goes on.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import count

from . import agreement as agmt
from . import keys
from .consensus import ConsensusPolicy, ConsensusStatus
from .engine.database import Database, TableSnapshot
from .engine.parser import PlanCache
from .engine.types import QuirkConfig
from .errors import BindError, ConfigError, MissingTarget
from .org import Action, OrgNode
from .recovery import CHECKPOINTS_KEPT, CheckpointManager, recover

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
CORRUPT_MISSED = "CORRUPT_MISSED"  # a corrupt_* fault whose target does not exist yet
EQUIVOCATE = "EQUIVOCATE"
REJECT = "REJECT"
STALLED = "STALLED"

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


# ---- configuration ----

_REQUIRED = object()
_JSON_TYPES = {
    int: "an integer", bool: "true or false", str: "a string", list: "a list", dict: "an object",
}
_JSON_ITEMS = {str: "strings", dict: "objects"}


def _field(raw: dict, name: str, kind: type, where: str, default=_REQUIRED, items=None):
    """raw[name], which must be a JSON value of type kind, or null when the
    default is None; the default when absent.  A list must hold only values
    of type items, when given.  ConfigError naming the field otherwise."""
    if name not in raw:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing {name!r}")
        return default
    value = raw[name]
    # type(), not isinstance(): a JSON true is no integer
    if type(value) is not kind and not (value is None and default is None):
        raise ConfigError(f"{where}: {name} must be {_JSON_TYPES[kind]}, not {value!r}")
    if items is not None and any(type(item) is not items for item in value):
        raise ConfigError(f"{where}: {name} must be a list of {_JSON_ITEMS[items]}, not {value!r}")
    return value


def _predicate_lines(predicates: dict, org: str) -> dict[str, list[str]]:
    """predicates[org], checked: table -> the lines of its conditions."""
    tables = _field(predicates, org, dict, "predicates")
    for table in tables:
        _field(tables, table, list, f"predicates {org}", items=str)
    return tables


@dataclass
class OrgConfig:
    org_id: str
    quirks: QuirkConfig = field(default_factory=QuirkConfig)
    engine_delay: int = 0  # ticks one block execution takes
    # Executor sessions, at least 1.  Accepted so that configurations that set
    # it still load; execution does not depend on it, because an organization
    # runs every block on one thread.
    sessions: int = 1

    def __post_init__(self):
        if self.sessions < 1:
            raise ConfigError(f"organization {self.org_id}: sessions must be at least 1")
        if self.engine_delay < 0:
            raise ConfigError(f"organization {self.org_id}: engine_delay must not be negative")

    @classmethod
    def from_dict(cls, raw: dict) -> "OrgConfig":
        org_id = _field(raw, "id", str, "organization")
        where = f"organization {org_id}"
        return cls(
            org_id=org_id,
            quirks=QuirkConfig.from_dict(_field(raw, "quirks", dict, where, {}), where),
            engine_delay=_field(raw, "engine_delay", int, where, 0),
            sessions=_field(raw, "sessions", int, where, 1),
        )


# config fields that no longer exist, and why
_GONE = {
    "recovery_strategy": "every recovery replays the organization's own ledger from its "
    "checkpoints, then from empty state; set checkpoint_interval to 0 for full replay only",
    "checkpoint_capacity": f"every organization keeps its newest {CHECKPOINTS_KEPT} "
    "checkpoints, each a snapshot of every table",
}


@dataclass
class NetworkConfig:
    orgs: list[OrgConfig]
    min_matching: int = 2
    blocksize: int = 128
    block_timeout: int = 4  # ticks from first queued txn to forced cut
    # committed blocks between checkpoints; 0 takes none, so every recovery
    # replays the whole ledger from empty state
    checkpoint_interval: int = 3
    agreement_policies: dict[str, list[str]] = field(default_factory=dict)
    predicates: dict[str, dict[str, list[str]]] = field(default_factory=dict)  # org -> table -> lines
    seed: int = 0
    out_dir: str | None = None
    durable: bool = False  # fsync every ledger append

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
        if self.checkpoint_interval < 0:
            raise ConfigError("checkpoint_interval must not be negative")
        org_ids = {o.org_id for o in self.orgs}
        for table, orgs in self.agreement_policies.items():
            for org in orgs:
                if org not in org_ids:
                    raise ConfigError(
                        f"agreement_policies: {table} names unknown organization {org!r}"
                    )
        for org in self.predicates:
            if org not in org_ids:
                raise ConfigError(f"predicates: unknown organization {org!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "NetworkConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be an object, not {raw!r}")
        for name, why in _GONE.items():
            if name in raw:
                raise ConfigError(f"{name} is gone: {why}")
        policies = _field(raw, "agreement_policies", dict, "config", {})
        predicates = _field(raw, "predicates", dict, "config", {})
        orgs = _field(raw, "organizations", list, "config", items=dict)
        return cls(
            orgs=[OrgConfig.from_dict(o) for o in orgs],
            min_matching=_field(raw, "min_matching", int, "config", 2),
            blocksize=_field(raw, "blocksize", int, "config", 128),
            block_timeout=_field(raw, "block_timeout", int, "config", 4),
            checkpoint_interval=_field(raw, "checkpoint_interval", int, "config", 3),
            agreement_policies={
                table: _field(policies, table, list, "agreement_policies", items=str)
                for table in policies
            },
            predicates={org: _predicate_lines(predicates, org) for org in predicates},
            seed=_field(raw, "seed", int, "config", 0),
            out_dir=_field(raw, "out_dir", str, "config", None),
            durable=_field(raw, "durable", bool, "config", False),
        )


# ---- fault script ----

class FaultKind(str, Enum):
    """A fault's kind, and the fields it needs (Network.check_fault)."""

    def __new__(cls, value: str, *needs: str):
        kind = str.__new__(cls, value)
        kind._value_, kind.needs = value, needs
        return kind

    CORRUPT_ROW = "corrupt_row", "org", "table", "column", "value"
    CORRUPT_SNAPSHOT = "corrupt_snapshot", "org", "table", "column", "value"
    KILL_ORG = "kill_org", "org"
    EQUIVOCATE_ORDERER = "equivocate_orderer", "org", "block_id"
    DROP_VOTES = ("drop_votes",)
    TAMPER_VOTE = ("tamper_vote",)


@dataclass
class FaultEvent:
    at_tick: int
    kind: str  # a FaultKind value; Network.check_fault checks it
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
            at_tick=_field(raw, "at_tick", int, "fault"),
            kind=_field(raw, "kind", str, "fault"),
            org=_field(raw, "org", str, "fault", None),
            table=_field(raw, "table", str, "fault", None),
            pk=tuple(_field(raw, "pk", list, "fault", [])),
            column=_field(raw, "column", str, "fault", None),
            value=raw.get("value"),
            block_id=_field(raw, "block_id", int, "fault", None),
            requester=_field(raw, "requester", str, "fault", None),
            responder=_field(raw, "responder", str, "fault", None),
            until_tick=_field(raw, "until_tick", int, "fault", None),
            block_from=_field(raw, "block_from", int, "fault", None),
            block_to=_field(raw, "block_to", int, "fault", None),
        )


def load_fault_script(raw) -> list[FaultEvent]:
    """The events of a fault script, parsed from JSON: a list of fault
    objects (or of FaultEvents).  ConfigError when it is anything else."""
    if not isinstance(raw, list):
        raise ConfigError(f"fault script must be a list of objects, not {raw!r}")
    for event in raw:
        if not isinstance(event, (dict, FaultEvent)):
            raise ConfigError(f"fault script: a fault must be an object, not {event!r}")
    return [e if isinstance(e, FaultEvent) else FaultEvent.from_dict(e) for e in raw]


# ---- orderer ----

class Orderer:
    """Untrusted FIFO ordering service.

    Cuts a block when blocksize transactions are queued or when block_timeout
    ticks passed since the first still-queued transaction, whichever first.
    Before the cut, submit hands over the forming block a chunk at a time.
    """

    def __init__(self, blocksize: int, block_timeout: int):
        self.blocksize = blocksize
        self.block_timeout = block_timeout
        self.queue: list[tuple[int, agmt.ChainedTransaction]] = []
        self.next_block_id = 1

    def submit(self, ct: agmt.ChainedTransaction, tick: int) -> Action | None:
        """Queue ct.  When ct starts a keys.CHUNK_TRANSACTIONS chunk of the
        block it will be cut in, other than its first, returns that block's
        transactions queued before ct, for delivery while the block forms;
        None otherwise.  So a chunk is delivered once a later transaction of
        its block is queued, and the block's last transaction only when the
        block is cut."""
        self.queue.append((tick, ct))
        index = len(self.queue) - 1
        position = index % self.blocksize
        if position == 0 or position % keys.CHUNK_TRANSACTIONS:
            return None
        queued = self.queue[index - position : index]
        return Action(self.next_block_id + index // self.blocksize, tuple(c for _, c in queued))

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

    @property
    def empty(self) -> bool:
        return not self.queue


class _Due(Enum):
    """What falls due at an agenda entry's tick, and the entry's item."""

    INPUT = "input"  # the run's own: a fault's apply_fault, a schedule entry's (client, sql)
    EXPIRE = "expire"  # a vote rule's removal
    STEP = "step"  # _OrgRuntime whose window ends or that can start a block; None: a poll
    CUT = "cut"  # None: the orderer's queue head times out


# ---- per-org runtime wrapper ----

@dataclass
class _OrgRuntime:
    """The facts of one organization's lifecycle that cannot be derived:
    the block it is executing, or its open recovery window as (failing
    block, recovered), either of which ends at busy_until on the network's
    clock; and whether it is live, not yet retired by a kill or an
    exclusion.  It waits on consensus while it has a pending round and no
    recovery window is open."""

    node: OrgNode
    config: OrgConfig
    busy_until: int = 0
    executing: Action | None = None
    recovery: tuple[int, bool] | None = None
    live: bool = True

    @property
    def waiting(self) -> bool:
        return self.node.pending is not None and self.recovery is None


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
                agreement_policies=self.agreement_policies,
                predicates=predicates,
                ledger_path=ledger_path,
                durable=config.durable,
            )
            CheckpointManager(config.checkpoint_interval).attach(node)
            self.registry.register(org_cfg.org_id, private_key)
            self.runtimes[org_cfg.org_id] = _OrgRuntime(node, org_cfg)
        self._client_keys: dict[str, object] = {}
        self._client_plans: dict[str, PlanCache] = {}
        # proposals prepared for this tick's submits: (proposal, required
        # orgs, the chunk's org -> memo)
        self._prepared: deque = deque()
        self._rules = {FaultKind.DROP_VOTES: [], FaultKind.TAMPER_VOTE: []}  # in force now
        self._equivocations: set[tuple[str, int]] = set()  # (victim, block id)
        self._agenda: list = []  # heap of (tick, sequence, _Due, item)
        self._sequence = count()
        self._now = self._origin = 0  # the clock, and the current run's tick 0 on it

    @property
    def tick(self) -> int:
        """The run's current tick; after a run, one past its last tick."""
        return self._now - self._origin

    def _due_at(self, tick: int, what: _Due, item=None):
        heapq.heappush(self._agenda, (tick, next(self._sequence), what, item))

    # ---- keys ----

    def client_key(self, client: str):
        if client not in self._client_keys:
            key = keys.derive_private_key(f"{self.config.seed}:client:{client}")
            self._client_keys[client] = key
            self._client_plans[client] = PlanCache()
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

    @staticmethod
    def _rule_matches(rule: FaultEvent, requester: str, responder: str, block_id: int) -> bool:
        if rule.requester is not None and rule.requester != requester:
            return False
        if rule.responder is not None and rule.responder != responder:
            return False
        if rule.block_from is not None and block_id < rule.block_from:
            return False
        return rule.block_to is None or block_id <= rule.block_to

    def fetch_vote(self, requester: str):
        def fetch(responder: str, block_id: int):
            rt = self.runtimes.get(responder)
            if rt is None or not rt.live:
                return None
            if rt.recovery is not None and block_id >= rt.recovery[0]:
                return None  # recovering: not ready for this block yet
            for rule in self._rules[FaultKind.DROP_VOTES]:
                if self._rule_matches(rule, requester, responder, block_id):
                    return None
            vote = rt.node.serve_hash_request(block_id)
            if vote is None:
                return None
            for rule in self._rules[FaultKind.TAMPER_VOTE]:
                if self._rule_matches(rule, requester, responder, block_id):
                    flipped = bytes([vote.effect_hash[0] ^ 0xFF]) + vote.effect_hash[1:]
                    return type(vote)(vote.org, vote.block_id, flipped, vote.signature)
            return vote

        return fetch

    # ---- fault application ----

    def check_fault(self, event: FaultEvent) -> FaultKind:
        """event's kind, once event has the fields the kind needs and names
        organizations of this network; ConfigError naming the kind and the
        field otherwise, or a negative at_tick or an until_tick not after it.
        A corrupt_* target is checked when applied: a table, row or checkpoint
        that does not exist then is a CORRUPT_MISSED line."""
        try:
            kind = FaultKind(event.kind)
        except ValueError:
            raise ConfigError(f"unknown fault kind {event.kind!r}") from None
        for role in ("org", "requester", "responder"):
            name = getattr(event, role)
            if name not in self.runtimes and not (name is None and role not in kind.needs):
                raise ConfigError(f"fault {kind.value}: {role} {name!r} is not an organization")
        for name in kind.needs:
            if getattr(event, name) is None:
                raise ConfigError(f"fault {kind.value}: missing {name}")
        if event.at_tick < 0:
            raise ConfigError(f"fault {kind.value}: at_tick {event.at_tick} is negative")
        if event.until_tick is not None and event.until_tick <= event.at_tick:
            ticks = f"until_tick {event.until_tick} is not after at_tick {event.at_tick}"
            raise ConfigError(f"fault {kind.value}: {ticks}")
        return kind

    def apply_fault(self, event: FaultEvent, kind: FaultKind | None = None):
        """Apply event now; kind, when given, is check_fault's answer for it.
        A vote rule is in force until its until_tick of the current run."""
        kind = kind or self.check_fault(event)
        if kind is FaultKind.KILL_ORG:
            self._retire(self.runtimes[event.org], KILL)
        elif kind is FaultKind.CORRUPT_ROW:
            hit = self._overwrite(event, self.node(event.org).db)
            self.report.emit(self.tick, event.org, CORRUPT if hit else CORRUPT_MISSED)
        elif kind is FaultKind.CORRUPT_SNAPSHOT:
            manager = self.node(event.org).checkpoints
            if not manager or not manager.snapshots:
                self.report.emit(self.tick, event.org, CORRUPT_MISSED)
                return
            checkpoint = manager.snapshots[-1]
            copy = Database()
            copy.restore_all(checkpoint.tables)
            hit = self._overwrite(event, copy)
            if hit:
                # without keys: a rewritten key column moves the row to the key it encodes
                table = copy.table(event.table)
                rows = tuple(table.rows.values())
                checkpoint.tables[event.table] = TableSnapshot(table.schema, rows)
            event_name = CORRUPT_SNAPSHOT if hit else CORRUPT_MISSED
            self.report.emit(self.tick, event.org, event_name, checkpoint.block_id)
        elif kind is FaultKind.EQUIVOCATE_ORDERER:
            self._equivocations.add((event.org, event.block_id))
        elif kind in self._rules:
            self._rules[kind].append(event)
            if event.until_tick is not None:
                end = partial(self._rules[kind].remove, event)
                self._due_at(self._origin + event.until_tick, _Due.EXPIRE, end)

    def _retire(self, rt: _OrgRuntime, event: str, block: int = 0):
        """Kill (KILL) or exclude (EXCLUDED) rt for good: it no longer steps,
        votes, endorses or receives blocks, its received blocks' unread
        verdicts are dropped, and its record of endorsed proposals is
        cleared."""
        rt.live = False
        rt.node.verifying.clear()
        rt.node.endorsed.clear()
        self.report.emit(self.tick, rt.node.org_id, event, block)

    @staticmethod
    def _overwrite(event: FaultEvent, db: Database) -> bool:
        """Overwrite the cell that a corrupt_* fault names in db; False when
        its table or row does not exist (yet).  ConfigError when the column
        does not exist, or the value or the key can never be stored there."""
        try:
            db.overwrite_cell(event.table, event.pk, event.column, event.value)
        except MissingTarget:
            return False
        except BindError as exc:
            raise ConfigError(f"{event.kind}: {exc}") from None
        return True

    # ---- submission ----

    def submit(self, client: str, sql: str):
        """Chainify one proposal: gather agreements, then hand to the orderer.

        Takes the proposal that run prepared for (client, sql) when it is the
        next one prepared; prepares it here otherwise, as a chunk of one.
        Each live endorser is asked for its agreement, with its memo for the
        proposal's chunk (see the module docstring); a required organization
        that is not live is unreachable.  When the transaction starts a new
        chunk of its block, the block as formed so far goes to every live
        organization (Orderer.submit).  Returns the ChainedTransaction that
        the block will hold, or the Rejected."""
        prepared = self._prepared
        if prepared and prepared[0][0].client == client and prepared[0][0].sql == sql:
            proposal, needed, memos = prepared.popleft()
        else:
            [(proposal, needed, memos)] = self._prepare([(client, sql)])
        evaluators = {
            org: partial(self.runtimes[org].node.evaluate_agreement, memo=memos[org])
            for org in needed
            if self.runtimes[org].live
        }
        result = agmt.collect_agreements(proposal, needed, evaluators)
        if isinstance(result, agmt.Rejected):
            self.report.emit(self.tick, result.dissenting[0], REJECT)
            return result
        forming = self.orderer.submit(result, self._now)
        if forming is not None:
            for rt in self.runtimes.values():
                if rt.live:
                    rt.node.receive_action(forming, forming=True)
        return result

    def _prepare(self, entries) -> list:
        """Prepare the proposals of (client, sql) entries, one chunk, for
        submit: each client signs all of its proposals among them as one
        batch (agmt.make_proposals: one ECDSA signature per client and chunk)
        and finds the organizations each needs through its plan cache.
        Returns (proposal, required orgs, memos) entries in entry order,
        where memos is the chunk's one {org: memo} dict, each memo mapping
        the chunk's proposals that need its organization, in entry order, to
        None until the organization endorses them (see the module
        docstring)."""
        signed = {}
        for client in dict.fromkeys(client for client, _ in entries):
            sqls = [sql for of, sql in entries if of == client]
            signed[client] = iter(agmt.make_proposals(client, sqls, self.client_key(client)))
        memos: dict[str, dict[agmt.TransactionProposal, agmt.Agreement | None]] = {}
        prepared = []
        for client, sql in entries:
            proposal = next(signed[client])
            needed = agmt.endorsers(sql, self.agreement_policies, self._client_plans[client])
            for org in needed:
                memos.setdefault(org, {})[proposal] = None
            prepared.append((proposal, needed, memos))
        return prepared

    def _submit_due(self, due):
        """Submit the proposals due at this tick, in order, a
        keys.CHUNK_TRANSACTIONS chunk at a time: prepare the chunk, then
        submit each of its proposals.  What a raising submit left prepared
        is dropped."""
        size = keys.CHUNK_TRANSACTIONS
        try:
            for start in range(0, len(due), size):
                chunk = due[start : start + size]
                self._prepared.extend(self._prepare(chunk))
                for client, sql in chunk:
                    self.submit(client, sql)
        finally:
            self._prepared.clear()

    def _broadcast(self, action: Action):
        self.report.emit(self.tick, "orderer", CUT, action.round_id)
        for org_id, rt in self.runtimes.items():
            delivered = action
            if (org_id, action.round_id) in self._equivocations:
                delivered = Action(action.round_id, action.transactions[:-1])
                self.report.emit(self.tick, org_id, EQUIVOCATE, action.round_id)
            if rt.live:
                rt.node.receive_action(delivered)

    # ---- per-org state machine ----

    def _step_org(self, rt: _OrgRuntime):
        """One tick of one organization: the end of a recovery window or of
        an execution, or a consensus poll, then the start of the next
        execution, as far as the organization is free to go.  Where a vote
        is published, waiting peers attempt consensus (_wake_waiting_peers).
        """
        tick = self.tick
        if not rt.live or self._now < rt.busy_until:
            return
        org_id = rt.node.org_id
        if rt.recovery is not None:
            (block, recovered), rt.recovery = rt.recovery, None
            if not recovered:
                self.report.emit(tick, org_id, RECOVER_FAIL, block)
                self._retire(rt, EXCLUDED, block)
                return
            self.report.emit(tick, org_id, RECOVER_DONE, block)
            self.report.emit(tick, org_id, COMMIT, block)
            self._wake_waiting_peers(rt)
        elif rt.executing is not None:
            action, rt.executing = rt.executing, None
            self._finish_execution(rt, action)
        elif rt.waiting:
            self._attempt_consensus(rt)
        self._start_next_execution(rt)

    def _start_next_execution(self, rt: _OrgRuntime):
        """Start executing the next received block if rt is past its busy
        time and not waiting on consensus.  One that is left free to start
        another steps at the next tick."""
        if self._now < rt.busy_until:
            return
        action = rt.node.executable_action()
        if action is None:
            return
        self.report.emit(self.tick, rt.node.org_id, EXEC_START, action.round_id)
        if rt.config.engine_delay > 0:
            rt.executing = action
            rt.busy_until = self._now + rt.config.engine_delay
            self._due_at(rt.busy_until, _Due.STEP, rt)
            return
        self._finish_execution(rt, action)
        if rt.node.executable_action() is not None:
            self._due_at(self._now + 1, _Due.STEP, rt)

    def _finish_execution(self, rt: _OrgRuntime, action: Action):
        rt.node.execute_action(action)
        self.report.emit(self.tick, rt.node.org_id, EXEC_DONE, action.round_id)
        self._attempt_consensus(rt)
        if rt.recovery is None:  # recovery hides the vote until its window ends
            self._wake_waiting_peers(rt)

    def _wake_waiting_peers(self, publisher: _OrgRuntime):
        """publisher's vote just became visible: each other live organization
        waiting on consensus makes one attempt, in org order, fetching and
        verifying the votes itself.  One that commits starts its next
        received block at once, as it would in its own step."""
        for rt in self.runtimes.values():
            if rt is not publisher and rt.live and rt.waiting:
                self._attempt_consensus(rt)
                self._start_next_execution(rt)

    def _attempt_consensus(self, rt: _OrgRuntime):
        org_id = rt.node.org_id
        transcript = rt.node.complete_round(self.peers_of(org_id), self.fetch_vote(org_id))
        if transcript.status is ConsensusStatus.COMMITTED:
            self.report.emit(self.tick, org_id, COMMIT, transcript.block_id)
        elif transcript.status is ConsensusStatus.NON_CONSENTING:
            self.report.emit(self.tick, org_id, NONCONSENT, transcript.block_id)
            self._run_recovery(rt, transcript.block_id)
        # NO_CONSENSUS: poll again at a later tick the network steps

    def _run_recovery(self, rt: _OrgRuntime, failing_block: int):
        """Recover rt now; _step_org reports the outcome when its window ends."""
        org_id = rt.node.org_id
        self.report.emit(self.tick, org_id, RECOVER_START, failing_block)
        report = recover(rt.node, self.peers_of(org_id), self.fetch_vote(org_id))
        cost = max(1, report.blocks_replayed_total) * max(1, rt.config.engine_delay)
        rt.busy_until = self._now + cost
        rt.recovery = (failing_block, report.recovered)
        self._due_at(rt.busy_until, _Due.STEP, rt)

    # ---- main loop ----

    def run(self, schedule, faults=(), max_ticks: int = 10_000) -> SimulationReport:
        """Step the network at each tick its agenda holds, until nothing there
        can change state or to the tick budget.

        schedule: iterable of (tick, client, sql), pre-sorted or not.
        faults: FaultEvents or dicts.  Ticks count from 0 in every run, and
        tick 0 is one past the last tick the previous run stepped.  State
        events still due carry into the next run at their ticks; a run's
        inputs do not: a run stopped at its budget drops its schedule entries
        and faults still to come.
        """
        entries = sorted(((int(t), c, s) for t, c, s in schedule), key=lambda e: e[0])
        if entries and entries[0][0] < 0:
            raise ConfigError(f"schedule: tick {entries[0][0]} is negative")
        fault_events = sorted(load_fault_script(list(faults)), key=lambda e: e.at_tick)
        kinds = [self.check_fault(e) for e in fault_events]  # refused before tick 0
        self._origin = self._now
        for event, kind in zip(fault_events, kinds):
            fault = partial(self.apply_fault, event, kind)
            self._due_at(self._origin + event.at_tick, _Due.INPUT, fault)
        for tick, client, sql in entries:
            self._due_at(self._origin + tick, _Due.INPUT, (client, sql))
        while self.tick <= max_ticks:
            lines_before = len(self.report.lines)
            due = []
            while self._agenda and self._agenda[0][0] <= self._now:
                _, _, what, item = heapq.heappop(self._agenda)
                if callable(item):
                    item()  # a fault applies, or a vote rule ends
                elif what is _Due.INPUT:
                    due.append(item)
            self._submit_due(due)
            for action in self.orderer.tick(self._now):
                self._broadcast(action)
            if not self.orderer.empty:
                self._due_at(self.orderer.queue[0][0] + self.config.block_timeout, _Due.CUT)
            for rt in self.runtimes.values():
                self._step_org(rt)
            waiting = [rt for rt in self.runtimes.values() if rt.live and rt.waiting]
            if waiting and len(self.report.lines) > lines_before:
                self._due_at(self._now + 1, _Due.STEP)  # a vote may have gone after a poll
            if not any(self._can_change(what, item, waiting) for _, _, what, item in self._agenda):
                for rt in waiting:
                    self.report.emit(self.tick, rt.node.org_id, STALLED, rt.node.next_round)
                self._now += 1
                break
            self._now = min(self._agenda[0][0], self._origin + max_ticks + 1)
        else:  # stopped at the budget
            self._agenda = [e for e in self._agenda if e[2] is not _Due.INPUT]
            heapq.heapify(self._agenda)

        for org_id, rt in self.runtimes.items():
            self.report.summary[org_id] = rt.node.height
        if self.config.out_dir is not None:
            with open(f"{self.config.out_dir}/report.tsv", "w") as fh:
                fh.write(self.report.to_text())
        return self.report

    def _can_change(self, what: _Due, item, waiting: list) -> bool:
        """Whether an agenda entry can still change state: every input, a vote
        rule's end while organizations wait on consensus, a step while its
        organization is live, a cut while transactions are queued."""
        if what is _Due.EXPIRE:
            return bool(waiting)
        if what is _Due.CUT:
            return not self.orderer.empty
        return what is _Due.INPUT or item is None or item.live
