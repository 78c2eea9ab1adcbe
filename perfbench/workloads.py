"""The benchmark's workloads, and one repetition of a workload.

A repetition builds a fresh three-organization `Network` with durable
(fsynced) ledger files, bootstraps the Smallbank accounts with a first
`Network.run` call, then drives the measured schedule through a second
`Network.run` call on the same `Network`.  The schedule releases exactly one
block of proposals per tick, and a tick starts only after every organization
finished the previous one, so the load is a closed loop.  Votes are fetched
in process with no injected delay: latency is processor time plus fsync.

This module drives the program only through its public entry points; the
program receives generated SQL and a fault script, never the seed.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field

from effectledger.ledger import verify_ledger
from effectledger.network import (
    EXCLUDED,
    RECOVER_FAIL,
    REJECT,
    Network,
    NetworkConfig,
    OrgConfig,
)
from effectledger.smallbank import (
    CHECKING_TABLE,
    SAVINGS_TABLE,
    SmallbankConfig,
    bootstrap_transactions,
    build_schedule,
    generate_workload,
)

ORGS = ("O1", "O2", "O3")
MIN_MATCHING = 2
CLIENTS = ("client0", "client1", "client2")
BOOTSTRAP_CLIENT = "bootstrap"
NUM_USERS = 1000
ZIPF_S = 1.1
FORBIDDEN_EVENTS = (REJECT, RECOVER_FAIL, EXCLUDED)


@dataclass(frozen=True)
class Workload:
    name: str
    blocksize: int
    blocks: int  # measured blocks per repetition
    sessions: int = 1
    policies: dict = field(default_factory=dict)  # table -> required orgs
    predicates: dict = field(default_factory=dict)  # org -> table -> conditions
    corrupt_org: str | None = None  # hit by a corrupt_row fault at every tick

    @property
    def txns(self) -> int:
        return self.blocksize * self.blocks


WORKLOADS = {
    w.name: w
    for w in (
        # The standard setup: per-transaction parse, verify and execute do the work.
        Workload("bank-steady", blocksize=1024, blocks=3),
        # The only workload with endorsement, predicates and 3 signatures per
        # transaction.  Its predicates use transaction fields only: state
        # lookups would refuse the bootstrap inserts, whose rows do not exist yet.
        Workload(
            "bank-endorsed",
            blocksize=1024,
            blocks=2,
            policies={CHECKING_TABLE: ["O1", "O2"], SAVINGS_TABLE: ["O2", "O3"]},
            predicates={
                "O1": {CHECKING_TABLE: ["T.custid >= 1"]},
                "O3": {SAVINGS_TABLE: [f"T.custid <= {NUM_USERS}"]},
            },
        ),
        # The only workload where recovery, replay and threaded staging do work,
        # and where per-block layers weigh most.
        Workload("bank-corrupt", blocksize=256, blocks=12, sessions=2, corrupt_org="O3"),
    )
}


def corrupt_faults(workload: Workload, ticks: int) -> list[dict]:
    """Corrupt the hottest Zipf account's checking balance at every tick."""
    return [
        {
            "at_tick": tick,
            "kind": "corrupt_row",
            "org": workload.corrupt_org,
            "table": CHECKING_TABLE,
            "pk": [1],
            "column": "bal",
            "value": "-1",
        }
        for tick in range(ticks)
    ]


@dataclass
class Prepared:
    """A bootstrapped network and the measured run's inputs."""

    net: Network
    schedule: list
    faults: list
    bootstrap_height: int


def prepare(workload: Workload, seed: int, out_dir: str, txns: int | None = None) -> Prepared:
    """Set-up: network and keys, workload generation, and the bootstrap run."""
    txns = workload.txns if txns is None else txns
    config = NetworkConfig(
        orgs=[OrgConfig(org, sessions=workload.sessions) for org in ORGS],
        min_matching=MIN_MATCHING,
        blocksize=workload.blocksize,
        agreement_policies=workload.policies,
        predicates=workload.predicates,
        seed=seed,
        out_dir=out_dir,
        durable=True,
    )
    net = Network(config)
    for client in (BOOTSTRAP_CLIENT, *CLIENTS):
        net.client_key(client)
    bootstrap = bootstrap_transactions(NUM_USERS, random.Random(seed))
    sql = list(generate_workload(SmallbankConfig(num_users=NUM_USERS, zipf_s=ZIPF_S), seed, txns))
    schedule = build_schedule(sql, CLIENTS, per_tick=workload.blocksize)
    ticks = schedule[-1][0] + 1
    faults = corrupt_faults(workload, ticks) if workload.corrupt_org else []

    prepared = Prepared(net, schedule, faults, 0)
    try:
        net.run(build_schedule(bootstrap, (BOOTSTRAP_CLIENT,), per_tick=workload.blocksize))
        for node in net.nodes.values():
            committed = sum(sum(b.successful) for b in node.ledger.blocks)
            if committed != len(bootstrap):
                raise GateFailure(
                    f"bootstrap: {node.org_id} committed {committed} of {len(bootstrap)}"
                )
    except BaseException:
        close(prepared)
        raise
    prepared.bootstrap_height = net.node(ORGS[0]).height
    return prepared


class GateFailure(Exception):
    """A repetition's outputs are wrong; its numbers must not be reported."""


@dataclass
class RunOutcome:
    submitted: int
    committed: int  # successful transactions in measured blocks
    blocks: int  # measured blocks committed
    head_hash: str
    report_sha256: str


def check(prepared: Prepared) -> RunOutcome:
    """The correctness gate, run after the measured `Network.run` returns.

    Raises GateFailure unless every durable ledger file verifies against its
    in-memory head, all organizations agree on height, head hash and state
    hash, no transaction was rejected and no organization failed recovery or
    was excluded, and every submitted transaction committed successfully.
    """
    net = prepared.net
    nodes = [net.node(org) for org in ORGS]
    for node in nodes:
        with open(node.ledger.path, "rb") as fh:
            result = verify_ledger(fh.read(), expected_head=node.ledger.head_hash())
        if not result:
            raise GateFailure(f"{node.org_id}: ledger file fails verification: {result.reason}")
    for label, value in (
        ("height", lambda n: n.height),
        ("head hash", lambda n: n.ledger.head_hash()),
        ("state hash", lambda n: n.db.state_hash()),
    ):
        if len({value(n) for n in nodes}) != 1:
            raise GateFailure(f"organizations disagree on {label}")
    bad = [line for line in net.report.lines if line.event in FORBIDDEN_EVENTS]
    if bad:
        first = bad[0]
        raise GateFailure(
            f"{len(bad)} {'/'.join(FORBIDDEN_EVENTS)} events, first {first.event} at {first.org}"
        )
    ledger = nodes[0].ledger
    measured = ledger.blocks[prepared.bootstrap_height:]
    committed = sum(sum(block.successful) for block in measured)
    submitted = len(prepared.schedule)
    if committed != submitted:
        raise GateFailure(f"{committed} of {submitted} submitted transactions committed")
    return RunOutcome(
        submitted=submitted,
        committed=committed,
        blocks=len(measured),
        head_hash=ledger.head_hash().hex(),
        report_sha256=hashlib.sha256(net.report.to_text().encode()).hexdigest(),
    )


def ledger_file_bytes(prepared: Prepared) -> int:
    return sum(os.path.getsize(prepared.net.node(org).ledger.path) for org in ORGS)


def close(prepared: Prepared):
    for org in ORGS:
        prepared.net.node(org).ledger.close()

