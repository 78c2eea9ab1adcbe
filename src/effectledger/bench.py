"""Wall-clock throughput runs.

Unlike the tick-driven simulator, this path commits blocks as fast as the
machine allows.  The organizations share one interpreter, so they are driven
in a plain loop per block (a thread per org would only add scheduler jitter
without real parallelism).  Commits are durable (each ledger append is
fsynced), and every peer hash poll sleeps for ``vote_latency`` seconds,
standing in for the network round trip that an in-process call skips.  Every
block therefore pays a fixed voting + verification + durability cost that
larger blocks amortize over more transactions; that group-commit economics
is the trend worth reading from the output, the absolute numbers are
machine-dependent.  Set ``vote_latency=0`` to time raw compute only.

Submission and signing happen before the timer starts, and a ramp-up window
of leading workload transactions is excluded so every blocksize measures the
same workload suffix.  Only transactions that committed successfully count.
"""

from __future__ import annotations

import random
import tempfile
import time
from dataclasses import dataclass

from .consensus import ConsensusStatus
from .network import Network, NetworkConfig, OrgConfig
from .smallbank import SmallbankConfig, bootstrap_transactions, generate_workload

DEFAULT_BLOCKSIZES = (256, 512, 1024, 2048, 4096)
DEFAULT_CLIENT_COUNTS = (3, 6, 12, 24)


@dataclass
class BenchResult:
    blocksize: int
    clients: int
    total_txns: int
    successful: int
    elapsed_seconds: float
    tps: float

    def row(self) -> str:
        return (
            f"{self.blocksize}\t{self.clients}\t{self.total_txns}\t"
            f"{self.successful}\t{self.elapsed_seconds:.3f}\t{self.tps:.1f}"
        )


def run_bench(
    blocksize: int,
    txns: int = 8192,
    num_users: int = 1000,
    orgs: int = 3,
    clients: int = 3,
    sessions: int = 1,
    seed: int = 0,
    ramp_txns: int = 4096,
    vote_latency: float = 0.002,
) -> BenchResult:
    with tempfile.TemporaryDirectory(prefix="effectledger-bench-") as out_dir:
        config = NetworkConfig(
            orgs=[OrgConfig(f"O{i + 1}", sessions=sessions) for i in range(orgs)],
            min_matching=max(1, orgs - 1),
            blocksize=blocksize,
            block_timeout=1,
            out_dir=out_dir,
            durable=True,
        )
        net = Network(config)
        rng = random.Random(seed)

        # chainify everything up front; signing cost is not what we measure
        for sql in bootstrap_transactions(num_users, rng):
            net.submit("bootstrap", sql)
        boot_actions = net.orderer.flush()
        workload_cfg = SmallbankConfig(num_users=num_users, clients=clients)
        client_names = [f"bench{i}" for i in range(clients)]
        for i, sql in enumerate(generate_workload(workload_cfg, seed, txns)):
            net.submit(client_names[i % clients], sql)
        work_actions = net.orderer.flush()

        nodes = list(net.nodes.values())
        peer_ids = {n.org_id: [p.org_id for p in nodes if p is not n] for n in nodes}

        def fetch_vote(responder: str, block_id: int):
            if vote_latency > 0:
                time.sleep(vote_latency)
            return net.node(responder).serve_hash_request(block_id)

        def commit_block(action):
            for node in nodes:
                node.execute_action(action)
            for node in nodes:
                outcome = node.complete_round(peer_ids[node.org_id], fetch_vote)
                if outcome.status is not ConsensusStatus.COMMITTED:
                    raise RuntimeError(
                        f"bench round {action.round_id} failed on {node.org_id}: "
                        f"{outcome.status}"
                    )

        # ramp cutoff in whole blocks, aligned so every blocksize measures
        # the same workload suffix
        ramp_txns = min(ramp_txns, max(0, txns - blocksize))
        try:
            for action in boot_actions:
                commit_block(action)
            measured_ids = []
            seen = 0
            started = None
            for action in work_actions:
                if started is None and seen >= ramp_txns:
                    started = time.perf_counter()
                commit_block(action)
                if started is not None:
                    measured_ids.append(action.round_id)
                seen += len(action.transactions)
            elapsed = max(time.perf_counter() - started, 1e-9)
        finally:
            for node in nodes:
                node.ledger.close()

        ledger = nodes[0].ledger
        successful = sum(sum(ledger.block(b).successful) for b in measured_ids)
        total = sum(len(ledger.block(b).successful) for b in measured_ids)
    return BenchResult(blocksize, clients, total, successful, elapsed, successful / elapsed)


def sweep_blocksizes(
    blocksizes=DEFAULT_BLOCKSIZES,
    txns: int = 8192,
    num_users: int = 1000,
    orgs: int = 3,
    clients: int = 3,
    sessions: int = 1,
    seed: int = 0,
    vote_latency: float = 0.002,
) -> list[BenchResult]:
    return [
        run_bench(b, txns=txns, num_users=num_users, orgs=orgs,
                  clients=clients, sessions=sessions, seed=seed,
                  vote_latency=vote_latency)
        for b in blocksizes
    ]
