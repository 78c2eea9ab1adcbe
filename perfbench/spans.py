"""Span tracing and counting around the program's public functions.

Everything is patched from outside the package, at the names callers look
up (for example `effectledger.org.analyze_transaction`, which `OrgNode`
calls), and restored afterwards.  Spans are kept in memory per thread, with
a per-thread stack giving each span its parent, so the worker threads of
`execute_staged` keep their own spans.  A span's self time is its duration
minus the durations of its child spans in the same thread.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import Counter
from contextlib import contextmanager

from effectledger import agreement, consensus, keys, ledger, network, org, recovery, scheduler
from effectledger.engine import database
from effectledger.ledger import BlockDigest

# span name -> the (owner, attribute) pairs where callers look the function up
SPAN_TARGETS = {
    "engine.parser.parse_script": [
        (agreement, "parse_script"),
        (scheduler, "parse_script"),
        (database, "parse_script"),
    ],
    "keys.sign": [(keys, "sign")],
    "keys.verify": [(keys, "verify")],
    "agreement.make_proposal": [(agreement, "make_proposal")],
    "agreement.collect_agreements": [(agreement, "collect_agreements")],
    "agreement.required_orgs": [(agreement, "required_orgs")],
    "agreement.verify_chained_transaction": [(agreement, "verify_chained_transaction")],
    "org.OrgNode.evaluate_agreement": [(org.OrgNode, "evaluate_agreement")],
    "org.OrgNode.execute_action": [(org.OrgNode, "execute_action")],
    "org.OrgNode.complete_round": [(org.OrgNode, "complete_round")],
    "org.OrgNode.replay_committed_block": [(org.OrgNode, "replay_committed_block")],
    "scheduler.analyze_transaction": [(org, "analyze_transaction")],
    "scheduler.build_dependency_graph": [(org, "build_dependency_graph")],
    "scheduler.execute_staged": [(org, "execute_staged")],
    "engine.database.Database.execute_transaction": [(database.Database, "execute_transaction")],
    "engine.database.Database.restore_all": [(database.Database, "restore_all")],
    "ledger.build_ledger_block": [(org, "build_ledger_block")],
    "ledger.block_hash": [(ledger, "block_hash"), (org, "block_hash"), (recovery, "block_hash")],
    "ledger.Ledger.append": [(ledger.Ledger, "append")],
    "consensus.run_consensus": [(consensus, "run_consensus")],
    "recovery.recover": [(network, "recover")],
    "recovery.CheckpointManager.take": [(recovery.CheckpointManager, "take")],
    "network.Network.run": [(network.Network, "run")],
    "network.Network.submit": [(network.Network, "submit")],
}


@contextmanager
def patched(replacements):
    """Install (owner, attribute, make_wrapper) replacements; restore on exit.

    Targets the program no longer has are skipped and yielded, so a renamed
    function shows as a missing span instead of stopping the benchmark.
    """
    saved, missing = [], []
    try:
        for owner, attr, make_wrapper in replacements:
            if attr not in vars(owner):
                missing.append(f"{owner.__name__}.{attr}")
                continue
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(original))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class LatencyProbe:
    """Per-transaction latency from `Network.submit` to the quorum commit.

    The quorum commit of a block is the MIN_MATCHING-th return of
    `OrgNode.commit_pending` for it across the organizations.
    """

    def __init__(self, quorum: int):
        self.quorum = quorum
        self.submitted_at: dict[int, float] = {}
        self.commits: Counter = Counter()
        self.samples: list[float] = []

    def replacements(self):
        def wrap_submit(submit):
            def timed_submit(net, client, sql):
                started = time.perf_counter()
                result = submit(net, client, sql)
                self.submitted_at[id(result)] = started
                return result

            return timed_submit

        def wrap_commit(commit_pending):
            def timed_commit(node, transcript):
                action = node.pending.action
                commit_pending(node, transcript)
                self.commits[action.round_id] += 1
                if self.commits[action.round_id] == self.quorum:
                    now = time.perf_counter()
                    for ct in action.transactions:
                        self.samples.append(now - self.submitted_at.pop(id(ct)))

            return timed_commit

        return [
            (network.Network, "submit", wrap_submit),
            (org.OrgNode, "commit_pending", wrap_commit),
        ]


class Tracer:
    """Spans per thread plus deterministic per-layer counts, for one repetition."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[list] = []  # finished spans, one list per thread
        self.counts: Counter = Counter()
        self.recover_seconds: list[float] = []
        self.calls: Counter = Counter()  # per span name, set by finish()
        self.self_seconds: Counter = Counter()

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])  # (spans, stack of open indices)
            with self._lock:
                self.threads.append(state[0])
        return state

    def span(self, name: str, fn):
        thread_state = self._thread_state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans, stack = thread_state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, started, clock(), parent)
                stack.pop()

        return traced

    # ---- counts taken where the work happens ----

    def _count_graph(self, fn):
        def counted(*args, **kwargs):
            graph = fn(*args, **kwargs)
            self.counts["graphs"] += 1
            self.counts["stages"] += len(graph.stages)
            self.counts["widest_stage"] += max((len(s) for s in graph.stages), default=0)
            return graph

        return counted

    def _count_digest(self, fn):
        signature = inspect.signature(fn)

        def counted(*args, **kwargs):
            digest = signature.bind(*args, **kwargs).arguments["digest"]
            if isinstance(digest, BlockDigest):
                self.counts["digest_tuples"] += len(digest)
            return fn(*args, **kwargs)

        return counted

    def _count_polls(self, fn):
        signature = inspect.signature(fn)

        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            fetch_vote = bound.arguments["fetch_vote"]

            def polled(responder, block_id):
                vote = fetch_vote(responder, block_id)
                self.counts["vote_polls"] += 1
                self.counts["votes_ready"] += vote is not None
                return vote

            bound.arguments["fetch_vote"] = polled
            return fn(*bound.args, **bound.kwargs)

        return counted

    def _count_recovery(self, fn):
        def counted(*args, **kwargs):
            started = time.perf_counter()
            report = fn(*args, **kwargs)
            self.recover_seconds.append(time.perf_counter() - started)
            self.counts["recoveries"] += 1
            self.counts["recovery_iterations"] += len(report.iterations)
            self.counts["blocks_replayed"] += report.blocks_replayed_total
            return report

        return counted

    def _count_verified(self, fn):
        def counted(*args, **kwargs):
            ok = fn(*args, **kwargs)
            self.counts["verified_ok"] += bool(ok)
            return ok

        return counted

    def replacements(self):
        counters = {
            "scheduler.build_dependency_graph": self._count_graph,
            "ledger.build_ledger_block": self._count_digest,
            "consensus.run_consensus": self._count_polls,
            "recovery.recover": self._count_recovery,
            "agreement.verify_chained_transaction": self._count_verified,
        }
        out = []
        for name, targets in SPAN_TARGETS.items():
            count = counters.get(name, lambda fn: fn)
            for owner, attr in targets:
                out.append(
                    (owner, attr, lambda fn, name=name, count=count: self.span(name, count(fn)))
                )
        return out

    # ---- results ----

    def finish(self):
        """Total the calls and self seconds per span name, once tracing ended."""
        self.calls, self.self_seconds = Counter(), Counter()
        for spans in self.threads:
            for name, started, ended, parent in spans:
                duration = ended - started
                self.calls[name] += 1
                self.self_seconds[name] += duration
                if parent >= 0:
                    self.self_seconds[spans[parent][0]] -= duration

    def write(self, path: str):
        """Write every span as one tab-separated line per span."""
        with open(path, "w") as fh:
            fh.write("thread\tindex\tname\tstart_us\tduration_us\tparent\n")
            origin = min((s[0][1] for s in self.threads if s), default=0.0)
            for thread, spans in enumerate(self.threads):
                for index, (name, started, ended, parent) in enumerate(spans):
                    fh.write(
                        f"{thread}\t{index}\t{name}\t{(started - origin) * 1e6:.1f}\t"
                        f"{(ended - started) * 1e6:.1f}\t{parent}\n"
                    )
