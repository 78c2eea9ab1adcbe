"""Repetitions of a workload, and the metrics taken over them.

One run repeats the same workload with the same seed until its time is up.
Every repetition sets up afresh and must pass the correctness gate and give
the same head hash and report bytes as the first.  Timings are reported as
medians over repetitions, which keeps a few seconds of host slowdown from
moving a run's figures.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass

from spans import SPAN_TARGETS, LatencyProbe, Tracer, patched
from workloads import (
    MIN_MATCHING,
    GateFailure,
    RunOutcome,
    Workload,
    check,
    close,
    ledger_file_bytes,
    prepare,
)

MIN_REPETITIONS = 3
# Times are reported as on a host that runs the reference loop of
# host_speed() this many times per second; see README.md.
REFERENCE_SPEED = 1000.0
WITNESS_SECONDS = 0.2


@dataclass
class Repetition:
    setup_s: float
    wall_s: float  # the measured Network.run call
    outcome: RunOutcome
    latencies_s: list[float]
    file_bytes: int  # ledger bytes appended by the measured run, all orgs
    tracer: Tracer | None
    missing_targets: list[str]
    host_speed: float  # reference loops/s, around the measured run

    @property
    def tps(self) -> float:
        return self.outcome.committed / self.wall_s

    @property
    def to_reference(self) -> float:
        """Factor that turns this repetition's seconds into reference seconds."""
        return self.host_speed / REFERENCE_SPEED


def repetition(workload: Workload, seed: int, scratch_dir: str, traced: bool,
               txns: int | None = None) -> Repetition:
    """Set up, run the measured schedule once, and pass the correctness gate."""
    out_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch_dir)
    prepared = None
    try:
        started = time.perf_counter()
        prepared = prepare(workload, seed, out_dir, txns)
        setup_s = time.perf_counter() - started
        probe = LatencyProbe(MIN_MATCHING)
        tracer = Tracer() if traced else None
        bytes_before = ledger_file_bytes(prepared)
        speed_before = host_speed(WITNESS_SECONDS)
        missing: list[str] = []
        with ExitStack() as stack:
            if tracer is not None:
                missing = stack.enter_context(patched(tracer.replacements()))
            stack.enter_context(patched(probe.replacements()))
            started = time.perf_counter()
            prepared.net.run(prepared.schedule, prepared.faults)
            wall_s = time.perf_counter() - started
        speed = (speed_before + host_speed(WITNESS_SECONDS)) / 2
        if tracer is not None:
            tracer.finish()
        outcome = check(prepared)
        file_bytes = ledger_file_bytes(prepared) - bytes_before
    finally:
        if prepared is not None:
            close(prepared)
        shutil.rmtree(out_dir, ignore_errors=True)
    if len(probe.samples) != outcome.committed:
        raise GateFailure(
            f"{len(probe.samples)} latency samples for {outcome.committed} transactions"
        )
    return Repetition(
        setup_s, wall_s, outcome, probe.samples, file_bytes, tracer, missing, speed
    )


def repeat(workload: Workload, seed: int, seconds: float, scratch_dir: str,
           trace: bool) -> list[Repetition]:
    """Repeat while another repetition as long as the longest so far still
    ends within `seconds`.  When tracing, plain and traced repetitions
    alternate so that both see the same host conditions.  A one-block
    repetition first warms up lazy imports and caches and is not reported."""
    repetition(workload, seed, scratch_dir, traced=False, txns=workload.blocksize)
    started = time.perf_counter()
    minimum = MIN_REPETITIONS + trace
    reps: list[Repetition] = []
    longest = 0.0
    while len(reps) < minimum or time.perf_counter() - started + longest < seconds:
        traced = trace and len(reps) % 2 == 1
        rep_started = time.perf_counter()
        rep = repetition(workload, seed, scratch_dir, traced)
        first = reps[0].outcome if reps else rep.outcome
        if (rep.outcome.head_hash, rep.outcome.report_sha256) != (
            first.head_hash, first.report_sha256
        ):
            raise GateFailure("repetitions of the same inputs gave different ledgers or reports")
        if traced:
            for earlier in reps:
                if earlier.tracer is not None:
                    earlier.tracer.threads = []  # totals kept; raw spans of the last only
        reps.append(rep)
        gc.collect()
        longest = max(longest, time.perf_counter() - rep_started)
    return reps


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(reps: list[Repetition], scaled: bool = True) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, in reference seconds unless `scaled` is false.

    Each is a median over repetitions, so one repetition whose host speed
    changed while it ran does not move the figure."""
    def factor(r):
        return r.to_reference if scaled else 1.0

    def latency_ms(q):
        return statistics.median(percentile(r.latencies_s, q) * factor(r) for r in reps) * 1000

    return {
        "tps": (statistics.median(r.tps / factor(r) for r in reps), "txn/s"),
        "latency_ms_p50": (latency_ms(50), "ms"),
        "latency_ms_p99": (latency_ms(99), "ms"),
        "setup_s": (statistics.median(r.setup_s * factor(r) for r in reps), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def per_layer(reps: list[Repetition]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced repetitions, per committed
    transaction summed over the organizations."""
    traced = [r for r in reps if r.tracer is not None]
    plain = [r for r in reps if r.tracer is None]
    txns = sum(r.outcome.committed for r in traced)
    blocks = sum(r.outcome.blocks for r in traced)
    calls, self_s, counts = Counter(), Counter(), Counter()
    recover_s = []
    for r in traced:
        calls.update(r.tracer.calls)
        self_s.update({n: t * r.to_reference for n, t in r.tracer.self_seconds.items()})
        counts.update(r.tracer.counts)
        recover_s.extend(t * r.to_reference for t in r.tracer.recover_seconds)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in SPAN_TARGETS:
        out[f"{name}.calls_per_txn"] = (calls[name] / txns, "calls/txn")
        out[f"{name}.self_us_per_txn"] = (self_s[name] * 1e6 / txns, "us/txn")
    traced_tps = statistics.median(r.tps / r.to_reference for r in traced)
    plain_tps = statistics.median(r.tps / r.to_reference for r in plain)
    out.update({
        "agreement.verify_ok_ratio": (
            ratio(counts["verified_ok"], calls["agreement.verify_chained_transaction"]), "ratio"
        ),
        "scheduler.stages_per_block": (ratio(counts["stages"], counts["graphs"]), "stages/block"),
        "scheduler.widest_stage": (ratio(counts["widest_stage"], counts["graphs"]), "txns"),
        "ledger.digest_tuples_per_txn": (counts["digest_tuples"] / txns, "tuples/txn"),
        "ledger.file_bytes_per_txn": (sum(r.file_bytes for r in traced) / txns, "bytes/txn"),
        "consensus.vote_polls_per_block": (counts["vote_polls"] / blocks, "polls/block"),
        "consensus.vote_ready_ratio": (ratio(counts["votes_ready"], counts["vote_polls"]), "ratio"),
        "recovery.recover_ms_p50": (
            statistics.median(recover_s) * 1000 if recover_s else 0.0, "ms"
        ),
        "recovery.blocks_replayed_per_recovery": (
            ratio(counts["blocks_replayed"], counts["recoveries"]), "blocks/recovery"
        ),
        "recovery.iterations_per_recovery": (
            ratio(counts["recovery_iterations"], counts["recoveries"]), "iter/recovery"
        ),
        "tracing.traced_tps": (traced_tps, "txn/s"),
        "tracing.untraced_tps": (plain_tps, "txn/s"),
        "tracing.overhead_share": (1 - traced_tps / plain_tps, "ratio"),
    })
    return out


def host_speed(seconds: float = 0.3) -> float:
    """Rate of a fixed pure-Python loop, in loops per second.

    A witness of host speed.  It is taken before and after each run and
    printed, and around each measured `Network.run` to scale that
    repetition's times to the reference speed.  It runs while the program
    is idle, so a change in the program cannot move it.
    """
    loops = 0
    started = time.perf_counter()
    while True:
        total = 0
        for i in range(10_000):
            total += i * i % 7
        loops += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return loops / elapsed
