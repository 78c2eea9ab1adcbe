"""Benchmark `effectledger` end to end through `Network.run`.

    python3 perfbench/run.py --workload bank-steady --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program is imported from `src/` of the
same checkout.  `--trace 0` reports the end-to-end metrics; `--trace 1`
alternates plain and traced repetitions and reports per-layer metrics.
`--workload all` runs every workload in turn.  The last line of output is a
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"  # temporary ledgers and span files


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's run; prints its figures and returns the result object."""
    from measure import REFERENCE_SPEED, end_to_end, host_speed, per_layer, repeat
    from workloads import WORKLOADS, GateFailure

    workload = WORKLOADS[name]
    speed_before = host_speed()
    try:
        reps = repeat(workload, seed, seconds, str(OUT_DIR), trace)
    except GateFailure as exc:
        print(f"{name}: correctness gate failed: {exc}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    except Exception:  # the program failed: report it like a failed gate
        traceback.print_exc()
        print(f"{name}: the program raised an error")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    speed_after = host_speed()

    first = reps[0].outcome
    samples = sum(len(r.latencies_s) for r in reps)
    print(
        f"workload {name} seed {seed}: {len(reps)} repetitions of "
        f"{first.submitted} transactions in {first.blocks} blocks of {workload.blocksize}"
    )
    print(f"head_hash {first.head_hash}")
    print(f"report_sha256 {first.report_sha256}")
    print(f"host_speed_before {speed_before:.1f} loops/s")
    print(f"host_speed_after {speed_after:.1f} loops/s")
    print(f"host_speed_median {statistics.median(r.host_speed for r in reps):.1f} loops/s "
          f"(around each measured run; times below are scaled to {REFERENCE_SPEED:g} loops/s)")

    attempted = sum(r.outcome.submitted for r in reps)
    failed = attempted - sum(r.outcome.committed for r in reps)
    if trace:
        metrics = per_layer(reps)
        spans_path = OUT_DIR / f"{name}.spans.tsv"
        last_traced = [r for r in reps if r.tracer is not None][-1]
        last_traced.tracer.write(str(spans_path))
        for target in last_traced.missing_targets:
            print(f"span target missing in the program: {target}")
        print(f"spans of the last traced repetition: {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(reps)
        print(f"failed_share {failed / attempted} ratio")
        for metric, (value, unit) in end_to_end(reps, scaled=False).items():
            if metric != "peak_rss_mb":
                print(f"unscaled_{metric} {value:.6g} {unit}")
    for metric, (value, unit) in metrics.items():
        note = f" (n={samples})" if metric.startswith("latency_ms") else ""
        print(f"{metric} {value:.6g} {unit}{note}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "effectledger" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    ok = True
    for name in names:
        started = time.perf_counter()
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
        print(f"# {name} took {time.perf_counter() - started:.1f} s")
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
