"""The benchmark's deterministic counts repeat exactly for a given seed.

Runs shortened traced repetitions of each workload (the full ones take
seconds each) through the same code path as perfbench/run.py.
"""

import json
from pathlib import Path

import pytest

from measure import end_to_end, per_layer, repetition
from workloads import WORKLOADS

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

SHORT_TXNS = {"bank-steady": 256, "bank-endorsed": 256, "bank-corrupt": 768}


def counts(rep):
    calls = {name: n / rep.outcome.committed for name, n in rep.tracer.calls.items()}
    return calls, dict(rep.tracer.counts), rep.file_bytes, rep.outcome


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name, tmp_path):
    workload = WORKLOADS[name]
    first = repetition(workload, 7, str(tmp_path), traced=True, txns=SHORT_TXNS[name])
    second = repetition(workload, 7, str(tmp_path), traced=True, txns=SHORT_TXNS[name])
    assert counts(first) == counts(second)
    assert first.tracer.calls["network.Network.submit"] == SHORT_TXNS[name]
    if workload.corrupt_org:
        assert first.tracer.counts["recoveries"] > 0


def test_another_seed_changes_the_head_hash(tmp_path):
    workload = WORKLOADS["bank-steady"]
    one = repetition(workload, 7, str(tmp_path), traced=False, txns=256)
    other = repetition(workload, 8, str(tmp_path), traced=False, txns=256)
    assert one.outcome.head_hash != other.outcome.head_hash



def test_reported_metrics_are_the_declared_ones(tmp_path):
    spec = json.loads(SPEC.read_text())
    workload = WORKLOADS["bank-steady"]
    reps = [repetition(workload, 7, str(tmp_path), traced=t, txns=256) for t in (False, True)]
    assert [(name, unit) for name, (_, unit) in end_to_end(reps[:1]).items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]
    ]
    assert [(name, unit) for name, (_, unit) in per_layer(reps).items()] == [
        (m["name"], m["unit"]) for m in spec["per_layer"]
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
