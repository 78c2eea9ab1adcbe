"""The names the benchmark's tracing patches, binds and reads still exist.

perfbench/spans.py wraps functions at the attributes where callers look them
up, and some wrappers bind a parameter by name; spans.py and workloads.py
also read attributes off program objects.  A rename there would show only as
a "span target missing" line in a traced benchmark run, or as an error in a
benchmark run; here it fails a test.  spans.py is loaded from its file and
only read: loading it patches nothing.
"""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import pytest

from effectledger import agreement, consensus, keys, ledger, network, org, recovery, scheduler

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()

# Targets the program no longer has, each printed as "span target missing"
# by a traced run until perfbench drops it: org builds no dependency graph
# and calls no execute_staged, and recovery no longer calls block_hash.
RETIRED = [
    (org, "build_dependency_graph"),
    (org, "execute_staged"),
    (recovery, "block_hash"),
]
TARGETS = [(owner, attr) for targets in spans.SPAN_TARGETS.values() for owner, attr in targets]
TARGETS += [(owner, attr) for owner, attr, _ in spans.LatencyProbe(1).replacements()]
LIVE = [target for target in TARGETS if target not in RETIRED]


@pytest.mark.parametrize(
    "owner, attr", LIVE, ids=[f"{owner.__name__}.{attr}" for owner, attr in LIVE]
)
def test_span_target_exists(owner, attr):
    # spans.patched looks each target up in the owner's own namespace
    assert attr in vars(owner)


@pytest.mark.parametrize(
    "owner, attr", RETIRED, ids=[f"{owner.__name__}.{attr}" for owner, attr in RETIRED]
)
def test_retired_span_target_is_absent(owner, attr):
    # a retired target that perfbench dropped, or the program brought back,
    # leaves the list
    assert (owner, attr) in TARGETS
    assert attr not in vars(owner)


@pytest.mark.parametrize(
    "function, parameter",
    [
        (consensus.run_consensus, "fetch_vote"),
        (org.build_ledger_block, "digest"),
        (org.OrgNode.commit_pending, "transcript"),
    ],
)
def test_bound_parameter_exists(function, parameter):
    assert parameter in inspect.signature(function).parameters


# ---- attributes read off program objects ----


def test_pending_round_has_its_action():
    # spans.LatencyProbe reads node.pending.action when a block commits
    assert "action" in {f.name for f in dataclasses.fields(org.PendingRound)}


def test_recovery_report_counts():
    report = recovery.RecoveryReport()
    report.iterations.append(recovery.RecoveryIteration("full_replay", 2, True))
    assert (len(report.iterations), report.blocks_replayed_total) == (1, 2)


def test_graph_stages_and_digest_length():
    graph = scheduler.build_dependency_graph([scheduler.TxnAccessSet(0), scheduler.TxnAccessSet(1)])
    assert [len(stage) for stage in graph.stages] == [2]
    assert len(ledger.BlockDigest()) == 0


def test_workload_config_and_event_names():
    assert network.OrgConfig("O1", sessions=2).sessions == 2
    assert all(
        isinstance(getattr(network, name), str) for name in ("EXCLUDED", "RECOVER_FAIL", "REJECT")
    )


def test_keys_verify_counts_vote_checks_only(monkeypatch):
    # endorsement's client checks are verified in signature worker batches,
    # as block checks are, so the keys.verify span counts vote checks only
    messages = []
    verify = keys.verify
    monkeypatch.setattr(
        keys, "verify", lambda key, signature, message: messages.append(message)
        or verify(key, signature, message)
    )
    net = network.Network(network.NetworkConfig(
        [network.OrgConfig(org) for org in ("O1", "O2", "O3")],
        blocksize=1,
        agreement_policies={"t": ["O1", "O2"]},
    ))
    proposal = agreement.make_proposal("c", "SELECT * FROM t;", net.client_key("c"))
    assert net.node("O1").evaluate_agreement(proposal).verdict
    assert messages == []
    net.run([(0, "c", "CREATE TABLE t (k INT, PRIMARY KEY (k));"),
             (1, "c", "INSERT INTO t (k) VALUES (1);")])
    assert [node.height for node in net.nodes.values()] == [2, 2, 2]
    votes = {vote.signed_payload() for node in net.nodes.values() for vote in node.votes.values()}
    assert messages and set(messages) <= votes


def test_committed_actions_hold_the_transactions_submit_returned(monkeypatch):
    # spans.LatencyProbe matches each transaction of node.pending.action at
    # commit to the result of the Network.submit call that made it, by id();
    # blocks above keys.CHUNK_TRANSACTIONS are delivered a chunk at a time
    submitted, committed = set(), []
    submit, commit_pending = network.Network.submit, org.OrgNode.commit_pending

    def recorded_submit(net, client, sql):
        result = submit(net, client, sql)
        submitted.add(id(result))
        return result

    def recorded_commit(node, transcript):
        committed.extend(id(ct) for ct in node.pending.action.transactions)
        return commit_pending(node, transcript)

    monkeypatch.setattr(network.Network, "submit", recorded_submit)
    monkeypatch.setattr(org.OrgNode, "commit_pending", recorded_commit)
    size = 2 * keys.CHUNK_TRANSACTIONS + 5
    net = network.Network(network.NetworkConfig(
        [network.OrgConfig(org) for org in ("O1", "O2", "O3")], blocksize=size,
    ))
    rows = [(1, "c", f"INSERT INTO t (k) VALUES ({k});") for k in range(size)]
    net.run([(0, "c", "CREATE TABLE t (k INT, PRIMARY KEY (k));"), *rows])
    assert [node.height for node in net.nodes.values()] == [2, 2, 2]
    assert len(committed) == 3 * (1 + size) and set(committed) == submitted
