"""Block signatures are verified once each, by the worker process or by this
one: queued at receipt, sent to the worker from the front of the queue while
it is behind, verified here when a reader would wait, read in block order at
execution, and judged exactly as verify_chained_transaction judges each
transaction."""

import gc
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from effectledger import keys
from effectledger import org as org_module
from effectledger import scheduler
from effectledger.agreement import (
    AgreementPolicy,
    ChainedTransaction,
    TransactionProposal,
    collect_agreements,
    endorsers,
    make_agreement,
    make_proposal,
    verify_chained_transaction,
)
from effectledger.errors import VerifierUnavailable
from effectledger.keys import derive_private_key
from effectledger.network import Network, NetworkConfig, OrgConfig

from conftest import CLIENT, Cluster

SRC = str(Path(__file__).resolve().parent.parent / "src")
DDL = "CREATE TABLE acct (id INT, bal DECIMAL(12, 2), PRIMARY KEY (id));"
ROWS = "INSERT INTO acct (id, bal) VALUES " + ", ".join(f"({i}, 100)" for i in range(1, 11)) + ";"
# bank-endorsed style: the only table needs two organizations' agreement
POLICIES = {"acct": AgreementPolicy("acct", ("O2", "O3"))}
ORG_KEYS = {org: derive_private_key(f"test:{org}") for org in ("O1", "O2", "O3")}


def endorsed(cluster, sql, client=CLIENT, client_key=None):
    proposal = make_proposal(client, sql, client_key or cluster.client_key)
    evaluators = {org: node.evaluate_agreement for org, node in cluster.nodes.items()}
    return collect_agreements(proposal, endorsers(sql, POLICIES), evaluators)


def agreed_by_hand(proposal):
    """Valid agreements of O2 and O3 on a proposal whatever its signature."""
    return ChainedTransaction(
        proposal,
        tuple(make_agreement(org, proposal.digest(), True, ORG_KEYS[org]) for org in ("O2", "O3")),
    )


def mixed_transactions(cluster, count):
    """count transactions cycling through every way a transaction can pass or
    fail verification."""
    stranger_key = derive_private_key("test:stranger")

    def valid(i):
        return endorsed(cluster, f"UPDATE acct SET bal = bal + 1 WHERE id = {i % 10 + 1};")

    def forged_client(i):
        genuine = make_proposal(CLIENT, f"UPDATE acct SET bal = bal + 2 WHERE id = {i % 10 + 1};",
                                cluster.client_key)
        return agreed_by_hand(TransactionProposal(CLIENT, "DELETE FROM acct WHERE id = 1;",
                                                  genuine.signature))

    def unknown_client(i):
        return agreed_by_hand(make_proposal("stranger", f"DELETE FROM acct WHERE id = {i % 10 + 1};",
                                            stranger_key))

    def tampered_agreement(i):
        ct = valid(i)
        first, second = ct.agreements
        bad = type(first)(first.org, first.txn_digest, True, second.signature)
        return ChainedTransaction(ct.proposal, (bad, second))

    def refusing_agreement(i):
        ct = valid(i)
        first, second = ct.agreements
        refusal = make_agreement(first.org, first.txn_digest, False, ORG_KEYS[first.org])
        return ChainedTransaction(ct.proposal, (refusal, second))

    def stripped(i):
        return ChainedTransaction(valid(i).proposal, ())

    def unparseable(i):
        return ChainedTransaction(make_proposal(CLIENT, "UPDATE acct SET", cluster.client_key))

    kinds = [valid, forged_client, valid, unknown_client, tampered_agreement, valid,
             refusing_agreement, stripped, unparseable, valid]
    return tuple(kinds[i % len(kinds)](i) for i in range(count))


def seeded_cluster():
    cluster = Cluster(agreement_policies=POLICIES)
    action = org_module.Action(1, (endorsed(cluster, DDL), endorsed(cluster, ROWS)))
    for org, node in cluster.nodes.items():
        node.execute_action(action)
    for org, node in cluster.nodes.items():
        node.complete_round(cluster.peers_of(org), cluster.fetch_vote)
    assert cluster["O1"].ledger.block(1).successful == (True, True)
    return cluster


@pytest.fixture
def verification_failures(monkeypatch):
    """Per executed block, which transactions failed verification."""
    seen = []

    def captured(access_sets):
        seen.append([acc.parse_error == "agreement verification failed" for acc in access_sets])
        return scheduler.build_dependency_graph(access_sets)

    monkeypatch.setattr(org_module, "build_dependency_graph", captured)
    return seen


# more transactions than two chunks, and not a whole number of chunks
BLOCK_SIZE = 2 * keys.CHUNK_TRANSACTIONS + 11


@pytest.mark.parametrize("equivocated", [False, True])
def test_receipt_and_direct_execution_judge_like_verify_chained_transaction(
    verification_failures, equivocated
):
    cluster = seeded_cluster()
    transactions = mixed_transactions(cluster, BLOCK_SIZE)
    if equivocated:  # what an equivocating orderer delivers to its victim
        transactions = transactions[:-1]
    action = org_module.Action(2, transactions)
    expected = [
        verify_chained_transaction(ct, POLICIES, cluster.registry) is None for ct in transactions
    ]
    assert 0 < sum(expected) < len(expected)

    verification_failures.clear()
    received, direct = cluster["O1"], cluster["O2"]
    received.receive_action(action)
    assert received.executable_action() is action
    received.execute_action(action)
    direct.execute_action(action)

    assert verification_failures == [expected, expected]
    assert received.pending.block.successful == direct.pending.block.successful
    assert received.pending.effect_hash == direct.pending.effect_hash
    # unparseable SQL passes verification and fails to parse
    assert not direct.pending.block.successful[8]


def test_a_different_action_for_a_received_round_is_verified_anew(verification_failures):
    """The signatures sent at receipt belong to the received action; executing
    another action for that round (the shortened one of an equivocation)
    verifies that action's own signatures."""
    cluster = seeded_cluster()
    full = org_module.Action(2, mixed_transactions(cluster, 12))
    short = org_module.Action(2, full.transactions[:-2])
    node = cluster["O1"]
    verification_failures.clear()
    node.receive_action(full)
    node.execute_action(short)
    assert verification_failures == [
        [verify_chained_transaction(ct, POLICIES, cluster.registry) is None
         for ct in short.transactions]
    ]
    assert len(node.pending.block.successful) == len(short.transactions)


def test_signatures_are_sent_once_at_receipt(monkeypatch):
    cluster = seeded_cluster()
    action = org_module.Action(2, mixed_transactions(cluster, 5))
    sent = []
    original = org_module.OrgNode._verify_signatures

    def counted(node, act):
        sent.append((node.org_id, act.round_id))
        return original(node, act)

    monkeypatch.setattr(org_module.OrgNode, "_verify_signatures", counted)
    node = cluster["O1"]
    node.receive_action(action)
    node.receive_action(org_module.Action(2, action.transactions[:1]))  # ignored
    assert sent == [("O1", 2)]
    node.execute_action(action)
    assert sent == [("O1", 2)] and node.verifying == {}
    # a direct call with an action nobody queued verifies its signatures again
    node.pending = None
    node.execute_action(action)
    assert sent == [("O1", 2), ("O1", 2)]


@pytest.mark.parametrize("state", ["committed", "pending"])
def test_a_round_received_again_queues_nothing(state):
    """An action for a committed or pending round is ignored: it opens no
    Verdicts that nobody would read."""
    gc.collect()  # Verdicts of earlier tests' collected nodes leave the queue
    cluster = seeded_cluster()
    node = cluster["O1"]
    action = org_module.Action(2, mixed_transactions(cluster, 5))
    node.receive_action(action)
    node.execute_action(node.executable_action())
    if state == "committed":
        for peer in ("O2", "O3"):
            cluster[peer].execute_action(action)
        node.complete_round(cluster.peers_of("O1"), cluster.fetch_vote)
        assert node.height == 2
    for round_id in (1, 2):
        node.receive_action(org_module.Action(round_id, action.transactions))
    worker = keys.signature_worker()
    assert node.verifying == {}
    assert (len(worker._open), worker._jobs_left()) == (0, 0)


def test_verify_jobs_checks_every_signature_of_a_job():
    key = derive_private_key("test:jobs")
    raw = keys.public_bytes(key)
    good = (raw, keys.sign(key, b"m"), b"m")
    bad = (raw, keys.sign(key, b"m"), b"other")
    jobs = [(good,), (good, good), (good, bad), (bad, good), None, ()]
    assert keys.verify_jobs(jobs) == [True, True, False, False, False, True]


JOB_KEY = derive_private_key("test:jobs")
JOB_RAW = keys.public_bytes(JOB_KEY)


def check(message, signed=None):
    return (JOB_RAW, keys.sign(JOB_KEY, signed or message), message)


GOOD = (check(b"m"),)
FORGED = (check(b"m", b"other"),)
TRIPLE = (check(b"a"), check(b"b"), check(b"c"))
TRIPLE_FORGED = (check(b"a"), check(b"b"), check(b"c", b"x"))
# more than three chunks, and not a whole number of them
MIXED = [GOOD, FORGED, None, TRIPLE, TRIPLE_FORGED, ()] * 17
SERIAL = keys.verify_jobs


@pytest.fixture
def idle_worker():
    """The worker, with no Verdicts open and nothing in flight."""
    gc.collect()
    worker = keys.signature_worker()
    # answers come in the order requests were sent, so every earlier one is in
    assert list(worker.verify([GOOD])) == [True]
    assert not worker._open and not worker._waiting and worker._in_flight == 0
    return worker


@pytest.fixture
def verified_here(idle_worker, monkeypatch):
    """Sizes of the batches of jobs verified in this process."""
    sizes = []

    def counted(jobs, loaded=None):
        sizes.append(len(jobs))
        return SERIAL(jobs, loaded)

    monkeypatch.setattr(keys, "verify_jobs", counted)
    return sizes


def never_send(monkeypatch):
    monkeypatch.setattr(keys.SignatureWorker, "_send_while_behind", lambda worker: None)


def send_everything(monkeypatch):
    monkeypatch.setattr(keys.SignatureWorker, "_jobs_left", lambda worker: math.inf)


@pytest.mark.parametrize("sending", ["rule", "never", "everything"])
def test_verdicts_equal_serial_verification(sending, verified_here, monkeypatch):
    expected = SERIAL(MIXED)
    assert expected == [True, False, False, True, False, True] * 17
    if sending == "never":  # queued without being sent: this process verifies
        never_send(monkeypatch)
    elif sending == "everything":
        send_everything(monkeypatch)

    assert list(keys.signature_worker().verify(iter(MIXED))) == expected
    if sending == "never":
        assert sum(verified_here) == len(MIXED)
    elif sending == "everything":
        assert verified_here == []
    else:  # the first chunk always goes to the worker
        assert sum(verified_here) <= len(MIXED) - keys.CHUNK_TRANSACTIONS


def test_verdicts_dropped_unread_do_not_disturb_later_ones(idle_worker):
    worker = idle_worker
    dropped = worker.verify(MIXED)
    assert 0 < dropped._lo < len(MIXED)  # some jobs sent, some queued
    del dropped
    gc.collect()
    assert not worker._open  # its queued jobs went with it
    wanted = worker.verify([GOOD, FORGED, None] * keys.CHUNK_TRANSACTIONS)
    assert list(wanted) == [True, False, False] * keys.CHUNK_TRANSACTIONS
    assert not worker._open and not worker._waiting and worker._in_flight == 0


def test_one_signature_jobs_are_all_sent_at_receipt(idle_worker):
    jobs = [GOOD, FORGED, None, ()] * keys.CHUNK_TRANSACTIONS
    verdicts = idle_worker.verify(jobs)
    assert verdicts._lo == len(jobs)
    assert list(verdicts) == [True, False, False, True] * keys.CHUNK_TRANSACTIONS

    # an organization's block of client-signed transactions, as on a network
    # without agreement policies
    cluster = Cluster()
    action = cluster.action(1, *[DDL] * (2 * keys.CHUNK_TRANSACTIONS + 11))
    for node in cluster.nodes.values():
        node.receive_action(action)
        assert node.verifying[1][1]._lo == len(action.transactions)
    for node in cluster.nodes.values():
        node.execute_action(action)


def test_a_killed_worker_raises_with_jobs_queued():
    worker = keys.SignatureWorker()  # a worker of its own, not the process's
    try:
        os.kill(worker.pid, signal.SIGKILL)
        worker._process.join()
        with pytest.raises(VerifierUnavailable, match="is gone"):
            list(worker.verify(MIXED))
    finally:
        worker.close()


@pytest.mark.parametrize("sending", ["rule", "never"])
def test_the_block_pipeline_never_calls_keys_verify(sending, verified_here, monkeypatch):
    """keys.verify counts vote checks only, whichever process verifies a
    block's signatures or an endorser's client checks."""
    calls = {"pipeline": 0, "elsewhere": 0}
    executing = []
    original_verify = keys.verify
    original_execute = org_module.OrgNode.execute_action

    def counted_verify(*args):
        calls["pipeline" if executing else "elsewhere"] += 1
        return original_verify(*args)

    def marked_execute(node, action):
        executing.append(node.org_id)
        try:
            return original_execute(node, action)
        finally:
            executing.pop()

    monkeypatch.setattr(keys, "verify", counted_verify)
    monkeypatch.setattr(org_module.OrgNode, "execute_action", marked_execute)
    if sending == "never":
        never_send(monkeypatch)
    net = Network(NetworkConfig(
        orgs=[OrgConfig(org) for org in ("O1", "O2", "O3")],
        blocksize=40,
        agreement_policies={"acct": ["O2", "O3"]},
    ))
    updates = [(1, "alice", f"UPDATE acct SET bal = bal + 1 WHERE id = {i % 10 + 1};")
               for i in range(40)]
    try:
        net.run([(0, "alice", DDL), (0, "alice", ROWS), *updates])
    finally:
        net.close()

    assert [node.height for node in net.nodes.values()] == [2, 2, 2]
    assert all(net.node("O1").ledger.block(2).successful)
    assert calls["pipeline"] == 0 and calls["elsewhere"] > 0
    if sending == "never":
        # each organization's block checks, then O2's and O3's client checks
        assert sum(verified_here) == 3 * (2 + 40) + 2 * 42


# ---- the worker process's lifetime, in separate interpreters ----

ONE_BLOCK = """
    import os, sys
    from effectledger import keys, org
    from effectledger.agreement import ChainedTransaction, make_proposal
    from effectledger.keys import KeyRegistry, derive_private_key

    registry = KeyRegistry()
    client = derive_private_key("client")
    registry.register("client", client)

    def node():
        return org.OrgNode("O1", registry=registry)

    def action(round_id=1):
        sql = "CREATE TABLE t (k INT, PRIMARY KEY (k));"
        return org.Action(round_id, (ChainedTransaction(make_proposal("client", sql, client)),))
"""


def script(body, *flags):
    """The command that runs ONE_BLOCK followed by body in a new interpreter."""
    return [sys.executable, *flags, "-c", textwrap.dedent(ONE_BLOCK) + textwrap.dedent(body)]


ENV = dict(os.environ, PYTHONPATH=SRC)


def run_script(body, *flags):
    return subprocess.run(script(body, *flags), capture_output=True, text=True, timeout=60, env=ENV)


def gone(pid, timeout=10.0):
    """True once pid has exited (a zombie counts as exited)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            return True
        time.sleep(0.05)
    return False


def test_worker_ends_with_a_process_that_ends_abruptly():
    """The worker holds a copy of stdout; the pipe must still reach EOF once
    the main process is gone, and the worker must not outlive it."""
    proc = subprocess.Popen(script("""
        n = node()
        n.execute_action(action())
        assert n.pending.block.successful == (True,)
        print(keys.signature_worker().pid, flush=True)
        os._exit(0)
    """), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=ENV)
    worker_pid = int(proc.stdout.readline())
    try:
        rest, errors = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.kill(worker_pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("stdout stayed open after the main process ended")
    assert proc.returncode == 0 and rest == "" and errors == ""
    assert gone(worker_pid)


def test_a_dead_worker_makes_execution_raise():
    result = run_script("""
        import multiprocessing, signal, time
        from effectledger.errors import VerifierUnavailable

        def kill_worker():
            pid = keys.signature_worker().pid
            os.kill(pid, signal.SIGKILL)
            while pid in [p.pid for p in multiprocessing.active_children()]:
                time.sleep(0.01)

        received = node()
        received.receive_action(action())
        kill_worker()
        try:
            received.execute_action(received.executable_action())  # sent at receipt
        except VerifierUnavailable as exc:
            print("raised:", exc)
        else:
            sys.exit("reading verdicts of a dead worker did not raise")

        fresh = node()
        fresh.execute_action(action())  # the next use starts a new worker
        assert fresh.pending.block.successful == (True,)
        kill_worker()
        try:
            node().execute_action(action())  # sends to the dead worker
        except VerifierUnavailable:
            print("raised again")
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("raised: signature worker")
    assert result.stdout.endswith("raised again\n")
    assert result.stderr == ""


def test_worker_stops_cleanly_at_interpreter_exit():
    result = run_script("""
        n = node()
        n.receive_action(action())
        n.execute_action(n.executable_action())
        print(keys.signature_worker().pid)
    """, "-X", "dev")
    assert result.returncode == 0
    assert result.stderr == ""
    assert gone(int(result.stdout))


def test_cli_run_under_dev_mode_writes_nothing_to_stderr(tmp_path):
    config = tmp_path / "net.json"
    config.write_text('{"organizations": [{"id": "O1"}, {"id": "O2"}, {"id": "O3"}], "blocksize": 8}')
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "effectledger", "run", "--config", str(config),
         "--smallbank", "40", "--users", "16", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=ENV,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert "COMMIT" in result.stdout
