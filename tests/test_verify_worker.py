"""Block signatures are verified once each, by the worker process or by this
one: queued as the block is delivered, sent to the worker in turn, verified
here by a reader that would otherwise wait, read in block order at
execution, and judged exactly as verify_chained_transaction judges each
transaction."""

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
from effectledger.network import RECOVER_DONE, Network, NetworkConfig, OrgConfig

from conftest import CLIENT, Cluster, unread_verdicts

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


def verification_failures(block_errors):
    """Per executed block, which transactions failed verification."""
    return [[e == "agreement verification failed" for e in errors] for errors in block_errors]


# more transactions than two chunks, and not a whole number of chunks
BLOCK_SIZE = 2 * keys.CHUNK_TRANSACTIONS + 11


@pytest.mark.parametrize("equivocated", [False, True])
def test_receipt_and_direct_execution_judge_like_verify_chained_transaction(
    block_errors, equivocated
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

    block_errors.clear()
    received, direct = cluster["O1"], cluster["O2"]
    received.receive_action(action)
    assert received.executable_action() is action
    received.execute_action(action)
    direct.execute_action(action)

    assert verification_failures(block_errors) == [expected, expected]
    assert received.pending.block.successful == direct.pending.block.successful
    assert received.pending.effect_hash == direct.pending.effect_hash
    # unparseable SQL passes verification and fails to parse
    assert not direct.pending.block.successful[8]


def test_a_different_action_for_a_received_round_is_verified_anew(block_errors):
    """The signatures sent at receipt belong to the received action; executing
    another action for that round (the shortened one of an equivocation)
    verifies that action's own signatures."""
    cluster = seeded_cluster()
    full = org_module.Action(2, mixed_transactions(cluster, 12))
    short = org_module.Action(2, full.transactions[:-2])
    node = cluster["O1"]
    block_errors.clear()
    node.receive_action(full)
    node.execute_action(short)
    assert verification_failures(block_errors) == [
        [verify_chained_transaction(ct, POLICIES, cluster.registry) is None
         for ct in short.transactions]
    ]
    assert len(node.pending.block.successful) == len(short.transactions)


def test_signatures_are_sent_once_at_receipt(monkeypatch):
    cluster = seeded_cluster()
    action = org_module.Action(2, mixed_transactions(cluster, 5))
    sent = []
    original = org_module.OrgNode._verify_signatures

    def counted(node, act, *forming):
        sent.append((node.org_id, act.round_id))
        return original(node, act, *forming)

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
    assert node.verifying == {}
    assert not unread_verdicts()


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
    """The worker, with no Verdicts unread and nothing in flight."""
    worker = keys.signature_worker()
    # answers come in the order requests were sent, so every earlier one is in
    assert list(worker.verify([GOOD])) == [True]
    assert not unread_verdicts() and not worker._waiting
    return worker


@pytest.fixture
def verified_here(idle_worker, monkeypatch):
    """Sizes of the batches of jobs verified in this process."""
    sizes = []

    def counted(jobs, *caches):
        sizes.append(len(jobs))
        return SERIAL(jobs, *caches)

    monkeypatch.setattr(keys, "verify_jobs", counted)
    return sizes


def send_nothing(monkeypatch):
    """Keep the worker no request ahead: readers verify every paced job."""
    monkeypatch.setattr(keys, "_REQUESTS_AHEAD", 0)


@pytest.mark.parametrize("sending", ["rule", "never"])
def test_verdicts_equal_serial_verification(sending, verified_here, monkeypatch):
    expected = SERIAL(MIXED)
    assert expected == [True, False, False, True, False, True] * 17
    if sending == "never":  # nothing sent: this process verifies
        send_nothing(monkeypatch)

    worker = keys.signature_worker()
    assert list(worker.verify(iter(MIXED))) == expected
    assert not worker._open  # read to the end: nothing left to send
    if sending == "never":
        assert verified_here == [1] * len(MIXED)


def distinct_jobs(count):
    """count jobs of one or three signatures, no two alike, some forged."""
    kinds = [
        lambda i: (check(b"%d" % i),),
        lambda i: (check(b"%d" % i, b"forged"),),
        lambda i: (check(b"%d a" % i), check(b"%d b" % i), check(b"%d c" % i)),
        lambda i: (check(b"%d a" % i), check(b"%d b" % i), check(b"%d c" % i, b"x")),
    ]
    return [kinds[i % len(kinds)](i) for i in range(count)]


class RecordingPipe:
    """The main process's end of the worker's pipe, keeping every job sent."""

    def __init__(self, conn):
        self.conn = conn
        self.sent = []

    def send(self, jobs):
        self.sent.extend(jobs)
        self.conn.send(jobs)

    def __getattr__(self, name):
        return getattr(self.conn, name)


class Unanswered:
    """A poller that reports no answer ready, so that what was sent stays
    in flight until a reader waits for it."""

    def poll(self, timeout):
        return []


@pytest.fixture
def recorded(idle_worker, monkeypatch):
    """The jobs sent to the worker and the jobs verified here, in order."""
    pipe = RecordingPipe(idle_worker._conn)
    monkeypatch.setattr(idle_worker, "_conn", pipe)
    here = []

    def verified(jobs, *caches):
        here.extend(jobs)
        return SERIAL(jobs, *caches)

    monkeypatch.setattr(keys, "verify_jobs", verified)
    return pipe.sent, here


# more chunks than the worker is kept requests ahead by
PACED_CHUNKS = keys._REQUESTS_AHEAD + 2


@pytest.mark.parametrize("reader_s", [0.0, 2e-3], ids=["fast", "slow"])
def test_each_job_is_verified_once_under_a_fast_and_a_slow_reader(
    reader_s, idle_worker, recorded
):
    """A reader that would wait verifies jobs not yet sent; one slower than
    the worker mostly finds its verdicts ready.  Either way the verdicts
    equal serial verification, and every job is verified exactly once, in
    one of the two processes."""
    worker, (sent, here) = idle_worker, recorded
    jobs = distinct_jobs(PACED_CHUNKS * keys.CHUNK_TRANSACTIONS + 5)
    signatures = sum(len(job) for job in jobs)
    counts = worker.worker_signatures, worker.here_signatures
    seconds = worker.worker_seconds, worker.here_seconds

    read = []
    for verdict in worker.verify(jobs):
        read.append(verdict)
        time.sleep(reader_s)

    assert read == SERIAL(jobs) == [True, False] * (len(jobs) // 2) + [True]
    assert sorted(sent + here) == sorted(jobs)
    assert len(set(map(id, sent + here))) == len(jobs)
    assert (worker.worker_signatures - counts[0]) + (worker.here_signatures - counts[1]) == (
        signatures
    )
    assert sent and worker.worker_seconds > seconds[0]
    if here:
        assert worker.here_seconds > seconds[1]


def test_a_reader_that_would_wait_verifies_the_next_job_not_yet_sent(
    idle_worker, recorded, monkeypatch
):
    """With no answer ready, the reader of a Verdicts whose verdicts are in
    flight verifies, one at a time, the jobs _top_up would send next, from
    the front of the oldest Verdicts with jobs not yet sent, whichever
    Verdicts they belong to; never a job already sent.  It waits only once
    none is left."""
    worker, (sent, here) = idle_worker, recorded
    monkeypatch.setattr(worker, "_answers", Unanswered())
    chunk = keys.CHUNK_TRANSACTIONS
    jobs = distinct_jobs((PACED_CHUNKS + 3) * chunk)
    first, second, third = jobs[: 2 * chunk], jobs[2 * chunk : -chunk], jobs[-chunk:]
    read_first = worker.verify(first)
    read_second = worker.verify(second)
    read_third = worker.verify(third)
    ahead = keys._REQUESTS_AHEAD * chunk
    assert sent == jobs[:ahead] and here == []

    assert list(read_first) == SERIAL(first)
    assert here == jobs[ahead:]  # in order, none of them sent
    assert sent == jobs[:ahead]
    assert list(read_second) == SERIAL(second) and list(read_third) == SERIAL(third)
    assert sent == jobs[:ahead] and not worker._waiting


@pytest.mark.parametrize(
    "chunks", [1, 2, keys._REQUESTS_AHEAD, keys._REQUESTS_AHEAD + 1, PACED_CHUNKS]
)
def test_the_worker_is_kept_requests_ahead(chunks, idle_worker, monkeypatch):
    """After _top_up, min(_REQUESTS_AHEAD, requests not yet sent) requests
    are in flight."""
    monkeypatch.setattr(idle_worker, "_answers", Unanswered())
    jobs = [GOOD, TRIPLE] * (chunks * keys.CHUNK_TRANSACTIONS // 2)
    verdicts = idle_worker.verify(jobs)
    idle_worker._top_up()
    assert len(idle_worker._waiting) == min(keys._REQUESTS_AHEAD, chunks)
    assert list(verdicts) == SERIAL(jobs)


@pytest.mark.parametrize("sending", ["paced", "at once", "never"])
def test_the_signature_counts_grow_by_the_signatures_queued(sending, idle_worker, monkeypatch):
    """worker_signatures + here_signatures grows by exactly the signatures
    of the jobs read; jobs sent at once are all verified by the worker, and
    with nothing sent, all here."""
    worker = idle_worker
    if sending == "never":
        send_nothing(monkeypatch)
    jobs = distinct_jobs(PACED_CHUNKS * keys.CHUNK_TRANSACTIONS + 5) + [None, ()]
    signatures = sum(len(job or ()) for job in jobs)
    counts = worker.worker_signatures, worker.here_signatures

    assert list(worker.verify(jobs, at_once=sending == "at once")) == SERIAL(jobs)
    by_worker = worker.worker_signatures - counts[0]
    by_here = worker.here_signatures - counts[1]
    assert by_worker + by_here == signatures
    if sending == "at once":
        assert by_here == 0
    if sending == "never":
        assert by_worker == 0


def test_a_forming_verdicts_stays_open_until_its_last_jobs_are_read(idle_worker):
    """A Verdicts with every job so far sent, but more to come, keeps its
    turn in _open; once its last jobs came and were read, it leaves."""
    worker = idle_worker
    chunk = keys.CHUNK_TRANSACTIONS
    first, rest = distinct_jobs(chunk), distinct_jobs(2 * chunk)[chunk:]
    forming = worker.verify(first, forming=True)
    assert forming._sent == len(first)
    worker._top_up()
    assert [ref() for ref in worker._open] == [forming]

    forming.extend(rest)
    assert list(forming) == SERIAL(first + rest)
    assert not worker._open and not worker._waiting


def test_client_checks_are_sent_at_once_and_their_endorser_verifies_block_jobs(
    idle_worker, monkeypatch
):
    """A batch of client checks is sent whole, behind the requests in
    flight and ahead of a block's jobs not yet sent; an endorser waiting on
    its check, with no answer ready, verifies those block jobs instead."""
    cluster = seeded_cluster()
    node = cluster["O1"]
    chunk = keys.CHUNK_TRANSACTIONS
    action = org_module.Action(2, mixed_transactions(cluster, PACED_CHUNKS * chunk))
    monkeypatch.setattr(idle_worker, "_answers", Unanswered())
    node.receive_action(action)
    block = node.verifying[2][1]
    assert block._sent == keys._REQUESTS_AHEAD * chunk < len(block._jobs)
    proposals = [
        make_proposal(CLIENT, f"UPDATE acct SET bal = bal + 1 WHERE id = {i % 10 + 1};",
                      cluster.client_key)
        for i in range(chunk)
    ]
    checks = node.client_checks(proposals)
    assert len(idle_worker._waiting) == keys._REQUESTS_AHEAD + 1
    assert block._sent < len(block._jobs)

    assert [next(verdicts) for _, verdicts in checks] == [True] * len(proposals)
    assert block._sent == len(block._jobs)  # verified while the endorser waited
    assert list(block) == SERIAL(block._jobs)


def test_verdicts_dropped_unread_do_not_disturb_later_ones(idle_worker, monkeypatch):
    """A Verdicts dropped with jobs in flight and jobs not yet sent leaves
    the queue; the answers to its requests are discarded."""
    worker = idle_worker
    dropped = worker.verify(MIXED * 2)
    assert 0 < dropped._sent < len(dropped._jobs)  # some sent, some not
    del dropped
    assert not unread_verdicts()  # its unsent jobs went with it
    wanted = worker.verify([GOOD, FORGED, None] * keys.CHUNK_TRANSACTIONS)
    assert list(wanted) == [True, False, False] * keys.CHUNK_TRANSACTIONS
    del wanted  # read to the end
    assert not unread_verdicts() and not worker._waiting and not worker._open


@pytest.mark.parametrize("corrupted", [False, True], ids=["steady", "O3 corrupted"])
def test_a_network_run_leaves_nothing_queued(corrupted, idle_worker):
    """Once every block of a run is read, no Verdicts is left to send from
    and no request is in flight, also after an organization recovers."""
    net = Network(NetworkConfig(
        orgs=[OrgConfig(org) for org in ("O1", "O2", "O3")],
        blocksize=40,
        agreement_policies={"acct": ["O2", "O3"]},
    ))
    updates = [(tick, "alice", f"UPDATE acct SET bal = bal + 1 WHERE id = {i % 10 + 1};")
               for tick in (1, 2) for i in range(40)]
    faults = [{"kind": "corrupt_row", "at_tick": 2, "org": "O3", "table": "acct", "pk": [1],
               "column": "bal", "value": "999.99"}] if corrupted else []
    try:
        report = net.run([(0, "alice", DDL), (0, "alice", ROWS), *updates], faults)
    finally:
        net.close()
    assert [node.height for node in net.nodes.values()] == [3, 3, 3]
    assert bool(report.events("O3", RECOVER_DONE)) == corrupted
    assert not idle_worker._open and not idle_worker._waiting


@pytest.mark.parametrize("at_once", [False, True], ids=["paced", "at once"])
def test_a_killed_worker_raises_with_jobs_queued(at_once):
    worker = keys.SignatureWorker()  # a worker of its own, not the process's
    try:
        os.kill(worker.pid, signal.SIGKILL)
        worker._process.join()
        with pytest.raises(VerifierUnavailable, match="is gone"):
            list(worker.verify(MIXED, at_once=at_once))
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
        send_nothing(monkeypatch)
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
        # each organization's block checks; O2's and O3's client checks are
        # sent at once
        assert sum(verified_here) == 3 * (2 + 40)


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
