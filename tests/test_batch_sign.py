"""Batch signatures: a client signs the proposals of a chunk with one ECDSA
signature of a Merkle root, and each proposal's signature, the DER signature
followed by its proof, verifies alone, through keys.verify and
keys.verify_jobs alike; a batch of one is a plain signature.  Each memo,
one per worker request, per Verdicts or per endorser and chunk, verifies a
batch root once."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectledger import agreement, consensus, keys
from effectledger import org as org_module
from effectledger.agreement import ChainedTransaction, TransactionProposal
from effectledger.keys import derive_private_key
from effectledger.network import Network, NetworkConfig, OrgConfig, Orderer

from conftest import unread_verdicts

KEY = derive_private_key("test:batch")
RAW = keys.public_bytes(KEY)
OTHER_KEY = derive_private_key("test:batch other")
FORMAT = settings(max_examples=40, deadline=None, derandomize=True)

# distinct messages, never empty, as a batch of proposal payloads would be
batches = st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=70, unique=True)


def ok(signature, message):
    """The verdict of both verification paths, which must agree."""
    alone = keys.verify(RAW, signature, message)
    assert keys.verify_jobs([((RAW, signature, message),)]) == [alone]
    return alone


def der_of(signature):
    return signature[: 2 + signature[1]]


def proof_of(signature):
    return signature[2 + signature[1] :]


@FORMAT
@given(batches)
def test_every_signature_of_a_batch_verifies_alone(messages):
    signatures = keys.sign_batch(KEY, messages)
    assert len(signatures) == len(messages)
    for signature, message in zip(signatures, messages):
        assert ok(signature, message)
    if len(messages) == 1:
        assert signatures == [keys.sign(KEY, messages[0])]
    else:
        assert len({der_of(signature) for signature in signatures}) == 1


def test_batch_sizes_one_to_seventy_share_one_root_each():
    for size in range(1, 71):
        messages = [b"payload %d" % i for i in range(size)]
        signatures = keys.sign_batch(KEY, messages)
        memo = {}
        jobs = [((RAW, s, m),) for s, m in zip(signatures, messages)]
        assert keys.verify_jobs(jobs, memo=memo) == [True] * size
        assert len(memo) == 1
        head = proof_of(signatures[-1])[:8]
        if size > 1:
            assert struct.unpack(">II", head) == (size - 1, size)


@FORMAT
@given(batches.filter(lambda m: len(m) > 1), st.data())
def test_flipping_any_byte_of_the_signature_or_the_payload_fails(messages, data):
    signatures = keys.sign_batch(KEY, messages)
    i = data.draw(st.integers(0, len(messages) - 1), label="leaf")
    signature, message = signatures[i], messages[i]
    mask = data.draw(st.integers(1, 255), label="mask")
    at = data.draw(st.integers(0, len(signature) - 1), label="signature byte")
    flipped = bytearray(signature)
    flipped[at] ^= mask
    assert not ok(bytes(flipped), message)
    at = data.draw(st.integers(0, len(message) - 1), label="payload byte")
    flipped = bytearray(message)
    flipped[at] ^= mask
    assert not ok(signature, bytes(flipped))


@pytest.mark.parametrize("size", [2, 3, 5, 11, 32, 70])
def test_each_part_of_a_proof_is_bound(size):
    """Flipping each byte of the DER signature, the index, the count and
    each sibling, one at a time, fails."""
    messages = [b"payload %d" % i for i in range(size)]
    signatures = keys.sign_batch(KEY, messages)
    for i in sorted({0, size // 2, size - 1}):
        signature = signatures[i]
        for at in range(len(signature)):
            flipped = bytearray(signature)
            flipped[at] ^= 0x01
            assert not keys.verify(RAW, bytes(flipped), messages[i])


@FORMAT
@given(batches.filter(lambda m: len(m) > 1), batches.filter(lambda m: len(m) > 1))
def test_a_proof_moved_to_another_leaf_or_batch_fails(messages, others):
    signatures = keys.sign_batch(KEY, messages)
    foreign = keys.sign_batch(KEY, others)
    for i, signature in enumerate(signatures):
        assert not ok(signature, messages[(i + 1) % len(messages)])
        j = i % len(others)
        if others[j] != messages[i]:
            assert not ok(signature, others[j])
        # this batch's root signature with the other batch's proof
        moved = der_of(signature) + proof_of(foreign[j])
        if set(messages) != set(others):
            assert not ok(moved, others[j])
            assert not ok(moved, messages[i])


@pytest.mark.parametrize("size", [2, 3, 4, 7, 32])
def test_adding_or_dropping_a_sibling_fails(size):
    messages = [b"payload %d" % i for i in range(size)]
    for signature, message in zip(keys.sign_batch(KEY, messages), messages):
        assert not ok(signature + signature[-32:], message)
        assert not ok(signature + bytes(32), message)
        assert not ok(signature[:-32], message)
        assert not ok(signature[:-1], message)


def test_a_proof_with_a_count_of_one_fails_even_when_its_root_is_signed():
    message = b"payload"
    leaf = keys._leaf(message)
    der = keys.sign(KEY, keys._root_message(1, leaf))
    assert not ok(der + struct.pack(">II", 0, 1), message)
    # the same message in a batch of two verifies
    assert ok(keys.sign_batch(KEY, [message, b"mate"])[0], message)


@FORMAT
@given(batches.filter(lambda m: len(m) > 1))
def test_root_and_payload_signatures_never_pass_for_each_other(messages):
    signatures = keys.sign_batch(KEY, messages)
    root_signature = der_of(signatures[0])
    for i, (signature, message) in enumerate(zip(signatures, messages)):
        index, count = struct.unpack_from(">II", proof_of(signature))
        assert (index, count) == (i, len(messages))
        # the root signature alone passes for no payload
        assert not ok(root_signature, message)
        # a payload's own signature, with the proof, passes for no root
        assert not ok(keys.sign(KEY, message) + proof_of(signature), message)
    # nor for the tagged root message itself, as a payload
    root = keys._tree([keys._leaf(m) for m in messages])[0]
    root_message = keys._root_message(len(messages), root)
    assert keys.verify(RAW, root_signature, root_message) is False
    assert root_message.startswith(b"\xff\xff\xff\xff")


def test_no_length_prefixed_payload_starts_with_the_root_tag():
    for payload in (
        agreement.proposal_payload("client", "SELECT 1;"),
        agreement.agreement_payload("O1", bytes(32), True),
        consensus.HashVote("O1", 1, bytes(32)).signed_payload(),
    ):
        assert not payload.startswith(keys.ROOT_TAG[:4])


def test_a_signature_by_another_key_fails():
    messages = [b"a", b"b", b"c"]
    for signature, message in zip(keys.sign_batch(OTHER_KEY, messages), messages):
        assert not ok(signature, message)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.binary(max_size=300), st.binary(max_size=64))
def test_arbitrary_signature_bytes_give_false_and_never_raise(signature, message):
    assert ok(signature, message) is False


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.binary(max_size=40), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.lists(st.binary(min_size=32, max_size=32), max_size=8))
def test_arbitrary_proofs_after_a_real_root_signature_give_false(message, index, count, path):
    der = der_of(keys.sign_batch(KEY, [b"x", b"y"])[0])
    signature = der + struct.pack(">II", index, count) + b"".join(path)
    assert ok(signature, message) is False


# ---- the pipeline: a Network signs each client's proposals of a chunk as one batch ----

CLIENTS = ("alice", "bob", "carol")
DDL = "CREATE TABLE acct (id INT, bal DECIMAL(12, 2), PRIMARY KEY (id));"
ROWS = "INSERT INTO acct (id, bal) VALUES " + ", ".join(f"({i}, 100)" for i in range(1, 11)) + ";"
CHUNK = keys.CHUNK_TRANSACTIONS


def chunk_of_updates(tick=1):
    return [
        (tick, CLIENTS[i % 3], f"UPDATE acct SET bal = bal + {i + 1} WHERE id = {i % 10 + 1};")
        for i in range(CHUNK)
    ]


def network(**over):
    return Network(NetworkConfig(
        orgs=[OrgConfig(org) for org in ("O1", "O2", "O3")], blocksize=CHUNK, **over
    ))


def test_a_chunk_is_signed_once_per_client(monkeypatch):
    signed = []
    sign = keys.sign

    def counted(private_key, message):
        signed.append(message)
        return sign(private_key, message)

    monkeypatch.setattr(keys, "sign", counted)
    net = network()
    net.run([(0, "alice", DDL), (0, "alice", ROWS)])
    roots_before = sum(m.startswith(keys.ROOT_TAG) for m in signed)
    assert roots_before == 1  # alice's two set-up proposals
    signed.clear()
    net.run(chunk_of_updates())
    assert [node.height for node in net.nodes.values()] == [2, 2, 2]
    roots = [m for m in signed if m.startswith(keys.ROOT_TAG)]
    assert len(roots) == 3  # one per client; the rest are votes
    assert sorted(struct.unpack_from(">I", m, len(keys.ROOT_TAG))[0] for m in roots) == [
        10, 11, 11
    ]


def test_a_proposal_swapped_after_batch_signing_fails_alone(monkeypatch):
    """Its batch mates commit; only the swapped transaction gets bit 0."""
    net = network()
    net.run([(0, "alice", DDL), (0, "alice", ROWS)])
    chunk = chunk_of_updates()
    target, swapped = chunk[7][2], "DELETE FROM acct WHERE id = 1;"  # bob's third
    submit = Orderer.submit

    def swapping(orderer, ct, tick):
        proposal = ct.proposal
        if proposal.sql == target:
            proposal = TransactionProposal(proposal.client, swapped, proposal.signature)
            ct = ChainedTransaction(proposal, ct.agreements)
        return submit(orderer, ct, tick)

    monkeypatch.setattr(Orderer, "submit", swapping)
    net.run(chunk)
    assert [node.height for node in net.nodes.values()] == [2, 2, 2]
    block = net.node("O1").ledger.block(2)
    bad = [i for i, rec in enumerate(block.transactions) if rec.sql == swapped]
    assert bad == [7]
    assert block.successful == tuple(i not in bad for i in range(CHUNK))
    assert len({node.ledger.head_hash() for node in net.nodes.values()}) == 1


def signed_chunk():
    """One chunk of proposals from three clients, each client's signed as
    one batch, as Network._prepare signs them."""
    net = network()
    net.run([(0, "alice", DDL), (0, "alice", ROWS)])
    entries = [(client, sql) for _, client, sql in chunk_of_updates()]
    return net, [proposal for proposal, _, _ in net._prepare(entries)]


@pytest.fixture
def idle_worker():
    worker = keys.signature_worker()
    assert list(worker.verify([()])) == [True]
    assert not unread_verdicts() and not worker._waiting
    return worker


def counts(worker):
    return worker.worker_signatures, worker.here_signatures


def endorse(node, proposals, memo):
    return [node.evaluate_agreement(proposal, memo).verdict for proposal in proposals]


def test_an_endorser_verifies_a_chunk_with_one_verification_per_client(idle_worker):
    """An organization that endorses the chunk's 32 proposals with its memo
    for the chunk runs 3 ECDSA verifications, in place, and another
    organization with its own memo 3 more: no verdict passes between them."""
    net, proposals = signed_chunk()
    for org in ("O1", "O2"):
        before = counts(idle_worker)
        assert endorse(net.node(org), proposals, {}) == [True] * CHUNK
        assert counts(idle_worker) == (before[0], before[1] + 3)


def test_a_forged_member_costs_one_more_verification(idle_worker):
    net, proposals = signed_chunk()
    forged = proposals[4]
    proposals[4] = TransactionProposal(forged.client, "DELETE FROM acct;", forged.signature)
    before = counts(idle_worker)
    assert endorse(net.node("O1"), proposals, {}) == [i != 4 for i in range(CHUNK)]
    assert counts(idle_worker) == (before[0], before[1] + 4)


def test_each_endorser_of_a_run_verifies_each_client_root_once_per_chunk(
    idle_worker, monkeypatch
):
    """Through Network.run, each endorser of a chunk from three clients runs
    3 ECDSA verifications, with one memo of its own: no two organizations
    share a memo, so no verdict passes between them."""
    net = network(agreement_policies={"acct": ["O1", "O2"]})
    net.run([(0, "alice", DDL), (0, "alice", ROWS)])
    memos, verified = {}, {"O1": 0, "O2": 0}
    evaluate = org_module.OrgNode.evaluate_agreement

    def recorded(node, proposal, memo=None):
        memos.setdefault(node.org_id, []).append(memo)
        before = idle_worker.here_signatures
        agreement = evaluate(node, proposal, memo)
        verified[node.org_id] += idle_worker.here_signatures - before
        return agreement

    monkeypatch.setattr(org_module.OrgNode, "evaluate_agreement", recorded)
    net.run(chunk_of_updates())
    assert [node.height for node in net.nodes.values()] == [2, 2, 2]
    assert verified == {"O1": 3, "O2": 3}
    first, second = memos["O1"][0], memos["O2"][0]
    assert first is not second
    assert all(memo is first for memo in memos["O1"]) and len(memos["O1"]) == CHUNK
    assert all(memo is second for memo in memos["O2"]) and len(memos["O2"]) == CHUNK


def test_each_endorser_signs_its_agreements_on_a_chunk_once(idle_worker, monkeypatch):
    """Through Network.run, O1 and O2 each endorse a chunk from three
    clients with one ECDSA signature, and the run verifies fewer ECDSA
    signatures than it commits transactions.  Each agreement of the batch
    verifies alone, a forged one does not, and a proposal submitted
    without being prepared is endorsed with a plain signature."""
    net = network(agreement_policies={"acct": ["O1", "O2"]})
    net.run([(0, "alice", DDL), (0, "alice", ROWS)])
    names = {keys.public_bytes(net.node(org).private_key): org for org in ("O1", "O2", "O3")}
    signers, agreements = [], {"O1": [], "O2": []}
    sign = keys.sign
    evaluate = org_module.OrgNode.evaluate_agreement

    def counted(private_key, message):
        signers.append((names.get(keys.public_bytes(private_key), "client"), message[:4]))
        return sign(private_key, message)

    def recorded(node, proposal, memo=None):
        agreements[node.org_id].append(evaluate(node, proposal, memo))
        return agreements[node.org_id][-1]

    monkeypatch.setattr(keys, "sign", counted)
    monkeypatch.setattr(org_module.OrgNode, "evaluate_agreement", recorded)
    before = sum(counts(idle_worker))
    net.run(chunk_of_updates())
    assert [node.height for node in net.nodes.values()] == [2, 2, 2]
    # one batch root per endorser and per client, and one vote per organization
    tag = keys.ROOT_TAG[:4]
    assert sorted(who for who, head in signers if head == tag) == [
        "O1", "O2", "client", "client", "client"
    ]
    assert sorted(who for who, head in signers if head != tag) == ["O1", "O2", "O3"]
    assert sum(counts(idle_worker)) - before <= CHUNK  # at most 1.0 per committed transaction

    raw = net.registry.encoded_key("O2")
    signed = agreements["O2"]
    assert len(signed) == CHUNK and len({der_of(a.signature) for a in signed}) == 1
    member = signed[5]
    forged = agreement.Agreement("O2", signed[6].txn_digest, True, member.signature)
    assert keys.verify_jobs([((raw, member.signature, member.signed_payload()),)]) == [True]
    assert keys.verify_jobs([((raw, forged.signature, forged.signed_payload()),)]) == [False]

    alone = net.submit("alice", "UPDATE acct SET bal = bal + 1 WHERE id = 1;")
    assert [a.org for a in alone.agreements] == ["O1", "O2"]
    for a in alone.agreements:
        assert a.signature == keys.sign(net.node(a.org).private_key, a.signed_payload())


def test_a_reader_verifies_each_root_once_per_verdicts(idle_worker, monkeypatch):
    """With nothing sent to the worker, the reader of each Verdicts verifies
    each batch root once, and a second Verdicts of the same jobs again."""
    monkeypatch.setattr(keys, "_REQUESTS_AHEAD", 0)
    net, proposals = signed_chunk()
    registry = net.registry
    jobs = [
        ((registry.encoded_key(p.client), p.signature, p.signed_payload()),) for p in proposals
    ]
    for _ in range(2):
        before = counts(idle_worker)
        assert list(idle_worker.verify(jobs)) == [True] * CHUNK
        assert counts(idle_worker) == (before[0], before[1] + 3)


def test_batch_signing_keeps_the_ledger_bytes():
    """The signatures never reach the ledger: a run signed one proposal at
    a time commits the same bytes."""
    schedule = [(0, "alice", DDL), (0, "alice", ROWS), *chunk_of_updates(), *chunk_of_updates(2)]
    batched = network()
    batched.run(schedule)
    one_by_one = network()

    def alone(client, sqls, key):
        return [
            TransactionProposal(client, sql, keys.sign(key, agreement.proposal_payload(client, sql)))
            for sql in sqls
        ]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agreement, "make_proposals", alone)
        one_by_one.run(schedule)
    for org in ("O1", "O2", "O3"):
        assert batched.node(org).ledger.to_bytes() == one_by_one.node(org).ledger.to_bytes()
    assert batched.report.to_text() == one_by_one.report.to_text()
