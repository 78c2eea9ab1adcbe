"""Endorsement in chunks: Network.run prepares each tick's proposals
keys.CHUNK_TRANSACTIONS at a time, then submits the chunk, and each required
live endorser verifies its client check in place, with its memo for the
chunk.  The outcome equals submitting every proposal on its own, a retired
organization is never asked, and nothing is left prepared behind a tick or
a run."""

import pytest

from effectledger import agreement, keys
from effectledger import org as org_module
from effectledger.engine.parser import PlanCache
from effectledger.keys import derive_private_key
from effectledger.network import KILL, REJECT, FaultEvent, Network, NetworkConfig, OrgConfig

from conftest import unread_verdicts

CHUNK = keys.CHUNK_TRANSACTIONS
DDL = [
    "CREATE TABLE acct (id INT, bal DECIMAL(12, 2), PRIMARY KEY (id));",
    "CREATE TABLE sav (id INT, bal DECIMAL(12, 2), PRIMARY KEY (id));",
    "INSERT INTO acct (id, bal) VALUES (3, 300), (1, 100), (2, 200);",
    "INSERT INTO sav (id, bal) VALUES (1, 10), (2, 20), (3, 30);",
]
CONFIG = dict(
    min_matching=2,
    blocksize=64,
    agreement_policies={"acct": ["O1", "O2"], "sav": ["O2", "O3"]},
    # O1 refuses updates of acct row 3
    predicates={"O1": {"acct": ["T.id <= 2"]}, "O3": {"sav": ["T.id >= 1"]}},
)
KILL_O3 = {"at_tick": 2, "kind": "kill_org", "org": "O3"}


def update(table, i):
    return f"UPDATE {table} SET bal = bal + 1 WHERE id = {i % 3 + 1};"


def proposals(tick, count):
    """count proposals cycling through a valid client on either table, a
    client whose signatures do not verify (mallory) and one the registry
    does not know (ghost)."""
    clients = ("alice", "alice", "mallory", "alice", "ghost")
    tables = ("acct", "sav", "acct", "sav", "sav")
    return [(tick, clients[i % 5], update(tables[i % 5], i)) for i in range(count)]


# tick 1 spans more than three chunks, and not a whole number of them; O3
# is killed at tick 2, so every sav update of tick 2 finds it unreachable
SCHEDULE = [(0, "alice", sql) for sql in DDL] + proposals(1, 3 * CHUNK + 9) + proposals(2, 40)


def network():
    net = Network(NetworkConfig(orgs=[OrgConfig(f"O{i}") for i in (1, 2, 3)], **CONFIG))
    net.client_key("mallory")
    net.registry.register("mallory", derive_private_key("not mallory"))
    net._client_keys["ghost"] = derive_private_key("ghost")
    net._client_plans["ghost"] = PlanCache()
    return net


def outcome(net):
    report = net.run(SCHEDULE, [KILL_O3])
    return report.to_text(), {org: node.ledger.to_bytes() for org, node in net.nodes.items()}


@pytest.fixture
def batches(monkeypatch):
    """Sizes of the chunks of proposals prepared."""
    sizes = []
    prepare = Network._prepare

    def counted(net, entries):
        sizes.append(len(entries))
        return prepare(net, entries)

    monkeypatch.setattr(Network, "_prepare", counted)
    return sizes


def test_batched_run_equals_one_submit_at_a_time(batches, monkeypatch):
    batched = outcome(network())
    assert max(batches) == CHUNK

    batches.clear()
    monkeypatch.setattr(
        Network, "_submit_due", lambda net, due: [net.submit(client, sql) for client, sql in due]
    )
    assert outcome(network()) == batched
    assert set(batches) == {1}

    report, _ = batched
    rejects = [line.split("\t") for line in report.splitlines() if f"\t{REJECT}\t" in line]
    refused = [
        (tick, client, sql) for tick, client, sql in SCHEDULE
        if client != "alice" or sql.startswith("UPDATE acct") and sql.endswith("id = 3;")
        or tick == 2 and sql.startswith("UPDATE sav")
    ]
    assert len(rejects) == len(refused)
    # the dissenting organizations: forged or unknown clients and O1's
    # predicate at tick 1, O3 unreachable at tick 2 as well
    assert {(tick, org) for tick, org, _, _ in rejects} == {
        ("1", "O1"), ("1", "O2"), ("2", "O1"), ("2", "O2"), ("2", "O3")
    }


def test_signing_a_chunk_as_one_batch_changes_no_verdict(monkeypatch):
    """SCHEDULE's run, with forged and unknown clients, O1's predicate and
    O3 killed, gives the same verdict per organization and proposal, the
    same REJECT lines, the same cut blocks, ledgers and report whether each
    endorser signs a chunk's agreements as one batch or each alone."""
    make_agreements = agreement.make_agreements
    evaluate = org_module.OrgNode.evaluate_agreement
    broadcast = Network._broadcast

    def observed(sign):
        verdicts, cuts, batches = [], [], []

        def evaluating(node, proposal, memo=None):
            agreed = evaluate(node, proposal, memo)
            verdicts.append((node.org_id, proposal.digest(), agreed.verdict))
            return agreed

        def cutting(net, action):
            cuts.append([(ct.proposal.client, ct.proposal.sql) for ct in action.transactions])
            return broadcast(net, action)

        def signing(org, items, private_key):
            batches.append(len(items))
            return sign(org, items, private_key)

        monkeypatch.setattr(org_module.OrgNode, "evaluate_agreement", evaluating)
        monkeypatch.setattr(Network, "_broadcast", cutting)
        monkeypatch.setattr(agreement, "make_agreements", signing)
        report, ledgers = outcome(network())
        rejects = [line for line in report.splitlines() if f"\t{REJECT}\t" in line]
        return (verdicts, rejects, cuts, ledgers, report), batches

    def one_at_a_time(org, items, private_key):
        return [make_agreements(org, [item], private_key)[0] for item in items]

    batched, sizes = observed(make_agreements)
    # every proposal asked of an endorser is signed once, in batches
    assert max(sizes) > 1 and sum(sizes) == len(batched[0])
    alone, _ = observed(one_at_a_time)
    assert alone == batched
    verdicts, rejects, cuts, _, _ = batched
    assert {verdict for _, _, verdict in verdicts} == {True, False}
    assert rejects and sum(map(len, cuts)) == len(SCHEDULE) - len(rejects)


def test_each_endorser_verifies_before_it_signs(monkeypatch):
    """No organization signs a positive agreement for a proposal whose
    client signature does not verify, or whose client it does not know."""
    signed = []
    make_agreements = agreement.make_agreements

    def recorded(org, items, private_key):
        signed.extend(items)
        return make_agreements(org, items, private_key)

    monkeypatch.setattr(agreement, "make_agreements", recorded)
    net = network()
    net.run(SCHEDULE, [KILL_O3])
    bad_digests = {
        agreement.TransactionProposal(client, sql).digest()
        for _, client, sql in SCHEDULE if client in ("mallory", "ghost")
    }
    assert [verdict for digest, verdict in signed if digest in bad_digests]
    assert not any(verdict for digest, verdict in signed if digest in bad_digests)


def test_an_endorser_verifies_in_place_with_the_memo_it_is_given():
    """An unknown client is refused on its proposal's digest with no ECDSA
    run; a known client's check is verified once per memo, and at each
    call that passes none."""
    net = network()
    net.run([(0, "alice", sql) for sql in DDL])
    node, worker = net.node("O2"), keys.signature_worker()
    ghost = agreement.make_proposal("ghost", update("sav", 0), net.client_key("ghost"))
    alice = agreement.make_proposal("alice", update("sav", 1), net.client_key("alice"))
    before, recorded = worker.here_signatures, len(node.endorsed)
    refused = node.evaluate_agreement(ghost, {})
    assert not refused.verdict and refused.txn_digest == ghost.digest()
    assert worker.here_signatures == before and len(node.endorsed) == recorded

    memo = {}
    for given in (memo, memo, None, None):
        assert node.evaluate_agreement(alice, given).verdict
    assert worker.here_signatures == before + 3 and len(memo) == 1


def test_each_proposal_is_signed_in_the_chunk_being_submitted(monkeypatch):
    """A chunk is signed once every proposal signed before it at its tick
    was submitted, and a proposal is never signed before its tick."""
    net = network()
    signed, submitted = [], []
    make_proposals = agreement.make_proposals
    submit = Network.submit

    def signing(client, sqls, private_key):
        done = submitted.count(net.tick)
        for _ in sqls:
            assert done % CHUNK == 0 and signed.count(net.tick) - done < CHUNK
            signed.append(net.tick)
        return make_proposals(client, sqls, private_key)

    def submitting(network, client, sql):
        submitted.append(network.tick)
        return submit(network, client, sql)

    monkeypatch.setattr(agreement, "make_proposals", signing)
    monkeypatch.setattr(Network, "submit", submitting)
    net.run(SCHEDULE, [KILL_O3])
    assert signed == submitted == [tick for tick, _, _ in SCHEDULE]


def test_no_client_check_is_left_queued():
    """After a run with rejected proposals and an endorser killed after it
    had endorsed, no Verdicts is left unread and nothing is prepared."""
    net = network()
    report = net.run(SCHEDULE, [KILL_O3])
    assert report.events("O3", KILL) and report.events(kind=REJECT)
    assert not unread_verdicts()
    assert not net._prepared


def test_a_retired_endorser_is_never_asked(monkeypatch):
    """O3 is killed after a chunk of two proposals that need it was
    prepared: submit finds it unreachable and never asks it, so O3 verifies
    and signs nothing, and O2 endorses both with its one memo for the
    chunk, in one signed batch."""
    net = network()
    net.run([(0, "alice", sql) for sql in DDL])
    asked, signers = [], []
    evaluate = org_module.OrgNode.evaluate_agreement
    make_agreements = agreement.make_agreements

    def recorded(node, proposal, memo=None):
        asked.append((node.org_id, id(memo)))
        return evaluate(node, proposal, memo)

    def signing(org, items, private_key):
        signers.append((org, len(items)))
        return make_agreements(org, items, private_key)

    monkeypatch.setattr(org_module.OrgNode, "evaluate_agreement", recorded)
    monkeypatch.setattr(agreement, "make_agreements", signing)
    entries = [("alice", update("sav", i)) for i in (0, 1)]
    net._prepared.extend(net._prepare(entries))
    memos = net._prepared[0][2]
    assert all(needed == ("O2", "O3") for _, needed, _ in net._prepared)
    net.apply_fault(FaultEvent.from_dict(KILL_O3))

    for entry in entries:
        rejected = net.submit(*entry)
        assert isinstance(rejected, agreement.Rejected) and rejected.dissenting == ("O3",)
    assert list(memos) == ["O2", "O3"]
    assert asked == [("O2", id(memos["O2"]))] * 2
    assert signers == [("O2", 2)]
    assert not memos["O3"] and set(memos["O3"].agreements.values()) == {None}
    assert all(a is not None and a.verdict for a in memos["O2"].agreements.values())
    assert not net._prepared


def test_a_run_that_raises_leaves_nothing_prepared(monkeypatch):
    net = network()
    submit = Network.submit
    calls = []

    def failing(network, client, sql):
        calls.append(sql)
        if len(calls) == len(DDL) + 5:
            raise RuntimeError("submit failed")
        return submit(network, client, sql)

    monkeypatch.setattr(Network, "submit", failing)
    with pytest.raises(RuntimeError):
        net.run(SCHEDULE)
    assert not unread_verdicts()
    assert not net._prepared
