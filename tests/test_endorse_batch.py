"""Endorsement checks queued in chunks: Network.run prepares each tick's
proposals keys.CHUNK_TRANSACTIONS at a time, at most two chunks ahead of the
submit being made, and each required live endorser queues its client checks
with the signature worker; submit hands each endorser its check, so the
verdicts are read in order.  The outcome equals submitting every proposal on
its own, and no check is left queued behind a tick, a run or a retired
organization."""

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
    """Sizes of the batches of proposals whose client checks were queued."""
    sizes = []
    client_checks = org_module.OrgNode.client_checks

    def counted(node, proposals):
        sizes.append(len(proposals))
        return client_checks(node, proposals)

    monkeypatch.setattr(org_module.OrgNode, "client_checks", counted)
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


def test_each_endorser_verifies_before_it_signs(monkeypatch):
    """No organization signs a positive agreement for a proposal whose
    client signature does not verify, or whose client it does not know."""
    signed = []
    make_agreement = agreement.make_agreement

    def recorded(org, digest, verdict, private_key):
        signed.append((digest, verdict))
        return make_agreement(org, digest, verdict, private_key)

    monkeypatch.setattr(agreement, "make_agreement", recorded)
    net = network()
    net.run(SCHEDULE, [KILL_O3])
    bad_digests = {
        agreement.TransactionProposal(client, sql).digest()
        for _, client, sql in SCHEDULE if client in ("mallory", "ghost")
    }
    assert [verdict for digest, verdict in signed if digest in bad_digests]
    assert not any(verdict for digest, verdict in signed if digest in bad_digests)


def test_lookahead_stays_within_two_chunks_and_the_tick(monkeypatch):
    """A proposal is signed at most two chunks ahead of the chunk being
    submitted, and never before its tick."""
    net = network()
    signed, submitted = [], []
    make_proposals = agreement.make_proposals
    submit = Network.submit

    def signing(client, sqls, private_key):
        for _ in sqls:
            ahead = signed.count(net.tick) - submitted.count(net.tick)
            assert ahead < 3 * CHUNK - submitted.count(net.tick) % CHUNK
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
    had queued checks, no Verdicts is left unread and nothing is prepared."""
    net = network()
    report = net.run(SCHEDULE, [KILL_O3])
    assert report.events("O3", KILL) and report.events(kind=REJECT)
    assert not unread_verdicts()
    assert not net._prepared


def test_checks_prepared_for_a_retired_organization_are_never_read(monkeypatch):
    """O3 queues the client checks of two proposals, then is killed: submit
    finds it unreachable and never asks it, and its checks, unread, go once
    _prepared is cleared."""
    net = network()
    net.run([(0, "alice", sql) for sql in DDL])
    assert not unread_verdicts()
    asked = []
    evaluate = org_module.OrgNode.evaluate_agreement

    def recorded(node, proposal, queued=None):
        asked.append(node.org_id)
        return evaluate(node, proposal, queued)

    monkeypatch.setattr(org_module.OrgNode, "evaluate_agreement", recorded)
    entries = [("alice", update("sav", i)) for i in (0, 1)]
    net._prepared.extend(net._prepare(entries))
    assert [sorted(queued) for _, _, queued in net._prepared] == [["O2", "O3"]] * 2
    assert len(unread_verdicts()) == 2  # one batch each for O2 and O3
    net.apply_fault(FaultEvent.from_dict(KILL_O3))

    rejected = net.submit(*entries[0])
    assert isinstance(rejected, agreement.Rejected) and rejected.dissenting == ("O3",)
    assert asked == ["O2"]
    # O2's batch has its second check left, O3's both of its own
    assert len(unread_verdicts()) == 2
    net._prepared.clear()
    assert not unread_verdicts()
    assert asked == ["O2"]


def test_a_run_that_raises_drops_the_checks_it_queued(monkeypatch):
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
