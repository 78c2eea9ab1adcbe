"""Each organization's record of the proposals it endorsed: a block's checks
leave out the client check it made and the agreement it signed, and judge
every transaction exactly as the full checks do."""

import pytest
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from effectledger import agreement, keys
from effectledger.agreement import (
    AgreementPolicy,
    ChainedTransaction,
    TransactionProposal,
    collect_agreements,
    endorsers,
    make_agreement,
    make_proposal,
    signature_jobs,
)
from effectledger.keys import derive_private_key
from effectledger.network import KILL, REJECT, FaultEvent, Network, NetworkConfig, OrgConfig

from conftest import Cluster

POLICIES = {"acct": AgreementPolicy("acct", ("O2", "O3"))}
ORG_KEYS = {org: derive_private_key(f"test:{org}") for org in ("O1", "O2", "O3")}
KINDS = (
    "endorsed", "not_ordered", "by_hand", "swapped_sql", "swapped_sql_agreed", "refusing",
    "stripped", "foreign_signed", "malleated", "re_registered", "twice",
)


def malleated(signature: bytes) -> bytes:
    """The other valid ECDSA signature on the same message: (r, n - s)."""
    r, s = decode_dss_signature(signature)
    return encode_dss_signature(r, keys._P256_ORDER - s)


def replace_o2(ct, agreement_o2):
    return ChainedTransaction(
        ct.proposal, tuple(agreement_o2 if a.org == "O2" else a for a in ct.agreements)
    )


def by_hand(proposal):
    return ChainedTransaction(proposal, tuple(
        make_agreement(org, proposal.digest(), True, ORG_KEYS[org]) for org in ("O2", "O3")
    ))


def transactions(cluster, kind, i):
    """(the transactions of kind to order, clients to re-register after
    endorsement), for the i-th draw."""
    client = f"c{i}"
    client_key = derive_private_key(f"test:{client}")
    cluster.registry.register(client, client_key)
    sql = f"UPDATE acct SET bal = bal + {i} WHERE id = 1;"
    evaluators = {org: node.evaluate_agreement for org, node in cluster.nodes.items()}
    ct = collect_agreements(make_proposal(client, sql, client_key), endorsers(sql, POLICIES),
                            evaluators)
    first, second = ct.agreements
    swapped = TransactionProposal(client, f"DELETE FROM acct WHERE id = {i};", ct.proposal.signature)
    return {
        "endorsed": ([ct], []),
        "not_ordered": ([], []),
        "by_hand": ([by_hand(make_proposal(client, sql + " ", client_key))], []),
        "swapped_sql": ([ChainedTransaction(swapped, ct.agreements)], []),
        "swapped_sql_agreed": ([by_hand(swapped)], []),
        "refusing": ([replace_o2(ct, make_agreement("O2", first.txn_digest, False, ORG_KEYS["O2"]))], []),
        "stripped": ([ChainedTransaction(ct.proposal, ())], []),
        "foreign_signed": ([replace_o2(ct, type(first)("O2", first.txn_digest, True, second.signature))], []),
        "malleated": ([replace_o2(ct, type(first)("O2", first.txn_digest, True, malleated(first.signature)))], []),
        "re_registered": ([ct], [client]),
        "twice": ([ct, ct], []),
    }[kind]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(KINDS), min_size=1, max_size=10), st.data())
def test_verdicts_with_the_record_equal_the_full_checks(kinds, data):
    cluster = Cluster(agreement_policies=POLICIES)
    ordered, re_register = [], []
    for i, kind in enumerate(kinds):
        cts, clients = transactions(cluster, kind, i)
        ordered += cts
        re_register += clients
    for client in re_register:  # a new key between endorsement and receipt
        cluster.registry.register(client, derive_private_key(f"test:{client}:new"))
    cut = data.draw(st.integers(0, len(ordered)))

    for node in cluster.nodes.values():
        for block in (ordered[:cut], ordered[cut:]):
            full = [signature_jobs(ct, cluster.registry) for ct in block]
            kept = [signature_jobs(ct, cluster.registry, node.endorsed) for ct in block]
            for all_checks, checks in zip(full, kept):
                assert (all_checks is None) == (checks is None)
                assert set(checks or ()) <= set(all_checks or ())
            expected = keys.verify_jobs(full)
            assert keys.verify_jobs(kept) == expected
            assert list(keys.signature_worker().verify(kept)) == expected


def endorsed_network(**settings):
    config = dict(
        orgs=[OrgConfig(org) for org in ("O1", "O2", "O3")], min_matching=2, blocksize=4,
        block_timeout=1,
    )
    return Network(NetworkConfig(**config, **settings))


CHECKING_DDL = "CREATE TABLE checking (custid INT, bal DECIMAL(12, 2), PRIMARY KEY (custid));"


def test_each_organization_verifies_what_it_did_not_check_itself(monkeypatch):
    """checking needs O1's and O2's agreement: each of them verifies only the
    other's agreement, and O3 all three signatures."""
    net = endorsed_network(agreement_policies={"checking": ["O1", "O2"]})
    owner = {id(node.endorsed): org for org, node in net.nodes.items()}
    signatures = dict.fromkeys(net.nodes, 0)
    received = dict.fromkeys(net.nodes, 0)
    original = agreement.signature_jobs

    def counted(ct, registry, endorsed=None):
        jobs = original(ct, registry, endorsed)
        signatures[owner[id(endorsed)]] += len(jobs)
        received[owner[id(endorsed)]] += 1
        return jobs

    monkeypatch.setattr(agreement, "signature_jobs", counted)
    schedule = [(0, "alice", CHECKING_DDL)] + [
        (1 + i // 3, "alice", f"INSERT INTO checking (custid, bal) VALUES ({i}, 10);")
        for i in range(11)
    ]
    report = net.run(schedule)
    assert received == dict.fromkeys(net.nodes, 12)
    assert signatures == {"O1": 12, "O2": 12, "O3": 36}
    assert {node.height for node in net.nodes.values()} == {report.summary["O1"]}
    assert all(all(block.successful) for block in net.node("O3").ledger.blocks)


@pytest.mark.parametrize("refused_last", [False, True], ids=["accepted-last", "refused-last"])
def test_the_record_keeps_only_what_may_still_be_ordered(refused_last):
    """O3 refuses balances above 500, which O2 agreed to.  O2's entries for
    those go once a later proposal is received in a block, and every entry
    goes when the organization is killed."""
    net = endorsed_network(
        agreement_policies={"acct": ["O2", "O3"]},
        predicates={"O3": {"acct": ["T.bal <= 500"]}},
    )
    balances = [100, 501, 200, 900, 901, 300] + ([700] if refused_last else [])
    inserts = [f"INSERT INTO acct (id, bal) VALUES ({i}, {bal});" for i, bal in enumerate(balances)]
    schedule = [(0, "alice", "CREATE TABLE acct (id INT, bal DECIMAL(12, 2), PRIMARY KEY (id));")]
    schedule += [(1 + i, "alice", sql) for i, sql in enumerate(inserts)]
    report = net.run(schedule)
    assert len(report.events("O3", REJECT)) == sum(bal > 500 for bal in balances)
    assert {node.height for node in net.nodes.values()} == {report.summary["O1"]}

    not_ordered = inserts[-1:] if refused_last else []
    digests = {make_proposal("alice", sql, net.client_key("alice")).digest() for sql in not_ordered}
    assert {a.txn_digest for a in net.node("O2").endorsed._entries.values()} == digests
    assert len(net.node("O1").endorsed) == len(net.node("O3").endorsed) == 0

    net.apply_fault(FaultEvent(at_tick=0, kind="kill_org", org="O2"))
    assert net.report.lines[-1].event == KILL
    assert len(net.node("O2").endorsed) == 0
