"""Deterministic multi-org simulation: ordering, faults, and the report."""

import hashlib
import json
import random
import weakref
from decimal import Decimal

import pytest

from effectledger import agreement as agreement_module
from effectledger import keys
from effectledger import ledger as ledger_module
from effectledger import network as network_module
from effectledger import org as org_module
from effectledger.agreement import ChainedTransaction, Rejected, make_proposal
from effectledger.engine.database import Database
from effectledger.engine.types import QuirkConfig, pk_bytes
from effectledger.errors import ConfigError
from effectledger.keys import derive_private_key
from effectledger.ledger import verify_ledger
from effectledger.network import (
    COMMIT,
    CORRUPT,
    CORRUPT_MISSED,
    CORRUPT_SNAPSHOT,
    CUT,
    EQUIVOCATE,
    EXCLUDED,
    EXEC_DONE,
    EXEC_START,
    KILL,
    NONCONSENT,
    RECOVER_DONE,
    RECOVER_START,
    REJECT,
    REPORT_COLUMNS,
    REPORT_HEADER,
    STALLED,
    FaultEvent,
    Network,
    NetworkConfig,
    Orderer,
    OrgConfig,
    load_fault_script,
)
from effectledger.recovery import CHECKPOINTS_KEPT
from effectledger.smallbank import bootstrap_transactions, build_schedule

from conftest import block_id_of, unread_verdicts

DDL = "CREATE TABLE acct (id INT, bal DECIMAL(12, 2), PRIMARY KEY (id));"
SEED = "INSERT INTO acct (id, bal) VALUES (1, 100), (2, 200), (3, 300);"


def make_net(org_count=3, **over):
    settings = dict(min_matching=2, blocksize=2, block_timeout=2)
    settings.update(over)
    orgs = settings.pop("orgs", None) or [
        OrgConfig(f"O{i + 1}") for i in range(org_count)
    ]
    return Network(NetworkConfig(orgs=orgs, **settings))


def basic_schedule(bumps=6, target=1):
    sched = [(0, "alice", DDL), (0, "alice", SEED)]
    for i in range(bumps):
        sched.append(
            (2 + i, "bob", f"UPDATE acct SET bal = bal + 1 WHERE id = {target};")
        )
    return sched


# ---- clean runs ----


def test_clean_run_commits_everywhere():
    net = make_net()
    report = net.run(basic_schedule())
    heights = {org: node.height for org, node in net.nodes.items()}
    assert len(set(heights.values())) == 1 and heights["O1"] >= 4
    heads = {node.ledger.head_hash() for node in net.nodes.values()}
    assert len(heads) == 1
    for org in net.nodes:
        assert len(report.commits(org)) == heights[org]
    assert report.summary == heights


def test_identical_runs_are_byte_identical():
    schedule = basic_schedule()
    first = make_net()
    second = make_net()
    text_a = first.run(schedule).to_text()
    text_b = second.run(schedule).to_text()
    assert text_a == text_b
    for org in first.nodes:
        assert (
            first.node(org).ledger.to_bytes() == second.node(org).ledger.to_bytes()
        )


def test_report_header():
    net = make_net()
    report = net.run(basic_schedule(bumps=2))
    lines = report.to_text().splitlines()
    assert lines[0] == REPORT_HEADER
    assert lines[1] == REPORT_COLUMNS


def test_out_dir_artifacts(tmp_path):
    net = make_net(out_dir=str(tmp_path))
    net.run(basic_schedule(bumps=2))
    net.close()
    report_text = (tmp_path / "report.tsv").read_text()
    assert report_text.startswith(REPORT_HEADER)
    for org, node in net.nodes.items():
        data = (tmp_path / f"{org}.ledger").read_bytes()
        assert data == node.ledger.to_bytes()
        assert verify_ledger(data, expected_head=node.ledger.head_hash()).ok


def test_ledgers_agree_to_common_height():
    net = make_net()
    net.run(basic_schedule())
    by_org = {org: node.ledger for org, node in net.nodes.items()}
    common = min(ledger.height for ledger in by_org.values())
    reference = next(iter(by_org.values()))
    for ledger in by_org.values():
        for bid in range(1, common + 1):
            assert ledger.block(bid) == reference.block(bid)


# ---- commit on vote arrival ----


def test_quorum_commit_lands_in_the_cut_tick():
    report = make_net().run(basic_schedule())
    cuts = {line.block: line.tick for line in report.events("orderer", CUT)}
    assert len(cuts) >= 4
    for block, tick in cuts.items():
        lines = [l for l in report.lines if l.block == block and l.event in (COMMIT, EXEC_START)]
        commits = [i for i, l in enumerate(lines) if l.event == COMMIT]
        starts = [i for i, l in enumerate(lines) if l.event == EXEC_START]
        assert lines[commits[1]].tick == tick
        assert commits[1] < starts[2]


def test_waiting_peers_commit_in_the_tick_of_the_last_exec_done():
    orgs = [OrgConfig("O1"), OrgConfig("O2"), OrgConfig("O3", engine_delay=3)]
    net = make_net(orgs=orgs, min_matching=3)
    report = net.run(basic_schedule())
    done = sorted((line.block, line.tick) for line in report.events("O3", EXEC_DONE))
    assert len(done) >= 4
    for org in ("O1", "O2"):
        assert report.commits(org) == done


def test_dropped_votes_commit_on_the_first_poll_after_the_rule_expires():
    net = make_net()
    gag = {"at_tick": 0, "kind": "drop_votes", "requester": "O1", "until_tick": 12}
    report = net.run(basic_schedule(bumps=4), faults=[gag])
    assert report.commits("O2")[0][1] < 12
    assert report.commits("O1")[0][1] == 12
    assert net.node("O1").height == net.node("O2").height


def deaf_to_o4_with_o3_corrupted():
    """4 orgs, min_matching 3, O1 never hears O4 and O3 diverges at tick 6: O1
    needs O3's recovered vote to reach a quorum.  O3's engine delay keeps its
    next execution from publishing in the tick its recovery window ends."""
    orgs = [OrgConfig("O1"), OrgConfig("O2"), OrgConfig("O3", engine_delay=2), OrgConfig("O4")]
    net = make_net(orgs=orgs, min_matching=3, checkpoint_interval=2)
    faults = [
        {"at_tick": 0, "kind": "drop_votes", "requester": "O1", "responder": "O4"},
        corrupt_fault(6, org="O3"),
    ]
    return net, net.run(basic_schedule(bumps=8), faults=faults)


def test_waiting_peer_commits_when_the_recovery_window_ends():
    net, report = deaf_to_o4_with_o3_corrupted()
    failing = report.first("O3", NONCONSENT)
    done = report.first("O3", RECOVER_DONE)
    assert done.block == failing.block and done.tick > failing.tick
    assert dict(report.commits("O1"))[failing.block] == done.tick
    # the recovering organization starts nothing inside its window
    assert all(l.tick >= done.tick for l in report.events("O3", EXEC_START) if l.block > done.block)
    assert len({n.ledger.head_hash() for n in net.nodes.values()}) == 1


def test_woken_peer_that_commits_starts_its_next_block_in_the_same_tick():
    """O1 steps before O3 in each tick, so it commits block 2 only when O3's
    vote wakes it; it starts the received block 3 in that same tick."""
    net, report = deaf_to_o4_with_o3_corrupted()
    assert dict(report.commits("O1"))[2] == 5
    assert (2, 5) in [(l.block, l.tick) for l in report.events("O3", EXEC_DONE)]
    assert [l.tick for l in report.events("O1", EXEC_START) if l.block == 3] == [5]


def test_identical_fault_runs_are_byte_identical():
    (first_net, first), (second_net, second) = (deaf_to_o4_with_o3_corrupted() for _ in range(2))
    assert first.to_text() == second.to_text()
    for org in first_net.nodes:
        assert first_net.node(org).ledger.to_bytes() == second_net.node(org).ledger.to_bytes()


def test_each_org_hashes_each_committed_block_once(monkeypatch):
    hashed = []
    for module in (ledger_module, org_module):
        def counted(block, original=module.block_hash):
            hashed.append(block_id_of(block))
            return original(block)

        monkeypatch.setattr(module, "block_hash", counted)
    net = make_net()
    net.run(basic_schedule())
    heights = [node.height for node in net.nodes.values()]
    assert sorted(hashed) == sorted(b for h in heights for b in range(1, h + 1))


def test_each_org_serializes_each_committed_block_once(monkeypatch, tmp_path):
    """The bytes a block's hash is taken of are the bytes its ledger file
    gets: one serialization per organization and block, written ones too."""
    serialized = []
    serialize = ledger_module.LedgerBlock.serialize

    def counted(block):
        serialized.append(block.block_id)
        return serialize(block)

    monkeypatch.setattr(ledger_module.LedgerBlock, "serialize", counted)
    net = make_net(out_dir=str(tmp_path), durable=True)
    try:
        net.run(basic_schedule())
    finally:
        net.close()
    heights = [node.height for node in net.nodes.values()]
    assert min(heights) > 2
    assert sorted(serialized) == sorted(b for h in heights for b in range(1, h + 1))
    for org_id, node in net.nodes.items():
        assert (tmp_path / f"{org_id}.ledger").read_bytes() == b"".join(
            serialize(block) for block in node.ledger.blocks
        )


# ---- the orderer ----


def ct(i):
    return ChainedTransaction(
        make_proposal("c", f"SELECT * FROM t WHERE k = {i};", derive_private_key("c")), ()
    )


def test_orderer_cuts_at_blocksize():
    orderer = Orderer(blocksize=3, block_timeout=100)
    for i in range(7):
        orderer.submit(ct(i), tick=0)
    actions = orderer.tick(0)
    assert [a.round_id for a in actions] == [1, 2]
    assert all(len(a.transactions) == 3 for a in actions)
    assert not orderer.empty  # one transaction still queued
    assert orderer.tick(1) == []


def test_orderer_cuts_on_timeout():
    orderer = Orderer(blocksize=100, block_timeout=4)
    orderer.submit(ct(0), tick=2)
    assert orderer.tick(2) == []
    assert orderer.tick(5) == []  # only 3 ticks elapsed
    (action,) = orderer.tick(6)
    assert action.round_id == 1 and len(action.transactions) == 1
    assert orderer.empty


def test_orderer_cuts_a_timed_out_remainder_in_the_tick_of_a_blocksize_cut():
    orderer = Orderer(blocksize=2, block_timeout=2)
    for i in range(3):
        orderer.submit(ct(i), tick=0)
    assert [len(a.transactions) for a in orderer.tick(2)] == [2, 1]
    assert orderer.empty


# ---- faults ----


def corrupt_fault(tick, org="O1"):
    return {
        "at_tick": tick,
        "kind": "corrupt_row",
        "org": org,
        "table": "acct",
        "pk": [1],
        "column": "bal",
        "value": "999999.99",
    }


def test_corrupt_row_recovers_and_matches_peers():
    net = make_net(checkpoint_interval=2)
    report = net.run(basic_schedule(bumps=8), faults=[corrupt_fault(6)])
    assert report.first("O1", CORRUPT) is not None
    nonconsent = report.first("O1", NONCONSENT)
    recover_start = report.first("O1", RECOVER_START)
    recover_done = report.first("O1", RECOVER_DONE)
    assert nonconsent and recover_start and recover_done
    assert nonconsent.tick <= recover_start.tick <= recover_done.tick
    assert report.first("O1", EXCLUDED) is None
    states = {node.db.state_hash() for node in net.nodes.values()}
    heads = {node.ledger.head_hash() for node in net.nodes.values()}
    assert len(states) == 1 and len(heads) == 1


def test_corrupt_row_recovers_by_full_replay_at_interval_zero():
    net = make_net(checkpoint_interval=0)
    report = net.run(basic_schedule(bumps=8), faults=[corrupt_fault(6)])
    assert report.first("O1", RECOVER_DONE) is not None
    assert report.first("O1", EXCLUDED) is None
    assert all(node.checkpoints.snapshots == [] for node in net.nodes.values())
    states = {node.db.state_hash() for node in net.nodes.values()}
    heads = {node.ledger.head_hash() for node in net.nodes.values()}
    assert len(states) == 1 and len(heads) == 1


def test_a_full_replay_binds_every_data_statement(monkeypatch):
    """At interval 0 a corrupt row makes O1 replay its whole ledger: every
    bulk load and update replayed binds from a plan O1 learned before, so
    the recovery parses only the DDL, which is never planned."""
    parsed, recoveries = [], []

    def counted(sql, parse=agreement_module.parse_script):
        parsed.append(sql)
        return parse(sql)

    def recorded(node, peers, fetch_vote, recover=network_module.recover):
        start = len(parsed), node.plans.misses
        report = recover(node, peers, fetch_vote)
        recoveries.append((node.org_id, parsed[start[0]:], node.plans.misses - start[1], report))
        return report

    monkeypatch.setattr(agreement_module, "parse_script", counted)
    monkeypatch.setattr(network_module, "recover", recorded)
    loads = [
        "INSERT INTO acct (id, bal) VALUES (1, 100), (2, 200), (3, 300);",
        "INSERT INTO acct (id, bal) VALUES (4, 400), (5, 500);",
        "INSERT INTO acct (id, bal) VALUES (6, 600), (7, 700), (8, 800), (9, 900);",
    ]
    schedule = [(0, "alice", DDL), *((1, "alice", sql) for sql in loads)]
    schedule += [(3 + i, "bob", f"UPDATE acct SET bal = bal + {i} WHERE id = 1;") for i in range(6)]
    net = make_net(checkpoint_interval=0)
    net.run(schedule, faults=[corrupt_fault(6)])
    [(org, replay_parsed, misses, report)] = recoveries
    assert org == "O1" and report.recovered
    assert [it.source for it in report.iterations] == ["full_replay"]
    assert (replay_parsed, misses) == ([DDL], 1)
    assert len({node.db.state_hash() for node in net.nodes.values()}) == 1


def test_fault_free_peers_commit_during_recovery():
    net = make_net(checkpoint_interval=2)
    report = net.run(basic_schedule(bumps=8), faults=[corrupt_fault(6)])
    failing = report.first("O1", NONCONSENT).block
    for org in ("O2", "O3"):
        assert failing in [b for b, _ in report.commits(org)]


def test_kill_org_halts_it_but_not_survivors():
    net = make_net()
    kill = {"at_tick": 5, "kind": "kill_org", "org": "O3"}
    report = net.run(basic_schedule(bumps=8), faults=[kill])
    kill_line = report.first("O3", KILL)
    assert kill_line is not None
    assert all(t <= kill_line.tick for _, t in report.commits("O3"))
    assert net.node("O1").height == net.node("O2").height
    assert net.node("O3").height < net.node("O1").height
    # survivors drained the whole workload
    assert net.node("O1").height >= 4


def test_a_killed_organization_leaves_no_unread_verdicts():
    """Its received blocks' signature checks are dropped with it, unread."""
    net = make_net(orgs=[OrgConfig("O1"), OrgConfig("O2"), OrgConfig("O3", engine_delay=3)],
                   blocksize=64, block_timeout=4)
    schedule = build_schedule(bootstrap_transactions(200, random.Random(0)))
    net.run(schedule, faults=[{"at_tick": 6, "kind": "kill_org", "org": "O3"}])
    assert [net.node(org).height for org in ("O1", "O2", "O3")] == [1, 1, 0]
    assert not unread_verdicts()


TRUNCATE = QuirkConfig.from_dict({"decimal_rounding": "truncate"}, "test")


def test_an_excluded_organization_leaves_no_unread_verdicts():
    """O3 rounds a third fractional digit down and may not recover, so it is
    excluded at block 2 with later blocks received; their signature checks
    are dropped with it, as a killed organization's are."""
    orgs = [OrgConfig("O1"), OrgConfig("O2"), OrgConfig("O3", quirks=TRUNCATE, engine_delay=3)]
    net = make_net(orgs=orgs)
    bumps = [
        (1 + i // 2, "bob", f"UPDATE acct SET bal = bal + 0.006 WHERE id = {1 + i % 3};")
        for i in range(16)
    ]
    report = net.run([(0, "alice", DDL), (0, "alice", SEED)] + bumps)
    assert report.first("O3", EXCLUDED).block == 2
    assert [net.node(org).height for org in ("O1", "O2", "O3")] == [9, 9, 1]
    assert not unread_verdicts()


def fault_matrix_run(checkpoint_interval):
    """Five organizations with engine delays 0-3, O3 rounding by truncation,
    and one fault of each kind that needs no checkpoint."""
    orgs = [OrgConfig(f"O{i + 1}", engine_delay=i % 4) for i in range(5)]
    orgs[2].quirks = TRUNCATE
    net = make_net(orgs=orgs, checkpoint_interval=checkpoint_interval)
    amounts = ("1", "0.004", "2.5", "0.006")
    schedule = [(0, "alice", DDL), (0, "alice", SEED)] + [
        (1 + i, "bob", f"UPDATE acct SET bal = bal + {amounts[i % 4]} WHERE id = {1 + i % 3};")
        for i in range(12)
    ]
    faults = [
        {"at_tick": 0, "kind": "drop_votes", "requester": "O1", "responder": "O2", "until_tick": 6},
        {"at_tick": 2, "kind": "tamper_vote", "requester": "O2", "responder": "O4",
         "block_from": 3},
        {"at_tick": 1, "kind": "equivocate_orderer", "org": "O4", "block_id": 5},
        {"at_tick": 4, "kind": "corrupt_row", "org": "O1", "table": "acct", "pk": [2],
         "column": "bal", "value": "-1"},
        {"at_tick": 9, "kind": "kill_org", "org": "O5"},
    ]
    report = net.run(schedule, faults, max_ticks=60)
    digest = hashlib.sha256(report.to_text().encode())
    for org in sorted(net.nodes):
        digest.update(net.node(org).ledger.to_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "checkpoint_interval, sha256",
    [
        (0, "a8ec32f3abb9729653e0bb4e2555ede497928fc00991cc21975b5cc9bc55e0dc"),
        (2, "40d3b427e21a8bb301abcd93a807c51cd627962fc141cafbf2f8b632b3e5d584"),
    ],
)
def test_fault_matrix_report_and_ledger_bytes_are_pinned(checkpoint_interval, sha256):
    """Recoveries that succeed and fail, exclusions and a kill: the digest
    of the report and every ledger is pinned, so any change to the driver
    that moves a byte of either shows here.  Interval 0 recovers by full
    replay only, 2 from checkpoints first."""
    assert fault_matrix_run(checkpoint_interval) == sha256


def test_equivocation_excludes_victim():
    net = make_net()
    fault = {"at_tick": 1, "kind": "equivocate_orderer", "org": "O2", "block_id": 2}
    report = net.run(basic_schedule(bumps=6), faults=[fault])
    assert report.first("O2", EQUIVOCATE) is not None
    assert report.first("O2", NONCONSENT).block == 2
    excluded = report.first("O2", EXCLUDED)
    assert excluded is not None
    # the victim leaves the network: nothing more happens to it
    assert report.events("O2")[-1] == excluded
    # the two honest orgs keep going without the victim
    assert net.node("O1").height == net.node("O3").height >= 4
    assert 2 in [b for b, _ in report.commits("O1")]


def test_a_network_that_can_no_longer_commit_ends_stalled():
    """O4 rounds by truncation and is excluded at block 3, O3 is killed and
    O2 is sent a short block 4: O1 and O2 each wait on block 4 for a third
    matching vote that no organization will publish.  The run stops at the
    first tick that changes nothing, not at its tick budget."""
    orgs = [OrgConfig("O1"), OrgConfig("O2"), OrgConfig("O3"), OrgConfig("O4", quirks=TRUNCATE)]
    net = make_net(orgs=orgs, min_matching=3)
    amounts = ("1", "1", "0.006", "1")
    schedule = [(0, "alice", DDL), (0, "alice", SEED)] + [
        (1 + i, "bob", f"UPDATE acct SET bal = bal + {amounts[i % 4]} WHERE id = {1 + i % 3};")
        for i in range(8)
    ]
    faults = [
        {"at_tick": 6, "kind": "kill_org", "org": "O3"},
        {"at_tick": 6, "kind": "equivocate_orderer", "org": "O2", "block_id": 4},
    ]
    report = net.run(schedule, faults)
    assert report.first("O4", EXCLUDED).block == 3
    assert [(l.tick, l.org, l.block) for l in report.events(kind=STALLED)] == [
        (9, "O1", 4), (9, "O2", 4)
    ]
    assert report.lines[-2:] == report.events(kind=STALLED)
    assert net.tick == 10
    assert [net.node(org).height for org in ("O1", "O2", "O3", "O4")] == [3, 3, 3, 2]


def test_a_vote_rule_still_to_expire_keeps_the_run_going():
    """O1 hears no vote until tick 12, so its quorum needs that tick: the
    run waits for it instead of stopping as stalled."""
    net = make_net()
    gag = {"at_tick": 0, "kind": "drop_votes", "requester": "O1", "until_tick": 12}
    report = net.run([(0, "alice", DDL), (0, "alice", SEED)], faults=[gag])
    assert report.commits("O1") == [(1, 12)]
    assert report.events(kind=STALLED) == []


def test_drop_votes_window_delays_but_does_not_diverge():
    net = make_net()
    gag = {
        "at_tick": 0,
        "kind": "drop_votes",
        "requester": "O1",
        "until_tick": 12,
    }
    report = net.run(basic_schedule(bumps=4), faults=[gag])
    assert all(t >= 12 for _, t in report.commits("O1"))
    assert net.node("O1").height == net.node("O2").height
    assert {n.ledger.head_hash() for n in net.nodes.values()} == {
        net.node("O2").ledger.head_hash()
    }


def test_tamper_vote_is_discarded_not_believed():
    net = make_net()
    tamper = {
        "at_tick": 0,
        "kind": "tamper_vote",
        "requester": "O1",
        "responder": "O2",
    }
    net.run(basic_schedule(bumps=4), faults=[tamper])
    node = net.node("O1")
    assert node.height == net.node("O2").height >= 3
    tainted = [t for t in node.transcripts.values() if "O2" in t.invalid]
    assert tainted  # the forged votes were seen and rejected


def test_rule_activation_window_and_block_range(monkeypatch):
    """A second run applies the rule at its tick 2 and ends it at tick 5;
    the votes it filters, on blocks 1-4, were published by the first run.
    Submissions at ticks 1, 3 and 5 make the network step at those ticks,
    and each probe fetches after that tick's faults."""
    net = make_net()
    net.run(basic_schedule(bumps=6))
    rule = FaultEvent(
        at_tick=2,
        kind="drop_votes",
        requester="O1",
        responder="O2",
        until_tick=5,
        block_from=2,
        block_to=3,
    )
    probes = [("O1", "O2", 2), ("O3", "O2", 2), ("O1", "O3", 2), ("O1", "O2", 1), ("O1", "O2", 4)]
    dropped = {}
    submit_due = Network._submit_due

    def probe(network, due):
        dropped[network.tick] = {
            (requester, responder, block): network.fetch_vote(requester)(responder, block) is None
            for requester, responder, block in probes
        }
        submit_due(network, due)

    monkeypatch.setattr(Network, "_submit_due", probe)
    look = "SELECT * FROM acct WHERE id = 1;"
    net.run([(tick, "carol", look) for tick in (1, 3, 5)], faults=[rule])
    assert dropped[3][("O1", "O2", 2)]
    assert not dropped[3][("O3", "O2", 2)]  # other requester
    assert not dropped[3][("O1", "O3", 2)]  # other responder
    assert not dropped[3][("O1", "O2", 1)]  # below block range
    assert not dropped[3][("O1", "O2", 4)]  # above block range
    assert not dropped[1][("O1", "O2", 2)]  # before window
    assert not dropped[5][("O1", "O2", 2)]  # window closed


def test_unknown_fault_kind_rejected():
    net = make_net()
    with pytest.raises(ConfigError):
        net.apply_fault(FaultEvent(at_tick=0, kind="set_on_fire", org="O1"))


def test_fault_script_loads_json():
    text = json.dumps([corrupt_fault(3), {"at_tick": 5, "kind": "kill_org", "org": "O2"}])
    events = load_fault_script(json.loads(text))
    assert [e.kind for e in events] == ["corrupt_row", "kill_org"]
    assert events[0].pk == (1,)


def test_fault_script_that_is_not_a_list_is_refused():
    with pytest.raises(ConfigError) as caught:
        load_fault_script({"at_tick": 1})
    assert str(caught.value) == "fault script must be a list of objects, not {'at_tick': 1}"


def test_fault_script_with_a_fault_that_is_not_an_object_is_refused():
    with pytest.raises(ConfigError) as caught:
        load_fault_script([3])
    assert str(caught.value) == "fault script: a fault must be an object, not 3"


MIXED_DDL = (
    "CREATE TABLE mixed (k INT, s TEXT, d DECIMAL(10, 2), v INT, w TEXT, x DECIMAL(10, 2), "
    "PRIMARY KEY (k, s, d));"
)
MIXED_ROW = "INSERT INTO mixed VALUES (1, '5', 2.50, 0, 'z', 0);"


@pytest.mark.parametrize("pk", [[1, "5", "2.50"], ["1", 5, "2.50"], [1, "5", Decimal("2.50")]])
@pytest.mark.parametrize(
    "column, raw, stored",
    [("v", 7, 7), ("v", "7", 7), ("w", "y", "y"), ("w", 5, "5"),
     ("x", "-1", Decimal("-1")), ("x", 0.1, Decimal("0.1"))],
)
def test_corrupt_row_decodes_json_numbers_and_strings(pk, column, raw, stored):
    net = make_net()
    net.run([(0, "alice", MIXED_DDL), (0, "alice", MIXED_ROW)])
    fault = {"at_tick": 0, "kind": "corrupt_row", "org": "O1", "table": "mixed",
             "pk": pk, "column": column, "value": raw}
    net.apply_fault(load_fault_script([fault])[0])
    table = net.node("O1").db.table("mixed")
    (row,) = table.rows.values()
    assert row[table.schema.column_index(column)] == stored


@pytest.mark.parametrize(
    "table, pk", [("mixed", [2, "5", "2.50"]), ("mixed", [1, "6", "2.50"]),
                  ("mixed", [1, "5", "2.51"]), ("nope", [1, "5", "2.50"])]
)
def test_corrupt_row_misses_a_missing_row_or_table(table, pk):
    net = make_net()
    net.run([(0, "alice", MIXED_DDL), (0, "alice", MIXED_ROW)])
    state = net.node("O1").db.state_hash()
    fault = FaultEvent(at_tick=0, kind="corrupt_row", org="O1", table=table,
                       pk=tuple(pk), column="v", value=1)
    net.apply_fault(fault)
    assert net.report.lines[-1].event == CORRUPT_MISSED
    assert net.node("O1").db.state_hash() == state


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"pk": [1, "5"]}, "corrupt_row: table mixed has a 3-column key"),
        ({"column": "nope"}, "corrupt_row: table mixed: unknown column nope"),
        ({"pk": [2, "5", "2.50"], "value": 1.5}, "corrupt_row: column v: 1.5 is not an INT"),
    ],
    ids=["arity", "column", "value-of-a-missing-row"],
)
def test_corrupt_row_rejects_what_can_never_be_stored(fields, message):
    net = make_net()
    net.run([(0, "alice", MIXED_DDL), (0, "alice", MIXED_ROW)])
    fault = {"at_tick": 0, "kind": "corrupt_row", "org": "O1", "table": "mixed",
             "pk": (1, "5", "2.50"), "column": "v", "value": 1, **fields}
    with pytest.raises(ConfigError) as caught:
        net.apply_fault(FaultEvent(**fault))
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "d, found", [("2.5", True), (2.5, True), ("2.505", False), (2.505, False)],
    ids=["text-exact", "number-exact", "text-inexact", "number-inexact"],
)
def test_corrupt_row_matches_a_decimal_key_at_the_column_scale(d, found):
    net = make_net()
    net.run([(0, "alice", MIXED_DDL), (0, "alice", MIXED_ROW)])
    fault = FaultEvent(at_tick=0, kind="corrupt_row", org="O1", table="mixed",
                       pk=(1, "5", d), column="v", value=7)
    if not found:
        with pytest.raises(ConfigError):
            net.apply_fault(fault)
        return
    net.apply_fault(fault)
    (row,) = net.node("O1").db.table("mixed").rows.values()
    assert row[3] == 7


def mixed_net_with_checkpoint():
    net = make_net(checkpoint_interval=1)
    second = MIXED_ROW.replace("(1, '5', 2.50, 0, 'z', 0)", "(2, '5', 2.50, 0, 'z', 0)")
    net.run([(0, "alice", MIXED_DDL), (0, "alice", MIXED_ROW), (1, "alice", second)])
    return net


def test_corrupt_snapshot_overwrites_the_named_row_of_the_newest_checkpoint():
    net = mixed_net_with_checkpoint()
    net.apply_fault(FaultEvent(at_tick=0, kind="corrupt_snapshot", org="O1", table="mixed",
                               pk=(2, "5", "2.5"), column="v", value="7"))
    rows = net.node("O1").checkpoints.snapshots[-1].tables["mixed"].rows
    assert [row[:4] for row in rows] == [(1, "5", Decimal("2.50"), 0), (2, "5", Decimal("2.50"), 7)]


def test_corrupt_snapshot_on_a_key_column_moves_the_row_to_its_new_key():
    net = mixed_net_with_checkpoint()
    net.apply_fault(FaultEvent(at_tick=0, kind="corrupt_snapshot", org="O1", table="mixed",
                               pk=(2, "5", "2.5"), column="k", value="7"))
    snapshot = net.node("O1").checkpoints.snapshots[-1].tables["mixed"]
    restored = Database()
    restored.restore_all({"mixed": snapshot})
    rows = restored.table("mixed").rows
    assert sorted(row[0] for row in rows.values()) == [1, 7]
    assert all(key == pk_bytes(snapshot.schema, row) for key, row in rows.items())


def test_corrupt_snapshot_needs_a_checkpoint_at_interval_zero():
    """Interval 0 keeps no snapshot, so there is none for the fault to hit:
    it is reported missed, and the run goes on."""
    net = make_net(checkpoint_interval=0)
    fault = {"at_tick": 3, "kind": "corrupt_snapshot", "org": "O1", "table": "acct",
             "pk": [1], "column": "bal", "value": "7"}
    report = net.run(basic_schedule(bumps=2), faults=[fault])
    missed = report.events("O1", CORRUPT_MISSED)
    assert [(line.tick, line.block) for line in missed] == [(3, 0)]
    assert net.node("O1").checkpoints.snapshots == []
    assert len({node.height for node in net.nodes.values()}) == 1


def test_corrupt_snapshot_misses_a_table_or_row_the_checkpoint_lacks():
    net = mixed_net_with_checkpoint()
    checkpoint = net.node("O1").checkpoints.snapshots[-1]
    before = dict(checkpoint.tables)
    for table, pk in (("nope", (1, "5", "2.50")), ("mixed", (3, "5", "2.50"))):
        net.apply_fault(FaultEvent(at_tick=0, kind="corrupt_snapshot", org="O1", table=table,
                                   pk=pk, column="v", value=7))
    assert [(l.event, l.block) for l in net.report.lines[-2:]] == [
        (CORRUPT_MISSED, checkpoint.block_id)
    ] * 2
    assert checkpoint.tables == before
    assert not net.report.events("O1", CORRUPT_SNAPSHOT)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"column": "nope"}, "corrupt_snapshot: table mixed: unknown column nope"),
        ({"pk": (1, "5", "2.50", 1)}, "corrupt_snapshot: table mixed has a 3-column key"),
        ({"pk": ("x", "5", "2.50")}, "corrupt_snapshot: column k: 'x' is not a number"),
        ({"value": 1.5}, "corrupt_snapshot: column v: 1.5 is not an INT"),
        ({"column": "w", "value": True}, "corrupt_snapshot: column w: True is not a number or a string"),
    ],
)
def test_corrupt_snapshot_rejects_a_bad_target(fields, message):
    net = mixed_net_with_checkpoint()
    before = net.node("O1").checkpoints.snapshots[-1].tables["mixed"]
    fault = {"at_tick": 0, "kind": "corrupt_snapshot", "org": "O1", "table": "mixed",
             "pk": (1, "5", "2.50"), "column": "v", "value": 7, **fields}
    with pytest.raises(ConfigError) as caught:
        net.apply_fault(FaultEvent(**fault))
    assert str(caught.value) == message
    assert net.node("O1").checkpoints.snapshots[-1].tables["mixed"] == before


@pytest.mark.parametrize(
    "fault, message",
    [
        ({"kind": "kill_org", "org": "O9"}, "fault kill_org: org 'O9' is not an organization"),
        ({"kind": "kill_org"}, "fault kill_org: org None is not an organization"),
        (corrupt_fault(3, org="O9"), "fault corrupt_row: org 'O9' is not an organization"),
        ({"kind": "drop_votes", "requester": "O9"},
         "fault drop_votes: requester 'O9' is not an organization"),
        ({"kind": "tamper_vote", "org": "O1", "responder": "O4"},
         "fault tamper_vote: responder 'O4' is not an organization"),
        ({"kind": "kil_org", "org": "O1"}, "unknown fault kind 'kil_org'"),
        ({"kind": "equivocate_orderer", "org": "O2"}, "fault equivocate_orderer: missing block_id"),
        ({**corrupt_fault(3), "table": None}, "fault corrupt_row: missing table"),
        ({**corrupt_fault(3), "value": None}, "fault corrupt_row: missing value"),
    ],
)
def test_run_refuses_a_fault_on_an_unknown_organization_before_tick_0(fault, message):
    net = make_net()
    with pytest.raises(ConfigError) as caught:
        net.run(basic_schedule(), faults=[{"at_tick": 3, **fault}])
    assert str(caught.value) == message
    assert net.report.events() == [] and net.node("O1").height == 0


# ---- agreement wiring ----


def test_predicate_refusal_rejects_before_ordering():
    net = make_net(
        agreement_policies={"acct": ["O1"]},
        predicates={"O1": {"acct": ["T.bal <= 500"]}},
    )
    report = net.run(
        [
            (0, "alice", DDL),
            (1, "alice", "INSERT INTO acct (id, bal) VALUES (1, 100);"),
            (2, "alice", "INSERT INTO acct (id, bal) VALUES (2, 501);"),
        ]
    )
    assert report.first("O1", REJECT) is not None
    # only the DDL and the in-budget insert were ordered
    committed = net.node("O2").ledger
    all_sql = [rec.sql for b in committed.blocks for rec in b.transactions]
    assert not any("501" in sql for sql in all_sql)
    assert any("100" in sql for sql in all_sql)
    assert all(len(n.db.table("acct").rows) == 1 for n in net.nodes.values())


def test_rejected_submission_returns_dissent():
    net = make_net(
        agreement_policies={"acct": ["O1", "O2"]},
        predicates={"O2": {"acct": ["T.bal <= 50"]}},
    )
    net.run([(0, "alice", DDL)])
    outcome = net.submit("alice", "INSERT INTO acct (id, bal) VALUES (1, 75);")
    assert isinstance(outcome, Rejected)
    assert outcome.dissenting == ("O2",)


# ---- configuration ----


def test_config_validation():
    with pytest.raises(ConfigError):
        NetworkConfig(orgs=[])
    with pytest.raises(ConfigError):
        NetworkConfig(orgs=[OrgConfig("O1"), OrgConfig("O1")])
    with pytest.raises(ConfigError):
        NetworkConfig(orgs=[OrgConfig("O1")], min_matching=2)
    with pytest.raises(ConfigError):
        NetworkConfig(orgs=[OrgConfig("O1")], min_matching=1, blocksize=0)


def test_config_from_json():
    text = json.dumps(
        {
            "organizations": [
                {"id": "O1", "quirks": {"decimal_rounding": "truncate"}},
                {"id": "O2", "engine_delay": 3},
                {"id": "O3", "sessions": 4},
            ],
            "min_matching": 2,
            "blocksize": 64,
            "checkpoint_interval": 0,
            "agreement_policies": {"acct": ["O1"]},
        }
    )
    config = NetworkConfig.from_dict(json.loads(text))
    assert [o.org_id for o in config.orgs] == ["O1", "O2", "O3"]
    assert config.orgs[0].quirks.decimal_rounding.value == "truncate"
    assert config.orgs[1].engine_delay == 3
    assert config.orgs[2].sessions == 4
    assert config.blocksize == 64
    assert config.checkpoint_interval == 0
    assert config.agreement_policies == {"acct": ["O1"]}


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"checkpoint_interval": -2}, "checkpoint_interval must not be negative"),
        ({"organizations": [{"id": "O1", "engine_delay": -1}]},
         "organization O1: engine_delay must not be negative"),
    ],
)
def test_config_refuses_negative_checkpoint_and_delay_fields(fields, message):
    with pytest.raises(ConfigError) as caught:
        NetworkConfig.from_dict({"organizations": [{"id": "O1"}], "min_matching": 1, **fields})
    assert str(caught.value) == message


def test_config_rejects_zero_sessions():
    with pytest.raises(ConfigError, match="sessions must be at least 1"):
        OrgConfig.from_dict({"id": "O1", "sessions": 0})
    with pytest.raises(ConfigError, match="sessions"):
        OrgConfig("O1", sessions=-1)


def test_config_refuses_the_recovery_strategy_field():
    """Recovery has one path now; a config that still picks one fails
    loudly rather than running a different recovery than it names."""
    raw = {"organizations": [{"id": "O1"}], "min_matching": 1}
    for strategy in ("full_replay", "optimized_partial_replay", None):
        with pytest.raises(ConfigError, match="^recovery_strategy is gone: "):
            NetworkConfig.from_dict({**raw, "recovery_strategy": strategy})


@pytest.mark.parametrize("capacity", [0, -1, 3])
def test_config_refuses_the_checkpoint_capacity_field(capacity):
    """Every organization keeps the newest CHECKPOINTS_KEPT checkpoints; a
    config that still sizes the ring fails rather than being ignored."""
    raw = {"organizations": [{"id": "O1"}], "min_matching": 1, "checkpoint_capacity": capacity}
    with pytest.raises(ConfigError) as caught:
        NetworkConfig.from_dict(raw)
    assert str(caught.value) == (
        f"checkpoint_capacity is gone: every organization keeps its newest {CHECKPOINTS_KEPT} "
        "checkpoints, each a snapshot of every table"
    )


THREE_ORGS = {"organizations": [{"id": "O1"}, {"id": "O2"}, {"id": "O3"}], "min_matching": 2}


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"agreement_policies": {"acct": "O1"}}, "agreement_policies: acct must be a list, not 'O1'"),
        (
            {"agreement_policies": {"acct": ["O1", "O9"]}},
            "agreement_policies: acct names unknown organization 'O9'",
        ),
        ({"predicates": {"O9": {"acct": ["T.id >= 1"]}}}, "predicates: unknown organization 'O9'"),
        (
            {"predicates": {"O1": {"acct": [1]}}},
            "predicates O1: acct must be a list of strings, not [1]",
        ),
        ({"predicates": {"O1": {"acct": 7}}}, "predicates O1: acct must be a list, not 7"),
        (
            {"predicates": {"O1": {"acct": "T.id >= 1"}}},
            "predicates O1: acct must be a list, not 'T.id >= 1'",
        ),
        ({"predicates": {"O1": ["acct"]}}, "predicates: O1 must be an object, not ['acct']"),
        (
            {"agreement_policies": {"acct": [["O1"]]}},
            "agreement_policies: acct must be a list of strings, not [['O1']]",
        ),
        (
            {"organizations": ["identity"]},
            "config: organizations must be a list of objects, not ['identity']",
        ),
    ],
)
def test_config_rejects_malformed_agreement_wiring(fields, message):
    with pytest.raises(ConfigError) as caught:
        NetworkConfig.from_dict({**THREE_ORGS, **fields})
    assert str(caught.value) == message


def test_fault_rejects_a_pk_that_is_not_a_list():
    raw = {"at_tick": 1, "kind": "corrupt_row", "org": "O1", "table": "acct", "column": "bal"}
    with pytest.raises(ConfigError, match="fault: pk must be a list, not '12'"):
        FaultEvent.from_dict({**raw, "pk": "12"})
    assert FaultEvent.from_dict({**raw, "pk": ["1", 2]}).pk == ("1", 2)


@pytest.mark.parametrize("name", ["org", "table", "column", "requester", "responder"])
def test_a_fault_name_field_that_is_not_a_string_fails_cleanly(name):
    """A fault script naming an organization, table or column with a
    non-string is refused with ConfigError when read, and Network.run
    refuses it before tick 0 instead of failing on an unhashable value."""
    fault = {**corrupt_fault(3), "requester": "O1", "responder": "O2", name: ["O1"]}
    with pytest.raises(ConfigError) as caught:
        FaultEvent.from_dict(fault)
    assert str(caught.value) == f"fault: {name} must be a string, not ['O1']"
    net = make_net()
    with pytest.raises(ConfigError, match=f"^fault: {name} must be a string"):
        net.run(basic_schedule(), faults=[fault])
    assert net.report.events() == [] and net.node("O1").height == 0
    fault[name] = None  # null stands for the field left out
    assert getattr(FaultEvent.from_dict(fault), name) is None


def test_config_out_dir_that_is_not_a_string_fails_cleanly():
    with pytest.raises(ConfigError) as caught:
        NetworkConfig.from_dict({**THREE_ORGS, "out_dir": ["out"]})
    assert str(caught.value) == "config: out_dir must be a string, not ['out']"
    assert NetworkConfig.from_dict({**THREE_ORGS, "out_dir": None}).out_dir is None
    assert NetworkConfig.from_dict({**THREE_ORGS, "out_dir": "out"}).out_dir == "out"


# ---- runs after the first ----


def test_a_second_run_finishes_a_carried_execution_at_its_own_tick_0():
    """O1 is still executing block 21 when the first run stops at tick 105,
    its busy time; the second run finishes it at its tick 0, not at 105."""
    orgs = [OrgConfig("O1", engine_delay=5), OrgConfig("O2"), OrgConfig("O3")]
    net = make_net(orgs=orgs, blocksize=1)
    report = net.run(basic_schedule(bumps=40), max_ticks=104)
    assert net.node("O1").height == 20
    assert [(l.block, l.tick) for l in report.events("O1", EXEC_START)][-1] == (21, 100)
    first_run = len(report.lines)
    net.run([])
    second = [(l.tick, l.event, l.block) for l in report.lines[first_run:] if l.org == "O1"]
    assert second[:3] == [(0, EXEC_DONE, 21), (0, COMMIT, 21), (0, EXEC_START, 22)]


def test_a_vote_rule_that_expired_in_the_first_run_stays_expired():
    net = make_net()
    gag = {"at_tick": 0, "kind": "drop_votes", "requester": "O1", "until_tick": 3}
    report = net.run([(0, "alice", DDL), (0, "alice", SEED)], faults=[gag])
    assert report.commits("O1") == [(1, 3)]
    bump = "UPDATE acct SET bal = bal + 1 WHERE id = 1;"
    net.run([(0, "bob", bump), (0, "bob", bump)])
    assert report.commits("O1") == [(1, 3), (2, 0)]


def test_a_vote_rule_that_ends_one_past_a_quiet_run_stays_expired():
    """The first run is quiet after stepping tick 0, so a rule that ends at
    tick 1 is over; the second run's tick 0 comes after it, as it would
    after a run stopped by its tick budget."""
    net = make_net()
    gag = {"at_tick": 0, "kind": "drop_votes", "requester": "O1", "block_from": 2, "until_tick": 1}
    report = net.run([(0, "alice", DDL), (0, "alice", SEED)], faults=[gag])
    assert report.commits("O1") == [(1, 0)]
    bump = "UPDATE acct SET bal = bal + 1 WHERE id = 1;"
    net.run([(0, "bob", bump), (0, "bob", bump)])
    assert report.commits("O1") == [(1, 0), (2, 0)]


def test_a_second_run_ends_a_carried_recovery_window_at_its_relative_tick():
    """O1's recovery window opens at tick 6 and ends at tick 12.  The first
    run stops after tick 9, so the second run ends the window at its tick 2
    and O1's next execution, 3 ticks long, at its tick 5."""
    orgs = [OrgConfig("O1", engine_delay=3), OrgConfig("O2"), OrgConfig("O3")]
    net = make_net(orgs=orgs, checkpoint_interval=2)
    report = net.run(basic_schedule(bumps=8), faults=[corrupt_fault(6)], max_ticks=9)
    assert report.first("O1", RECOVER_START).tick == 6
    assert report.first("O1", RECOVER_DONE) is None and net.tick == 10
    first_run = len(report.lines)
    net.run([])
    second = [(l.tick, l.event, l.block) for l in report.lines[first_run:] if l.org == "O1"]
    assert second[:5] == [
        (2, RECOVER_DONE, 2), (2, COMMIT, 2), (2, EXEC_START, 3), (5, EXEC_DONE, 3), (5, COMMIT, 3)
    ]


def test_a_vote_rule_carried_into_the_second_run_expires_at_its_relative_tick():
    """The rule ends at tick 12 of the first run, which stops after tick 5:
    O1 commits at tick 12 - 6 of the second."""
    net = make_net()
    gag = {"at_tick": 0, "kind": "drop_votes", "requester": "O1", "until_tick": 12}
    report = net.run([(0, "alice", DDL), (0, "alice", SEED)], faults=[gag], max_ticks=5)
    assert report.commits("O1") == [] and net.tick == 6
    net.run([])
    assert report.commits("O1") == [(1, 6)]
    assert report.events(kind=STALLED) == []


def test_a_run_stopped_by_its_budget_drops_its_unused_inputs():
    """A fault at tick 40 and a submission at tick 50 of a run stopped after
    tick 10 happen neither in that run nor in the next."""
    net = make_net()
    late = "UPDATE acct SET bal = bal + 1000 WHERE id = 3;"
    schedule = basic_schedule(bumps=2) + [(50, "carol", late)]
    report = net.run(schedule, faults=[corrupt_fault(40)], max_ticks=10)
    assert net.tick == 11
    net.run([])
    assert net.tick == 1
    assert report.events(kind=CORRUPT) == [] and report.events(kind=CORRUPT_MISSED) == []
    committed = [rec.sql for block in net.node("O1").ledger.blocks for rec in block.transactions]
    assert committed == [sql for _, _, sql in schedule[:-1]]
    assert {node.height for node in net.nodes.values()} == {2}


@pytest.mark.parametrize(
    "fault, message",
    [
        ({"at_tick": -1, "kind": "kill_org", "org": "O2"},
         "fault kill_org: at_tick -1 is negative"),
        ({"at_tick": 4, "kind": "drop_votes", "until_tick": 4},
         "fault drop_votes: until_tick 4 is not after at_tick 4"),
        ({"at_tick": 4, "kind": "tamper_vote", "until_tick": 2},
         "fault tamper_vote: until_tick 2 is not after at_tick 4"),
    ],
)
def test_run_refuses_malformed_ticks_before_tick_0(fault, message):
    net = make_net()
    with pytest.raises(ConfigError) as caught:
        net.run(basic_schedule(), faults=[fault])
    assert str(caught.value) == message
    with pytest.raises(ConfigError) as caught:
        net.run(basic_schedule() + [(-3, "bob", SEED)])
    assert str(caught.value) == "schedule: tick -3 is negative"
    assert net.report.events() == [] and net.node("O1").height == 0


# ---- when a run ends ----


def test_a_blocksize_cut_that_empties_the_queue_ends_the_run_in_its_tick():
    """The DDL waits alone in the queue from tick 0, so it would time out at
    tick 3; the seed fills the block at tick 1 and every organization
    commits there, so the run ends at tick 1."""
    net = make_net(block_timeout=3)
    report = net.run([(0, "alice", DDL), (1, "alice", SEED)])
    assert report.commits("O1") == [(1, 1)]
    assert net.tick == 2


def test_a_vote_rule_still_to_end_does_not_keep_a_quiet_run_going():
    """O1 hears no vote from O2 until tick 30, but O3's vote gives it its
    quorum at tick 0: nobody waits, so the run ends there."""
    net = make_net()
    gag = {"at_tick": 0, "kind": "drop_votes", "requester": "O1", "responder": "O2",
           "until_tick": 30}
    report = net.run([(0, "alice", DDL), (0, "alice", SEED)], faults=[gag])
    assert [report.commits(org) for org in ("O1", "O2", "O3")] == [[(1, 0)]] * 3
    assert net.tick == 1


def test_a_killed_organization_s_open_window_does_not_keep_the_run_going():
    """O3 would finish block 1 at tick 5, but it is killed at tick 2, when
    O1 and O2 have committed everything: the run ends at tick 2."""
    orgs = [OrgConfig("O1"), OrgConfig("O2"), OrgConfig("O3", engine_delay=5)]
    net = make_net(orgs=orgs)
    report = net.run([(0, "alice", DDL), (0, "alice", SEED)],
                     faults=[{"at_tick": 2, "kind": "kill_org", "org": "O3"}])
    assert report.events("O3", EXEC_DONE) == [] and report.lines[-1].event == KILL
    assert net.tick == 3


def test_an_organization_behind_its_peers_catches_up_one_block_a_tick():
    """O1 recovers by full replay from tick 4 to tick 9 while its peers
    commit blocks 6-10.  Each block it then executes commits at once, and
    it starts the next one at the next tick: the run ends at tick 13."""
    net = make_net(checkpoint_interval=0, blocksize=1)
    report = net.run(basic_schedule(bumps=8), faults=[corrupt_fault(4)])
    assert report.first("O1", RECOVER_DONE).tick == 9
    starts = [(l.block, l.tick) for l in report.events("O1", EXEC_START) if l.block > 5]
    assert starts == [(6, 9), (7, 10), (8, 11), (9, 12), (10, 13)]
    assert net.tick == 14


# ---- forming blocks delivered a chunk at a time ----

# Blocks of ten are cut at tick 4 (blocksize) or 7 (block_timeout 3); the seed
# block is cut at tick 3.
STREAMED = dict(blocksize=10, block_timeout=3)


def bumps(count, tick=4):
    return [
        (tick, "bob", f"UPDATE acct SET bal = bal + {i + 1} WHERE id = {i % 3 + 1};")
        for i in range(count)
    ]


def run_bytes(net, schedule, faults=()):
    text = net.run(schedule, faults).to_text()
    return text, {org: node.ledger.to_bytes() for org, node in net.nodes.items()}


@pytest.fixture
def deliveries(monkeypatch):
    """Every delivery to an organization, as (org, round, transactions,
    forming), with forming blocks streamed three transactions to a chunk."""
    seen = []
    receive = org_module.OrgNode.receive_action

    def recorded(node, action, forming=False):
        seen.append((node.org_id, action.round_id, action.transactions, forming))
        return receive(node, action, forming)

    monkeypatch.setattr(keys, "CHUNK_TRANSACTIONS", 3)
    monkeypatch.setattr(org_module.OrgNode, "receive_action", recorded)
    return seen


def unstreamed(schedule, faults=()):
    """The report and ledgers of a run whose blocks of at most ten
    transactions are never streamed: each is delivered whole at its cut."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(keys, "CHUNK_TRANSACTIONS", STREAMED["blocksize"])
        return run_bytes(make_net(**STREAMED), schedule, faults)


def test_orderer_hands_over_a_chunk_once_a_later_transaction_of_its_block_is_queued(
    monkeypatch,
):
    monkeypatch.setattr(keys, "CHUNK_TRANSACTIONS", 2)
    orderer = Orderer(blocksize=5, block_timeout=100)
    queued, handed = [ct(i) for i in range(12)], []
    for transaction in queued:
        forming = orderer.submit(transaction, tick=0)
        handed.append(forming and (forming.round_id, forming.transactions))
    # in blocks of five, the transactions at 2 and 4 start a later chunk
    assert handed == [
        None, None, (1, tuple(queued[:2])), None, (1, tuple(queued[:4])),
        None, None, (2, tuple(queued[5:7])), None, (2, tuple(queued[5:9])),
        None, None,
    ]
    first, second = orderer.tick(0)
    assert (first.transactions, second.transactions) == (tuple(queued[:5]), tuple(queued[5:10]))
    # block 3 holds what is still queued, so it goes on from there
    assert orderer.submit(ct(12), tick=0) == org_module.Action(3, tuple(queued[10:12]))


def test_an_equivocation_victim_never_gets_the_last_transaction_before_the_cut(deliveries):
    schedule = [(0, "alice", DDL), (0, "alice", SEED), *bumps(10)]
    faults = [{"at_tick": 1, "kind": "equivocate_orderer", "org": "O3", "block_id": 2}]
    expected = unstreamed(schedule, faults)
    deliveries.clear()

    assert run_bytes(make_net(**STREAMED), schedule, faults) == expected
    [block] = {txns for org, round_id, txns, forming in deliveries
               if round_id == 2 and not forming and org == "O1"}
    streamed = [(org, txns) for org, round_id, txns, forming in deliveries
                if round_id == 2 and forming]
    assert sorted({len(txns) for _, txns in streamed}) == [3, 6, 9]
    assert all(txns == block[: len(txns)] for _, txns in streamed)
    assert all(all(ct is not block[-1] for ct in txns) for _, txns in streamed)
    [victim_cut] = [txns for org, round_id, txns, forming in deliveries
                    if round_id == 2 and not forming and org == "O3"]
    assert victim_cut == block[:-1]  # everything it has was streamed already


def test_a_block_cut_by_timeout_is_delivered_whole(deliveries):
    schedule = [(0, "alice", DDL), (0, "alice", SEED), *bumps(7)]
    expected = unstreamed(schedule)
    deliveries.clear()

    net = make_net(**STREAMED)
    assert run_bytes(net, schedule) == expected
    assert [l.tick for l in net.report.events("orderer", CUT)] == [3, 7]
    for org in net.nodes:
        mine = [(len(txns), forming) for o, round_id, txns, forming in deliveries
                if o == org and round_id == 2]
        assert mine == [(3, True), (6, True), (7, False)]
        assert len(net.node(org).ledger.block(2).transactions) == 7


def test_a_kill_drops_the_streamed_checks_of_a_forming_round(deliveries):
    net = make_net(**STREAMED)
    net.run([(0, "alice", DDL), (0, "alice", SEED), *bumps(7)], max_ticks=4)
    victim = net.node("O3")
    action, verdicts = victim.verifying[2]
    assert verdicts.forming and len(action.transactions) == 6
    assert victim.executable_action() is None  # a forming round never executes
    streamed = weakref.ref(verdicts)
    del action, verdicts

    net.run([], [{"at_tick": 0, "kind": "kill_org", "org": "O3"}])
    assert streamed() is None and victim.verifying == {}
    assert not unread_verdicts()
    assert [node.height for node in net.nodes.values()] == [2, 2, 1]
    assert [l.block for l in net.report.events("O3", EXEC_START)] == [1]


def test_every_queued_signature_is_verified_exactly_once(monkeypatch):
    """Without policies each organization checks the client signature of
    each transaction: three signatures a transaction, each verified once, by
    by the worker, whether its block was streamed or not.  Each client
    here submits one proposal a tick, a batch of one, so no two signatures
    share a batch root (tests/test_batch_sign.py counts those)."""
    built = []
    signature_jobs = agreement_module.signature_jobs

    def counted(*args):
        job = signature_jobs(*args)
        built.append(len(job or ()))
        return job

    monkeypatch.setattr(org_module.agmt, "signature_jobs", counted)
    worker = keys.signature_worker()
    assert list(worker.verify([()])) == [True] and not worker._waiting
    before = worker.worker_signatures, worker.here_signatures
    size = 2 * keys.CHUNK_TRANSACTIONS + 7
    net = make_net(blocksize=size, block_timeout=3)
    schedule = [(0, "alice", DDL), (1, "alice", SEED)] + [
        (tick, f"client {i}", sql) for i, (tick, _, sql) in enumerate(bumps(2 * size))
    ]
    net.run(schedule)
    assert [node.height for node in net.nodes.values()] == [3, 3, 3]
    assert not worker._waiting
    assert worker.worker_signatures - before[0] == sum(built) == 3 * len(schedule)
    assert worker.here_signatures == before[1]
