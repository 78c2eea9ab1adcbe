"""Deterministic multi-org simulation: ordering, faults, and the report."""

import json
from decimal import Decimal

import pytest

from effectledger import ledger as ledger_module
from effectledger import org as org_module
from effectledger.agreement import ChainedTransaction, Rejected, make_proposal
from effectledger.engine.database import Database
from effectledger.errors import ConfigError
from effectledger.keys import derive_private_key
from effectledger.ledger import verify_ledger
from effectledger.network import (
    COMMIT,
    CORRUPT,
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
    FaultEvent,
    Network,
    NetworkConfig,
    Orderer,
    OrgConfig,
    SimulationReport,
    load_fault_script,
)

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


def test_report_header_and_round_trip():
    net = make_net()
    report = net.run(basic_schedule(bumps=2))
    lines = report.to_text().splitlines()
    assert lines[0] == REPORT_HEADER
    assert lines[1] == REPORT_COLUMNS
    parsed = SimulationReport.parse(report.to_text())
    assert parsed.lines == report.lines


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
    vote wakes it; it starts the buffered block 3 in that same tick."""
    net, report = deaf_to_o4_with_o3_corrupted()
    assert dict(report.commits("O1"))[2] == 5
    assert (2, 5) in [(l.block, l.tick) for l in report.events("O3", EXEC_DONE)]
    assert [l.tick for l in report.events("O1", EXEC_START) if l.block == 3] == [5]


def test_identical_fault_runs_are_byte_identical():
    (first_net, first), (second_net, second) = (deaf_to_o4_with_o3_corrupted() for _ in range(2))
    assert first.to_text() == second.to_text()
    for org in first_net.nodes:
        assert first_net.node(org).ledger.to_bytes() == second_net.node(org).ledger.to_bytes()


def test_fetch_state_serves_committed_state_while_a_round_is_pending():
    schedule = basic_schedule(bumps=2)
    committed = make_net()
    committed.run(schedule[:2])  # block 1 only
    net = make_net(checkpoint_interval=1)
    gag = {"at_tick": 0, "kind": "drop_votes", "block_from": 2}
    net.run(schedule, faults=[gag], max_ticks=8)
    node = net.node("O1")
    assert node.height == 1 and node.pending is not None  # block 2 executed, not committed
    assert node.db.state_hash() != committed.node("O1").db.state_hash()
    snapshots, block = net.fetch_state("O3")("O1", 1)
    assert block == node.ledger.block(1)
    fetched = Database()
    fetched.restore_all(snapshots)
    assert fetched.state_hash() == committed.node("O1").db.state_hash()


def test_each_org_hashes_each_committed_block_once(monkeypatch):
    hashed = []
    for module in (ledger_module, org_module):
        def counted(block, original=module.block_hash):
            hashed.append(block.block_id)
            return original(block)

        monkeypatch.setattr(module, "block_hash", counted)
    net = make_net()
    net.run(basic_schedule())
    heights = [node.height for node in net.nodes.values()]
    assert sorted(hashed) == sorted(b for h in heights for b in range(1, h + 1))


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


def test_orderer_flush_drains_partial_block():
    orderer = Orderer(blocksize=100, block_timeout=100)
    orderer.submit(ct(0), tick=0)
    orderer.submit(ct(1), tick=0)
    (action,) = orderer.flush()
    assert action.round_id == 1 and len(action.transactions) == 2
    assert orderer.empty and orderer.flush() == []


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
    assert not net.node("O1").excluded
    states = {node.db.state_hash() for node in net.nodes.values()}
    heads = {node.ledger.head_hash() for node in net.nodes.values()}
    assert len(states) == 1 and len(heads) == 1


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


def test_equivocation_excludes_victim():
    net = make_net()
    fault = {"at_tick": 1, "kind": "equivocate_orderer", "org": "O2", "block_id": 2}
    report = net.run(basic_schedule(bumps=6), faults=[fault])
    assert report.first("O2", EQUIVOCATE) is not None
    assert report.first("O2", NONCONSENT).block == 2
    assert report.first("O2", EXCLUDED) is not None
    assert net.node("O2").excluded
    # the two honest orgs keep going without the victim
    assert net.node("O1").height == net.node("O3").height >= 4
    assert 2 in [b for b, _ in report.commits("O1")]


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


def test_rule_activation_window_and_block_range():
    net = make_net()
    rule = FaultEvent(
        at_tick=2,
        kind="drop_votes",
        requester="O1",
        responder="O2",
        until_tick=5,
        block_from=2,
        block_to=3,
    )
    net.tick = 3
    assert net._rule_active(rule, "O1", "O2", 2)
    assert not net._rule_active(rule, "O3", "O2", 2)  # other requester
    assert not net._rule_active(rule, "O1", "O3", 2)  # other responder
    assert not net._rule_active(rule, "O1", "O2", 1)  # below block range
    assert not net._rule_active(rule, "O1", "O2", 4)  # above block range
    net.tick = 1
    assert not net._rule_active(rule, "O1", "O2", 2)  # before window
    net.tick = 5
    assert not net._rule_active(rule, "O1", "O2", 2)  # window closed


def test_unknown_fault_kind_rejected():
    net = make_net()
    with pytest.raises(ConfigError):
        net.apply_fault(FaultEvent(at_tick=0, kind="set_on_fire", org="O1"))


def test_fault_script_loads_json():
    text = json.dumps([corrupt_fault(3), {"at_tick": 5, "kind": "kill_org", "org": "O2"}])
    events = load_fault_script(text)
    assert [e.kind for e in events] == ["corrupt_row", "kill_org"]
    assert events[0].pk == (1,)


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


@pytest.mark.parametrize("pk", [[2, "5", "2.50"], [1, "6", "2.50"], [1, "5", "2.51"], [1, "5"]])
def test_corrupt_row_rejects_a_missing_row(pk):
    net = make_net()
    net.run([(0, "alice", MIXED_DDL), (0, "alice", MIXED_ROW)])
    fault = FaultEvent(at_tick=0, kind="corrupt_row", org="O1", table="mixed",
                       pk=tuple(pk), column="v", value=1)
    with pytest.raises(ConfigError):
        net.apply_fault(fault)


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
    config = NetworkConfig.from_json(
        json.dumps(
            {
                "organizations": [
                    {"id": "O1", "quirks": {"decimal_rounding": "truncate"}},
                    {"id": "O2", "engine_delay": 3},
                    {"id": "O3", "sessions": 4},
                ],
                "min_matching": 2,
                "blocksize": 64,
                "recovery_strategy": "full_replay",
                "agreement_policies": {"acct": ["O1"]},
            }
        )
    )
    assert [o.org_id for o in config.orgs] == ["O1", "O2", "O3"]
    assert config.orgs[0].quirks.decimal_rounding.value == "truncate"
    assert config.orgs[1].engine_delay == 3
    assert config.orgs[2].sessions == 4
    assert config.blocksize == 64
    assert config.recovery_strategy.value == "full_replay"
    assert config.agreement_policies == {"acct": ["O1"]}


def test_throughput_helper():
    net = make_net()
    net.run(basic_schedule(bumps=6))
    assert net.throughput("O1") > 0
    assert net.throughput("O1", ramp_ticks=10_000) == 0.0
