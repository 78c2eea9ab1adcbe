"""Seeded whole-network scenarios: generated configurations, schedules and
fault scripts, with invariants checked on every run.

- No two organizations commit different hashes at one height.
- Every ledger passes verify_ledger.
- Every live organization with no pending round has the state a fresh full
  replay of its own ledger gives, each replayed block hashing as committed:
  its streamed execution equals replay.  Organizations named by a corrupt
  fault are left out, since recovery from a corrupted checkpoint may keep
  damage that no later block touches; their state agreeing with the network
  is not yet an invariant.
- A second run of the same scenario gives a byte-identical report and
  byte-identical ledgers.
- Every run ends with a report: a corrupt fault whose target does not exist
  yet is a CORRUPT_MISSED line, not an error.
- Some scenarios need an agreement on acct from a random subset of the
  organizations, and one of them may refuse updates of row 1, so endorsement
  runs under every fault kind and some proposals are REJECTed.
- Every run ends quiescent or STALLED before its tick budget.  The last
  input comes by tick 30 (a vote rule's expiry); in 1200 generated
  scenarios the latest end was tick 82.
- With keys.CHUNK_TRANSACTIONS at 1 and blocks of 2 or 3, every
  organization receives each forming block a transaction at a time, under
  every fault kind; the invariants hold, and the report and ledgers equal
  those of a run whose blocks are never streamed.

The pinned examples are scenarios whose end of run moved when a part of
Network.run's end decision was left out: a stale orderer timeout, a vote
rule's end counted while nobody waits, and no step at the tick after a
change while organizations wait.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effectledger import keys
from effectledger.engine.types import QuirkConfig
from effectledger.ledger import verify_ledger
from effectledger.network import STALLED, FaultKind, Network, NetworkConfig, OrgConfig
from effectledger.org import OrgNode

DDL = "CREATE TABLE acct (id INT, bal DECIMAL(12, 2), PRIMARY KEY (id));"
SEED = "INSERT INTO acct (id, bal) VALUES (1, 100), (2, 200), (3, 300);"
# truncation and ties-to-even agree on 0.004 and disagree on 0.006
AMOUNTS = ("1", "0.004", "2.5", "0.006")
MAX_TICKS = 300
# By this tick every organization has executed the seed block: it is cut by
# tick 3 (block_timeout at most 3) and executed within two engine delays.
AFTER_SEED = 8


@st.composite
def scenarios(draw):
    """(NetworkConfig arguments, schedule, fault script)."""
    count = draw(st.integers(3, 5))
    names = [f"O{i + 1}" for i in range(count)]
    orgs = [OrgConfig(name, engine_delay=draw(st.integers(0, 3))) for name in names]
    truncating = draw(st.sampled_from([None, *names]))
    if truncating is not None:
        orgs[names.index(truncating)].quirks = QuirkConfig.from_dict(
            {"decimal_rounding": "truncate"}, "scenario"
        )
    interval = draw(st.integers(0, 3))
    config = dict(
        orgs=orgs,
        min_matching=count // 2 + 1,
        blocksize=draw(st.integers(1, 3)),
        block_timeout=draw(st.integers(1, 3)),
        checkpoint_interval=interval,
    )
    endorsers = draw(st.one_of(st.none(), st.lists(st.sampled_from(names), min_size=1,
                                                    unique=True)))
    if endorsers is not None:
        config["agreement_policies"] = {"acct": endorsers}
        # refuses updates of row 1, but not the seed insert, whose id field is 3
        refusing = draw(st.sampled_from([None, *endorsers]))
        if refusing is not None:
            config["predicates"] = {refusing: {"acct": ["T.id >= 2"]}}
    bumps = draw(st.lists(st.tuples(st.integers(1, 12), st.sampled_from(AMOUNTS),
                                    st.integers(1, 3)), min_size=4, max_size=12))
    schedule = [(0, "alice", DDL), (0, "alice", SEED)] + [
        (tick, "bob", f"UPDATE acct SET bal = bal + {amount} WHERE id = {row};")
        for tick, amount, row in bumps
    ]
    faults = [
        draw(fault(kind, names)) for kind in draw(st.lists(st.sampled_from(FaultKind), max_size=3))
    ]
    return config, schedule, faults


def fault(kind: FaultKind, names):
    """A strategy for one fault of kind.  Faults leave the seed block alone
    (blocks 1-2: two blocks when blocksize is 1) and come after every
    organization executed it, so a corrupt_row always finds its row."""
    org = st.sampled_from(names)
    some_org = st.one_of(st.none(), org)
    after_seed = st.integers(AFTER_SEED, AFTER_SEED + 12)
    named = {"kind": st.just(kind.value)}
    if kind is FaultKind.EQUIVOCATE_ORDERER:
        return st.fixed_dictionaries(
            {**named, "at_tick": st.integers(1, 10), "org": org, "block_id": st.integers(3, 8)}
        )
    if kind is FaultKind.KILL_ORG:
        return st.fixed_dictionaries({**named, "at_tick": after_seed, "org": org})
    if kind in (FaultKind.CORRUPT_ROW, FaultKind.CORRUPT_SNAPSHOT):
        return st.fixed_dictionaries({
            **named, "at_tick": after_seed, "org": org, "table": st.just("acct"),
            "pk": st.integers(1, 3).map(lambda row: [row]), "column": st.just("bal"),
            "value": st.sampled_from(["-1", "999.99"]),
        })
    return st.integers(0, 15).flatmap(lambda at_tick: st.fixed_dictionaries({
        **named, "at_tick": st.just(at_tick), "requester": some_org, "responder": some_org,
        "until_tick": st.one_of(st.none(), st.integers(at_tick + 1, at_tick + 15)),
        "block_from": st.integers(3, 6),
    }))


def pinned(delays, bumps, faults=(), truncating=None, **config):
    """A scenario as scenarios() draws it: organizations O1, O2, ... with
    these engine delays, one of them truncating, and bob's (tick, amount,
    row) bumps after the seed."""
    orgs = [OrgConfig(f"O{i + 1}", engine_delay=delay) for i, delay in enumerate(delays)]
    if truncating is not None:
        orgs[int(truncating[1:]) - 1].quirks = QuirkConfig.from_dict(
            {"decimal_rounding": "truncate"}, "scenario"
        )
    schedule = [(0, "alice", DDL), (0, "alice", SEED)] + [
        (tick, "bob", f"UPDATE acct SET bal = bal + {amount} WHERE id = {row};")
        for tick, amount, row in bumps
    ]
    return dict(orgs=orgs, **config), schedule, list(faults)


def run_scenario(config, schedule, faults):
    """(report text, {org: ledger bytes}, network)."""
    net = Network(NetworkConfig(**config))
    outcome = net.run(schedule, faults, max_ticks=MAX_TICKS).to_text()
    return outcome, {org: node.ledger.to_bytes() for org, node in net.nodes.items()}, net


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenarios())
@example(pinned(
    [2, 0, 0, 0], [(2, "0.006", 3), (1, "1", 3), (8, "0.004", 2), (10, "1", 2), (9, "1", 2),
                   (8, "2.5", 1)],
    [{"kind": "tamper_vote", "at_tick": 11, "requester": "O3", "responder": "O2",
      "until_tick": 26, "block_from": 6}],
    truncating="O1", min_matching=3, blocksize=2, block_timeout=3, checkpoint_interval=3,
))
@example(pinned(
    [1, 1, 0], [(1, "1", 1), (2, "1", 1), (1, "1", 1), (3, "1", 1)],
    min_matching=2, blocksize=2, block_timeout=3, checkpoint_interval=2,
))
@example(pinned(
    [1, 3, 1], [(9, "1", 2), (6, "0.006", 2), (12, "0.006", 2), (7, "1", 2), (9, "0.004", 2),
                (3, "2.5", 1), (10, "2.5", 3), (2, "0.004", 1), (6, "1", 1), (12, "0.006", 1),
                (12, "0.006", 1)],
    [{"kind": "equivocate_orderer", "at_tick": 1, "org": "O1", "block_id": 3},
     {"kind": "corrupt_row", "at_tick": 13, "org": "O3", "table": "acct", "pk": [1],
      "column": "bal", "value": "999.99"},
     {"kind": "tamper_vote", "at_tick": 11, "requester": "O3", "responder": "O3",
      "until_tick": None, "block_from": 4}],
    truncating="O2", min_matching=2, blocksize=3, block_timeout=2, checkpoint_interval=2,
    agreement_policies={"acct": ["O3"]},
))
def test_generated_scenarios_keep_the_network_invariants(scenario):
    outcome, ledgers, net = run_scenario(*scenario)
    check_invariants(scenario, net)

    # a second run gives the same bytes
    again, ledgers_again, _ = run_scenario(*scenario)
    assert ledgers_again == ledgers
    assert again == outcome


@settings(max_examples=30, deadline=None, derandomize=True)
@given(scenarios())
def test_blocks_streamed_a_transaction_at_a_time_keep_the_invariants(scenario):
    config, schedule, faults = scenario
    scenario = dict(config, blocksize=max(2, config["blocksize"])), schedule, faults
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(keys, "CHUNK_TRANSACTIONS", 1)
        outcome, ledgers, net = run_scenario(*scenario)
    check_invariants(scenario, net)

    # streaming moves no byte: blocks of at most 3 are never streamed in
    # chunks of keys.CHUNK_TRANSACTIONS
    assert keys.CHUNK_TRANSACTIONS > 3
    whole, ledgers_whole, _ = run_scenario(*scenario)
    assert ledgers_whole == ledgers
    assert whole == outcome


def check_invariants(scenario, net):
    """Invariants 1-3 and 6 on a network that ran scenario."""

    # one hash per height across every organization's ledger
    top = max(node.height for node in net.nodes.values())
    for height in range(1, top + 1):
        assert len({node.ledger.stored_hash(height) for node in net.nodes.values()
                    if node.height >= height}) == 1

    # every ledger verifies, and replaying it gives the organization's state
    corrupted = {f["org"] for f in scenario[2]
                 if f["kind"] in (FaultKind.CORRUPT_ROW.value, FaultKind.CORRUPT_SNAPSHOT.value)}
    for org, node in net.nodes.items():
        assert verify_ledger(node.ledger, expected_head=node.ledger.head_hash())
        if net.runtimes[org].live and node.pending is None and org not in corrupted:
            replica = OrgNode(org, quirks=node.db.quirks)
            for block in node.ledger.blocks:
                assert replica.replay_committed_block(block) == node.ledger.stored_hash(
                    block.block_id
                )
            assert replica.db.state_hash() == node.db.state_hash()

    # it ended quiescent or stalled, not at the tick budget: every live
    # organization left with a pending round is reported STALLED on it
    assert net.tick <= MAX_TICKS
    left_pending = {
        (org, rt.node.pending.action.round_id)
        for org, rt in net.runtimes.items() if rt.live and rt.node.pending is not None
    }
    assert {(l.org, l.block) for l in net.report.events(kind=STALLED)} == left_pending
