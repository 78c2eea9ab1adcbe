"""Seeded whole-network scenarios: generated configurations, schedules and
fault scripts, with invariants checked on every run.

- No two organizations commit different hashes at one height.
- A second run of the same scenario gives a byte-identical report and
  byte-identical ledgers.
- Every run ends quiescent or STALLED before its tick budget.  The last
  input comes by tick 30 (a vote rule's expiry); in 1200 generated
  scenarios the latest end was tick 82.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from effectledger.engine.types import QuirkConfig
from effectledger.errors import ConfigError
from effectledger.network import STALLED, FaultKind, Network, NetworkConfig, OrgConfig

DDL = "CREATE TABLE acct (id INT, bal DECIMAL(12, 2), PRIMARY KEY (id));"
SEED = "INSERT INTO acct (id, bal) VALUES (1, 100), (2, 200), (3, 300);"
# truncation and ties-to-even agree on 0.004 and disagree on 0.006
AMOUNTS = ("1", "0.004", "2.5", "0.006")
MAX_TICKS = 300
# By this tick every organization has executed the seed block: it is cut by
# tick 3 (block_timeout at most 3) and executed within two engine delays.
AFTER_SEED = 8
# A corrupt_snapshot before the organization's first checkpoint is refused
# mid-run, the same way in every run of the scenario.
NO_CHECKPOINT = "corrupt_snapshot: no checkpoint to corrupt"


@st.composite
def scenarios(draw):
    """(NetworkConfig arguments, schedule, fault script)."""
    count = draw(st.integers(3, 4))
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
    bumps = draw(st.lists(st.tuples(st.integers(1, 12), st.sampled_from(AMOUNTS),
                                    st.integers(1, 3)), min_size=4, max_size=12))
    schedule = [(0, "alice", DDL), (0, "alice", SEED)] + [
        (tick, "bob", f"UPDATE acct SET bal = bal + {amount} WHERE id = {row};")
        for tick, amount, row in bumps
    ]
    kinds = [k for k in FaultKind if interval or k is not FaultKind.CORRUPT_SNAPSHOT]
    faults = [
        draw(fault(kind, names)) for kind in draw(st.lists(st.sampled_from(kinds), max_size=3))
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


def run_scenario(config, schedule, faults):
    """(report text or the refusal, {org: ledger bytes}, network)."""
    net = Network(NetworkConfig(**config))
    try:
        outcome = net.run(schedule, faults, max_ticks=MAX_TICKS).to_text()
    except ConfigError as exc:
        assert str(exc) == NO_CHECKPOINT
        outcome = exc
    return outcome, {org: node.ledger.to_bytes() for org, node in net.nodes.items()}, net


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenarios())
def test_generated_scenarios_keep_the_network_invariants(scenario):
    outcome, ledgers, net = run_scenario(*scenario)

    # one hash per height across every organization's ledger
    top = max(node.height for node in net.nodes.values())
    for height in range(1, top + 1):
        assert len({node.ledger.stored_hash(height) for node in net.nodes.values()
                    if node.height >= height}) == 1

    # a second run gives the same bytes
    again, ledgers_again, _ = run_scenario(*scenario)
    assert ledgers_again == ledgers
    if isinstance(outcome, ConfigError):
        assert isinstance(again, ConfigError)
        return
    assert again == outcome

    # it ended quiescent or stalled, not at the tick budget: every live
    # organization left with a pending round is reported STALLED on it
    assert net.tick <= MAX_TICKS
    left_pending = {
        (org, rt.node.pending.action.round_id)
        for org, rt in net.runtimes.items() if rt.live and rt.node.pending is not None
    }
    assert {(l.org, l.block) for l in net.report.events(kind=STALLED)} == left_pending
