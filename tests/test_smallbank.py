"""Banking workload generator: determinism, sampling, and statement shapes."""

import random
import re
from collections import Counter

import pytest
from scipy import stats

from effectledger.engine.database import Database
from effectledger.engine.parser import parse_script
from effectledger.errors import ConfigError
from effectledger.scheduler import access_set, build_dependency_graph
from effectledger.smallbank import (
    CHECKING_DDL,
    MAX_BALANCE,
    MIN_BALANCE,
    SAVINGS_DDL,
    AccountSampler,
    SmallbankConfig,
    bootstrap_transactions,
    build_schedule,
    generate_workload,
)

UPDATE_RE = re.compile(
    r"UPDATE (checking|savings) SET bal = bal (\+|-) (\d+\.\d{3}) "
    r"WHERE custid = (\d+);"
)


def workload(n=200, seed=7, **over):
    cfg = SmallbankConfig(num_users=over.pop("num_users", 50), **over)
    return list(generate_workload(cfg, seed=seed, count=n))


def test_same_seed_same_stream():
    assert workload() == workload()


def test_different_seeds_differ():
    assert workload(seed=7) != workload(seed=8)


def test_default_count_is_fire_rate_times_clients():
    cfg = SmallbankConfig(num_users=10, fire_rate=5, clients=3)
    assert len(list(generate_workload(cfg, seed=1))) == 15


def test_statements_parse_and_match_shapes():
    for sql in workload(n=300):
        statements = parse_script(sql)
        assert 1 <= len(statements) <= 2
        for chunk in sql.strip().split("; "):
            chunk = chunk if chunk.endswith(";") else chunk + ";"
            assert UPDATE_RE.fullmatch(chunk), chunk


def test_send_payment_never_pays_self():
    two_sided = [sql for sql in workload(n=2000, num_users=3) if sql.count(";") == 2]
    assert two_sided  # the generator produced some payments
    for sql in two_sided:
        src, dst = re.findall(r"custid = (\d+)", sql)
        assert src != dst


def test_amounts_have_three_fractional_digits():
    seen_third_digit = set()
    for sql in workload(n=500):
        for amount in re.findall(r"bal (?:\+|-) (\d+\.\d+)", sql):
            whole, frac = amount.split(".")
            assert len(frac) == 3
            seen_third_digit.add(frac[2])
    # the third digit is what the scale-2 column rounds away; it must vary
    assert len(seen_third_digit) > 3


def test_bootstrap_shapes():
    rng = random.Random(11)
    txns = bootstrap_transactions(10, rng, batch=4)
    assert txns[0] == CHECKING_DDL and txns[1] == SAVINGS_DDL
    # 10 users in batches of 4 -> 3 inserts per table
    assert len(txns) == 2 + 3 + 3
    balances = [int(b) for b in re.findall(r"\(\d+, (\d+)\)", " ".join(txns[2:]))]
    assert len(balances) == 20
    assert all(MIN_BALANCE <= b <= MAX_BALANCE for b in balances)
    covered = sorted(int(c) for c in re.findall(r"\((\d+), \d+\)", txns[2]))
    assert covered == [1, 2, 3, 4]


def test_bootstrap_is_seed_deterministic():
    a = bootstrap_transactions(20, random.Random(3))
    b = bootstrap_transactions(20, random.Random(3))
    assert a == b


def test_config_validation():
    with pytest.raises(ConfigError):
        SmallbankConfig(num_users=0)
    with pytest.raises(ConfigError):
        SmallbankConfig(distribution="pareto")
    with pytest.raises(ConfigError):
        SmallbankConfig(zipf_s=0)


# ---- account sampling ----


def test_uniform_sampler_covers_range():
    cfg = SmallbankConfig(num_users=6, distribution="uniform")
    sampler = AccountSampler(cfg)
    rng = random.Random(5)
    draws = Counter(sampler.sample(rng) for _ in range(6000))
    assert set(draws) == {1, 2, 3, 4, 5, 6}
    assert max(draws.values()) < 2 * min(draws.values())


def test_zipf_pmf_sums_to_one():
    cfg = SmallbankConfig(num_users=40)
    sampler = AccountSampler(cfg)
    assert sum(sampler.pmf(r) for r in range(1, 41)) == pytest.approx(1.0)
    # rank weights decay monotonically
    probs = [sampler.pmf(r) for r in range(1, 41)]
    assert probs == sorted(probs, reverse=True)
    assert probs[0] > 5 * probs[-1]


def test_zipf_draws_match_pmf_chi_square():
    cfg = SmallbankConfig(num_users=20, zipf_s=1.1)
    sampler = AccountSampler(cfg)
    rng = random.Random(99)
    n = 20_000
    draws = Counter(sampler.sample(rng) for _ in range(n))
    observed = [draws.get(r, 0) for r in range(1, 21)]
    expected = [n * sampler.pmf(r) for r in range(1, 21)]
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.001


def test_zipf_concentrates_on_low_ranks():
    hot = [sql for sql in workload(n=1000, num_users=1000)]
    custs = [int(c) for sql in hot for c in re.findall(r"custid = (\d+)", sql)]
    top_decile = sum(1 for c in custs if c <= 100)
    assert top_decile / len(custs) > 0.4


def test_uniform_workload_parallelizes_better_than_zipf():
    """Contention shows up as conflict-graph stages: skew means deeper graphs."""

    db = Database()
    for ddl in (CHECKING_DDL, SAVINGS_DDL):
        assert db.execute_transaction(ddl).success
    catalog = {name: db.table(name).schema for name in db.table_names()}

    def stage_count(distribution):
        cfg = SmallbankConfig(num_users=2000, distribution=distribution, zipf_s=1.4)
        txns = list(generate_workload(cfg, seed=5, count=64))
        graph = build_dependency_graph(
            [access_set(i, sql, catalog) for i, sql in enumerate(txns)]
        )
        return len(graph.stages)

    assert stage_count("uniform") < stage_count("zipf")


# ---- scheduling ----


def test_build_schedule_round_robin_and_ticks():
    txns = [f"Q{i}" for i in range(10)]
    sched = build_schedule(txns, clients=("a", "b"), start_tick=3, per_tick=4)
    assert sched[0] == (3, "a", "Q0")
    assert sched[1] == (3, "b", "Q1")
    assert sched[4] == (4, "a", "Q4")
    assert sched[9] == (5, "b", "Q9")
    ticks = [t for t, _, _ in sched]
    assert ticks == sorted(ticks)
