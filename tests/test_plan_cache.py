"""Each organization's plan cache returns exactly what the parser returns.

A hit binds a text's literals into a shape learned from an earlier parse; the
properties below check it against parse_script on texts built to be near
misses of each other: digits inside identifiers, literals next to
identifiers, signs, quote escapes, 5 against 5.0 against 5.00, and strings
that hold digits, quotes or ';'; and on bulk loads of 1 to 300 rows that
bind from one row shape, with rows whose separators or kinds differ.
"""

import random

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from effectledger import agreement
from effectledger import org as org_module
from effectledger.engine.parser import PLAN_LIMIT, Bound, PlanCache, parse_script
from effectledger.engine.types import Column, ColumnType, TableSchema
from effectledger.errors import ParseError
from effectledger.smallbank import bootstrap_transactions

from conftest import CLIENT, Cluster


def outcome(parse, sql):
    """The parse's repr, or its error message: repr tells Decimal('1.5') from
    Decimal('1.50') and 5 from Decimal(5), which == does not."""
    try:
        return "ok", repr(parse(sql))
    except ParseError as exc:
        return "error", str(exc)


def cached(cache):
    return lambda sql: cache.parse(sql, parse_script)


# %s marks a literal slot; {t}, {c} and {d} are identifiers.
TEMPLATES = (
    "UPDATE {t} SET {c} = {c} - %s WHERE {c} = %s",
    "UPDATE {t} SET {c}=%s, {d}={d}+%s WHERE {c} BETWEEN %s AND %s",
    "update {t} set {c} = {c} - -%s where {d}<=%s and {c}>%s",
    "INSERT INTO {t} ({c}, {d}) VALUES (%s, %s)",
    "INSERT INTO {t} VALUES (%s,%s), (%s, %s)",
    "DELETE FROM {t} WHERE {c} >= %s AND {d} < %s",
    "SELECT * FROM {t} WHERE {c}=%sAND {d}=%s",
    "SELECT {c}, {d} FROM {t}",
    "CREATE TABLE {t} ({c} INT, {d} DECIMAL(12, %s), PRIMARY KEY ({c}))",
)
IDENTIFIERS = st.sampled_from(["a", "t1", "bal", "c2d", "_x9", "n0"])
INTS = st.integers(0, 10**6).map(str)
DECIMALS = st.sampled_from(["5.0", "5.00", "0.0", "0.000", "12.345"]) | st.builds(
    "{}.{}".format, st.integers(0, 999), st.text("0123456789", min_size=1, max_size=3)
)
STRINGS = st.builds(
    lambda quote, body: quote + body.replace(quote, quote * 2) + quote,
    st.sampled_from("'\""),
    st.text("ab5;'\" -", max_size=6),
)
LITERALS = st.one_of(
    INTS,
    DECIMALS,
    STRINGS,
    st.builds("-{}{}".format, st.sampled_from(["", " "]), INTS | DECIMALS),
)


@st.composite
def near_misses(draw):
    """Two to four texts, most of them sharing a statement shape with a
    different literal in some slot; some cut or padded by one character."""
    templates = draw(st.lists(st.sampled_from(TEMPLATES), min_size=1, max_size=2))
    names = {key: draw(IDENTIFIERS) for key in ("t", "c", "d")}
    shape = "; ".join(templates).format(**names) + draw(st.sampled_from(["", ";", " ; "]))
    texts = []
    for _ in range(draw(st.integers(2, 4))):
        text = shape % tuple(draw(LITERALS) for _ in range(shape.count("%s")))
        if draw(st.integers(0, 3)) == 0:
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(["", "'", "5", "x", ";", "-"])) + text[at + 1:]
        texts.append(text)
    return texts


@settings(max_examples=300, deadline=None)
@given(near_misses())
@example(["UPDATE t SET a = a - -0 WHERE k = 1", "UPDATE t SET a = a - -5 WHERE k = 2"])
@example(["UPDATE t SET a = a - 5 WHERE k = 1", "UPDATE t SET a = a - 0 WHERE k = 2"])
@example(["SELECT * FROM t WHERE a = 5", "SELECT * FROM t WHERE a = 5.0",
          "SELECT * FROM t WHERE a = 5.00", "SELECT * FROM t WHERE a = -5.00"])
@example(["INSERT INTO t VALUES ('it''s 5;')", "INSERT INTO t VALUES (\"say \"\"5\"\"\")",
          "INSERT INTO t VALUES ('x')", "INSERT INTO t VALUES (5')"])
@example(["SELECT * FROM t1 WHERE c2=3AND d=4", "SELECT * FROM t1 WHERE c2=3AND d=44"])
@example(["UPDATE t SET a = 'x' WHERE k = 1", "UPDATE t SET a = 'x WHERE k = 1"])
def test_a_cached_parse_is_the_parsers(texts):
    cache = PlanCache()
    for sql in texts:
        assert outcome(cached(cache), sql) == outcome(parse_script, sql)


# literal texts a bulk-load column may hold, by kind; a number may carry a sign
BULK_LITERALS = {
    "int": ["0", "7", "42", "9223372036854775808"],
    "dec": ["1.5", "1.50", "0.0", "12.345", "0.005"],
    "str": ["'a'", "'it''s'", "''", '"say ""5"""', "'5;'", "'-1'"],
}
SEPARATORS = ["), (", "),(", ") ,\n  (", ")\t,("]


@st.composite
def bulk_loads(draw):
    """Three or four INSERT texts into table t, with one column list or
    none, of 1 to 300 rows.  The texts mostly share a separator, a tail and
    a sign per numeric column, and their rows the kinds drawn for the
    columns; about one text in five has one row with another separator
    before it or a literal of another kind."""
    rng = draw(st.randoms(use_true_random=False))
    kinds = [rng.choice(sorted(BULK_LITERALS)) for _ in range(rng.randint(1, 4))]
    columns = rng.choice(["", f" ({', '.join('abcd'[:len(kinds)])})"])
    texts = []
    for i in range(draw(st.integers(3, 4))):
        if i == 0 or rng.random() < 0.1:
            separator, tail = rng.choice(SEPARATORS), rng.choice([")", ");", ") ;", ")  "])
            signs = [rng.choice(["", "", "-", "- "]) for _ in kinds]
        count = draw(st.integers(1, 300))
        odd = rng.randrange(count) if rng.random() < 0.2 else None
        rows = []
        for n in range(count):
            row_kinds, before = list(kinds), separator
            if n == odd and rng.random() < 0.5:
                before = rng.choice(SEPARATORS)
            elif n == odd:
                row_kinds[rng.randrange(len(kinds))] = rng.choice(sorted(BULK_LITERALS))
            values = (
                (sign if kind != "str" else "") + rng.choice(BULK_LITERALS[kind])
                for kind, sign in zip(row_kinds, signs)
            )
            rows.append((before if n else "") + ", ".join(values))
        texts.append(f"INSERT INTO t{columns} VALUES (" + "".join(rows) + tail)
    return texts


@settings(max_examples=100, deadline=None)
@given(bulk_loads())
@example(["INSERT INTO t VALUES (-7, 'x'), (-0, 'y')", "INSERT INTO t VALUES (-0, 'x')",
          "INSERT INTO t VALUES (-3, 'z'), (-0, 'it''s'), (-5, '')"])
def test_a_bulk_load_binds_what_the_parser_parses(texts):
    cache = PlanCache()
    for sql in texts:
        assert outcome(cached(cache), sql) == outcome(parse_script, sql)
    event(f"bulk loads bound: {min(cache.hits, 2)}")


@pytest.mark.parametrize(
    "odd",
    [
        "INSERT INTO t (a, b) VALUES (3, 'z'), (4, 5);",  # an int where a string was
        "INSERT INTO t (a, b) VALUES (3, 'z'), (4.5, 'w');",  # a decimal where an int was
        "INSERT INTO t (a, b) VALUES (3, 'z'), (-4, 'w');",  # a sign the first row lacks
        "INSERT INTO t (a, b) VALUES (3, 'z'),(4, 'w');",  # another separator
        "INSERT INTO t (a, b) VALUES (3, 'z'), (4, 'w'), (5);",  # a row too short
    ],
)
def test_a_row_unlike_the_first_misses(odd):
    cache = PlanCache()
    for sql in ("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y');", odd):
        assert outcome(cached(cache), sql) == outcome(parse_script, sql)
    assert (cache.hits, cache.misses) == (0, 2)


@st.composite
def catalogs(draw):
    """Schemas for some of the table names the texts use."""
    catalog = {}
    for table in draw(st.lists(st.sampled_from(["t", "a", "t1", "bal"]), unique=True)):
        names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
        columns = tuple(Column(name, ColumnType.INT) for name in names)
        catalog[table] = TableSchema(table, columns, (names[0],))
    return catalog


@settings(max_examples=200, deadline=None)
@given(near_misses() | bulk_loads(), catalogs())
@example(["INSERT INTO t VALUES (1, 2), (3, 4)", "INSERT INTO t VALUES (5, 6), (7, 8), (9, 0)"],
         {"t": TableSchema("t", (Column("a", ColumnType.INT),), ("a",))})
def test_a_bound_reads_its_fields_from_its_plan(texts, catalog):
    """A plan-cache hit answers fields as its built statements do, in the
    same order, without building them."""
    cache = PlanCache()
    for sql in texts:
        parsed = agreement.parse_transaction(sql, cache)
        if type(parsed.statements) is not Bound:
            continue
        fields = parsed.fields(catalog)
        assert parsed.statements._statements is None  # nothing built
        built = agreement.ParsedTransaction(tuple(parsed.statements))
        assert repr(list(fields.items())) == repr(list(built.fields(catalog).items()))


# policies on some of the identifiers near_misses draws as table names
POLICIES = {
    table: agreement.AgreementPolicy(table, orgs)
    for table, orgs in (("a", ("O1",)), ("t1", ("O2", "O3")), ("bal", ("O1", "O3")))
}


@settings(max_examples=200, deadline=None)
@given(near_misses())
@example(["UPDATE t1 SET bal = bal - 5 WHERE a = 1; DELETE FROM bal WHERE n0 = 2",
          "UPDATE t1 SET bal = bal - 7 WHERE a = 3; DELETE FROM bal WHERE n0 = 4"])
def test_a_bound_reads_its_tables_from_its_plan(texts):
    """A plan-cache hit answers tables, dml_tables and required_orgs as its
    built statements do, without building them."""
    cache = PlanCache()
    for sql in texts:
        parsed = agreement.parse_transaction(sql, cache)
        if type(parsed.statements) is not Bound:
            continue
        answers = (parsed.tables, parsed.dml_tables, agreement.required_orgs(parsed, POLICIES))
        assert parsed.statements._statements is None  # nothing built
        built = agreement.ParsedTransaction(tuple(parsed.statements))
        assert answers == (built.tables, built.dml_tables, agreement.required_orgs(built, POLICIES))


def test_texts_of_one_shape_hit_after_the_first():
    cache = PlanCache()
    texts = [f"UPDATE acct SET bal = bal - {n}.{n:02d} WHERE id = {n};" for n in range(1, 6)]
    for sql in texts:
        assert outcome(cached(cache), sql) == outcome(parse_script, sql)
    assert (len(cache), cache.hits, cache.misses) == (1, 4, 1)


@pytest.mark.parametrize(
    "texts",
    [
        ["CREATE TABLE t (a INT, b DECIMAL(12, 2), PRIMARY KEY (a));",
         "CREATE TABLE t (a INT, b DECIMAL(12, 3), PRIMARY KEY (a));"],
        ["INSERT INTO t (a, b) VALUES (1, 2), (3, 4);",
         "INSERT INTO t (a, b) VALUES (5, 6), (7, 8);"],
        bootstrap_transactions(300, random.Random(1))[2:4],
    ],
    ids=["ddl", "multi-row insert", "bulk load"],
)
def test_ddl_is_not_templated_and_a_multi_row_insert_binds_from_its_row_shape(texts):
    """DDL is parsed every time.  The first INSERT teaches its row shape, and
    the second, of another row count in the bulk load, binds from it."""
    cache = PlanCache()
    for sql in texts:
        assert outcome(cached(cache), sql) == outcome(parse_script, sql)
    if texts[0].startswith("CREATE"):
        assert (len(cache), cache.hits, cache.misses) == (0, 0, len(texts))
    else:
        assert (len(cache), cache.hits, cache.misses) == (1, 1, 1)
        assert type(cache.parse(texts[1], parse_script)) is Bound


def test_the_cache_stays_bounded_under_unique_shapes():
    cache = PlanCache()
    texts = [
        "SELECT * FROM t WHERE " + " AND ".join(f"a = {i}" for i in range(n + 1))
        for n in range(PLAN_LIMIT + 10)
    ]
    for sql in texts + texts:
        assert outcome(cached(cache), sql) == outcome(parse_script, sql)
    assert len(cache) == PLAN_LIMIT
    assert (cache.hits, cache.misses) == (PLAN_LIMIT, PLAN_LIMIT + 10 + 10)


@pytest.fixture
def agreement_parses(monkeypatch):
    """SQL texts parsed at agreement.parse_script, where the benchmark's
    tracing counts parses."""
    seen = []

    def counted(sql, original=agreement.parse_script):
        seen.append(sql)
        return original(sql)

    monkeypatch.setattr(agreement, "parse_script", counted)
    return seen


def test_a_miss_parses_through_the_agreement_module(agreement_parses):
    cache = PlanCache()
    first, second = "DELETE FROM t WHERE a = 1;", "DELETE FROM t WHERE a = 2;"
    assert agreement.parse_transaction(first, cache) == agreement.parse_transaction(first)
    assert agreement.parse_transaction(second, cache) == agreement.parse_transaction(second)
    assert agreement_parses == [first, first, second]


def test_a_client_finds_required_organizations_through_its_plan_cache(agreement_parses):
    key = Cluster(count=1, min_matching=1).client_key
    policies = {"acct": agreement.AgreementPolicy("acct", ("O2",))}
    cache = PlanCache()
    for n in (1, 2, 3):
        sql = f"UPDATE acct SET bal = bal + {n} WHERE id = {n};"
        proposal = agreement.make_proposal(CLIENT, sql, key)
        needed = agreement.endorsers(sql, policies, cache)
        rejected = agreement.collect_agreements(proposal, needed, {"O2": lambda p: None})
        assert rejected.dissenting == ("O2",)
    assert (len(agreement_parses), cache.hits, cache.misses) == (1, 2, 1)


def test_organizations_never_share_a_plan_cache():
    cluster = Cluster(count=2, min_matching=2)
    ddl = "CREATE TABLE acct (id INT, bal DECIMAL(12, 2), PRIMARY KEY (id));"
    bumps = [f"UPDATE acct SET bal = bal + {n} WHERE id = {n};" for n in (1, 2)]
    proposals = [agreement.make_proposal(CLIENT, sql, cluster.client_key) for sql in [ddl] + bumps]
    action = org_module.Action(1, tuple(agreement.ChainedTransaction(p) for p in proposals))
    nodes = list(cluster.nodes.values())
    assert nodes[0].plans is not nodes[1].plans
    nodes[0].execute_action(action)
    assert (len(nodes[0].plans), nodes[0].plans.hits) == (1, 1)
    assert (len(nodes[1].plans), nodes[1].plans.hits, nodes[1].plans.misses) == (0, 0, 0)
    nodes[1].execute_action(action)
    assert (len(nodes[1].plans), nodes[1].plans.hits, nodes[1].plans.misses) == (1, 1, 2)
