"""Proposal signing, endorsement predicates, and chained-transaction checks."""

from decimal import Decimal

import pytest

from effectledger.agreement import (
    Agreement,
    AgreementPolicy,
    AgreementPredicate,
    ChainedTransaction,
    FieldRef,
    LookupRef,
    Rejected,
    TransactionProposal,
    collect_agreements,
    endorsers,
    evaluate_predicate,
    make_agreement,
    make_proposal,
    parse_condition,
    parse_transaction,
    required_orgs,
    verify_chained_transaction,
)
from effectledger.errors import ConfigError
from effectledger.keys import KeyRegistry, derive_private_key

from conftest import run_sql

CLIENT_KEY = derive_private_key("agr:client")
ORG_KEYS = {org: derive_private_key(f"agr:{org}") for org in ("O1", "O2", "O3")}


@pytest.fixture
def registry():
    reg = KeyRegistry()
    reg.register("client", CLIENT_KEY)
    for org, key in ORG_KEYS.items():
        reg.register(org, key)
    return reg


# ---- signatures ----


def test_proposal_sign_verify(registry):
    p = make_proposal("client", "SELECT * FROM t;", CLIENT_KEY)
    assert registry.verify_as("client", p.signature, p.signed_payload())


def test_proposal_digest_binds_client_and_sql():
    a = TransactionProposal("client", "SQL A").digest()
    assert TransactionProposal("client", "SQL B").digest() != a
    assert TransactionProposal("other", "SQL A").digest() != a


def test_agreement_sign_verify(registry):
    p = make_proposal("client", "SELECT * FROM t;", CLIENT_KEY)
    a = make_agreement("O1", p.digest(), True, ORG_KEYS["O1"])
    assert registry.verify_as("O1", a.signature, a.signed_payload())
    assert a.signed_payload() != make_agreement(
        "O1", p.digest(), False, ORG_KEYS["O1"]
    ).signed_payload()


# ---- condition language ----


def test_parse_literal_comparison():
    cond = parse_condition("T.amount <= 500")
    assert cond.lhs == FieldRef("amount")
    assert cond.op == "<="
    assert cond.rhs == 500


def test_parse_decimal_and_string_literals():
    assert parse_condition("T.price = 9.75").rhs == Decimal("9.75")
    assert parse_condition("T.name = 'zelda'").rhs == "zelda"


def test_parse_lookup_with_where_binding():
    cond = parse_condition("T.amount <= stocks.amount WHERE stocks.product = T.product")
    assert cond.rhs == LookupRef("stocks", "amount", "product", FieldRef("product"))


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_condition("amount without qualifier = 5")
    with pytest.raises(ConfigError):
        parse_condition("T.a <> 5")
    with pytest.raises(ConfigError):
        parse_condition("T.a = 5 WHERE T.b = 1")  # WHERE key must be a lookup table


def test_transaction_fields_from_insert(bank_db):
    catalog = {n: bank_db.table(n).schema for n in bank_db.table_names()}
    fields = parse_transaction(
        "INSERT INTO acct (id, owner, bal) VALUES (3, 'carol', 75.50);"
    ).fields(catalog)
    assert fields == {"id": 3, "owner": "carol", "bal": Decimal("75.50")}


def test_transaction_fields_without_column_list_uses_catalog(bank_db):
    catalog = {n: bank_db.table(n).schema for n in bank_db.table_names()}
    fields = parse_transaction("INSERT INTO acct VALUES (4, 'dave', 1);").fields(catalog)
    assert fields["owner"] == "dave"


def test_transaction_fields_from_update_and_where(bank_db):
    fields = parse_transaction("UPDATE acct SET bal = 9.99 WHERE id = 2;").fields({})
    assert fields == {"bal": Decimal("9.99"), "id": 2}


def test_touched_tables_spans_statements():
    sql = "UPDATE a SET x = 1 WHERE k = 1; DELETE FROM b WHERE k = 2;"
    assert parse_transaction(sql).tables == {"a", "b"}
    assert parse_transaction("not sql").tables == set()


def test_dml_tables_exclude_ddl():
    sql = "CREATE TABLE a (k INT, PRIMARY KEY (k)); INSERT INTO b (k) VALUES (1);"
    assert parse_transaction(sql).tables == {"a", "b"}
    assert parse_transaction(sql).dml_tables == {"b"}
    assert parse_transaction("CREATE TABLE only (k INT, PRIMARY KEY (k));").dml_tables == set()


def test_evaluate_literal_predicate(bank_db):
    pred = AgreementPredicate.parse("acct", ["T.bal <= 500"])
    assert evaluate_predicate(pred, {"bal": Decimal("100")}, bank_db)
    assert not evaluate_predicate(pred, {"bal": Decimal("501")}, bank_db)


def test_evaluate_lookup_predicate(bank_db):
    # holds only while the transaction spends no more than the looked-up balance
    pred = AgreementPredicate.parse(
        "acct", ["T.amount <= acct.bal WHERE acct.id = T.payer"]
    )
    assert evaluate_predicate(pred, {"amount": Decimal("250.50"), "payer": 2}, bank_db)
    assert not evaluate_predicate(
        pred, {"amount": Decimal("250.51"), "payer": 2}, bank_db
    )


def test_unresolvable_refuses(bank_db):
    pred = AgreementPredicate.parse("acct", ["T.amount <= acct.bal WHERE acct.id = T.payer"])
    assert not evaluate_predicate(pred, {"amount": Decimal("1")}, bank_db)  # no payer
    assert not evaluate_predicate(
        pred, {"amount": Decimal("1"), "payer": 99}, bank_db
    )  # no row 99
    ghost = AgreementPredicate.parse("acct", ["T.x = ghost.y"])
    assert not evaluate_predicate(ghost, {"x": 1}, bank_db)


def test_ambiguous_lookup_refuses(bank_db):
    run_sql(bank_db, "INSERT INTO acct (id, owner, bal) VALUES (3, 'bob', 7);")
    pred = AgreementPredicate.parse("acct", ["T.amount <= acct.bal WHERE acct.owner = T.who"])
    assert not evaluate_predicate(pred, {"amount": Decimal("1"), "who": "bob"}, bank_db)


def test_type_confusion_refuses(bank_db):
    pred = AgreementPredicate.parse("acct", ["T.amount <= 'lots'"])
    assert not evaluate_predicate(pred, {"amount": Decimal("5")}, bank_db)


def test_conjunction_requires_all(bank_db):
    pred = AgreementPredicate.parse("acct", ["T.a >= 1", "T.a <= 10"])
    assert evaluate_predicate(pred, {"a": 5}, bank_db)
    assert not evaluate_predicate(pred, {"a": 11}, bank_db)


# ---- collection and verification ----

POLICIES = {"acct": AgreementPolicy("acct", ("O1", "O2"))}


def evaluator_for(org, verdict=True):
    def evaluate(proposal):
        return make_agreement(org, proposal.digest(), verdict, ORG_KEYS[org])

    return evaluate


def test_required_orgs_by_table():
    update = parse_transaction("UPDATE acct SET bal = 1 WHERE id = 1;")
    assert required_orgs(update, POLICIES) == ("O1", "O2")
    assert required_orgs(parse_transaction("SELECT * FROM other;"), POLICIES) == ()


def test_collect_agreements_chains(registry):
    p = make_proposal("client", "UPDATE acct SET bal = 1 WHERE id = 1;", CLIENT_KEY)
    ct = collect_agreements(
        p, endorsers(p.sql, POLICIES), {"O1": evaluator_for("O1"), "O2": evaluator_for("O2")}
    )
    assert isinstance(ct, ChainedTransaction)
    assert ct.agreed_orgs == ("O1", "O2")
    assert verify_chained_transaction(ct, POLICIES, registry)


def test_collect_agreements_rejects_on_dissent():
    p = make_proposal("client", "UPDATE acct SET bal = 1 WHERE id = 1;", CLIENT_KEY)
    out = collect_agreements(
        p,
        endorsers(p.sql, POLICIES),
        {"O1": evaluator_for("O1"), "O2": evaluator_for("O2", verdict=False)},
    )
    assert isinstance(out, Rejected)
    assert out.dissenting == ("O2",)
    assert "predicate refused" in out.reasons[0]


def test_collect_agreements_unreachable_org_rejects():
    p = make_proposal("client", "UPDATE acct SET bal = 1 WHERE id = 1;", CLIENT_KEY)
    out = collect_agreements(p, endorsers(p.sql, POLICIES), {"O1": evaluator_for("O1")})
    assert isinstance(out, Rejected)
    assert out.dissenting == ("O2",)


def test_untouched_tables_need_no_agreements(registry):
    p = make_proposal("client", "SELECT * FROM other;", CLIENT_KEY)
    ct = collect_agreements(p, endorsers(p.sql, POLICIES), {})
    assert isinstance(ct, ChainedTransaction)
    assert ct.agreements == ()
    assert verify_chained_transaction(ct, POLICIES, registry)


def chained(sql="UPDATE acct SET bal = 1 WHERE id = 1;"):
    p = make_proposal("client", sql, CLIENT_KEY)
    return collect_agreements(
        p, endorsers(sql, POLICIES), {"O1": evaluator_for("O1"), "O2": evaluator_for("O2")}
    )


def test_verify_rejects_unknown_client(registry):
    ct = chained()
    stranger = ChainedTransaction(
        TransactionProposal("nobody", ct.proposal.sql, ct.proposal.signature),
        ct.agreements,
    )
    assert not verify_chained_transaction(stranger, POLICIES, registry)


def test_verify_rejects_altered_sql(registry):
    ct = chained()
    altered = ChainedTransaction(
        TransactionProposal(
            ct.proposal.client,
            "UPDATE acct SET bal = 999999 WHERE id = 1;",
            ct.proposal.signature,
        ),
        ct.agreements,
    )
    assert not verify_chained_transaction(altered, POLICIES, registry)


def test_verify_rejects_stripped_agreement(registry):
    ct = chained()
    stripped = ChainedTransaction(ct.proposal, ct.agreements[:1])
    assert not verify_chained_transaction(stripped, POLICIES, registry)


def test_verify_rejects_forged_agreement(registry):
    ct = chained()
    forged = Agreement("O2", ct.proposal.digest(), True, b"not a signature")
    assert not verify_chained_transaction(
        ChainedTransaction(ct.proposal, (ct.agreements[0], forged)), POLICIES, registry
    )


def test_verify_rejects_negative_verdict_smuggled_in(registry):
    ct = chained()
    refusal = make_agreement("O2", ct.proposal.digest(), False, ORG_KEYS["O2"])
    assert not verify_chained_transaction(
        ChainedTransaction(ct.proposal, (ct.agreements[0], refusal)), POLICIES, registry
    )


def test_verify_rejects_agreement_for_other_transaction(registry):
    ct = chained()
    other = make_proposal("client", "DELETE FROM acct WHERE id = 1;", CLIENT_KEY)
    misbound = make_agreement("O2", other.digest(), True, ORG_KEYS["O2"])
    assert not verify_chained_transaction(
        ChainedTransaction(ct.proposal, (ct.agreements[0], misbound)), POLICIES, registry
    )
