"""Pre-ordering agreement: organizations endorse transactions before they ship.

Tables carry an AgreementPolicy naming the organizations whose signed approval
a transaction touching that table needs.  Each organization may register
predicates per table, written in a restricted condition language: comparisons
between the transaction's literal fields and either literals or single-row
lookups into the evaluating organization's own committed state.  Evaluation is
deterministic and side-effect free; anything unresolvable (missing field, row
not found, unreachable organization) conservatively refuses.

A fully endorsed proposal becomes a ChainedTransaction carrying the client
signature plus one signed agreement per required organization.  A client
signs its proposals, and an endorser its agreements, in batches
(make_proposals, make_agreements): the signatures of a batch share one ECDSA
signature of a Merkle root but each verify alone, in the one format keys
describes; a batch of one is a plain signature.  An endorser signs its
agreements on a prepared chunk as one batch (OrgNode.evaluate_agreement); a
vote is signed alone.  Execution later re-verifies the whole bundle and marks
transactions with missing or invalid agreements failed.  That check has two
halves, so that the signatures can be verified elsewhere in between:
signature_jobs lists them, and finish_verification takes the verdict on
them.  An endorsing organization keeps an Endorsements record, so that its
own list leaves out the checks it made or signed when endorsing.  No code in
the package calls make_proposal, make_agreement or
verify_chained_transaction (the two halves together, verified in this
process): they stay as the tests' batch of one and reference.

A client finds the organizations a proposal needs once (endorsers), and
collect_agreements asks each of them in turn.  Each endorser verifies the
client check in place, in evaluate_agreement, before it evaluates
predicates and signs (network tells with which memo).

Each party parses a transaction's SQL once, into a ParsedTransaction: the
client to find the required organizations (only when policies exist), each
endorser to evaluate its predicates, and each executing organization in
finish_verification, after every signature has checked out.  The
executor's value then feeds the engine.  An organization parses through
its own plan cache (engine.parser.PlanCache), and so does each client of a
Network.
"""

from __future__ import annotations

import hashlib
import re
import struct
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import Decimal
from typing import Union

from . import keys
from .engine.parser import (
    Bound,
    CreateTable,
    Delete,
    Insert,
    PlanCache,
    Select,
    Statement,
    Update,
    parse_script,
)
from .errors import ConfigError, ParseError


def _len_prefixed(*parts: bytes) -> bytes:
    return b"".join(struct.pack(">I", len(p)) + p for p in parts)


def proposal_payload(client: str, sql: str) -> bytes:
    """The bytes a client signs for a proposal; their SHA-256 is its digest."""
    return _len_prefixed(client.encode("utf-8"), sql.encode("utf-8"))


def agreement_payload(org: str, txn_digest: bytes, verdict: bool) -> bytes:
    """The bytes an organization signs for its verdict on a proposal digest."""
    return _len_prefixed(org.encode("utf-8"), txn_digest, b"\x01" if verdict else b"\x00")


@dataclass(frozen=True)
class TransactionProposal:
    client: str
    sql: str
    signature: bytes = b""

    def signed_payload(self) -> bytes:
        return proposal_payload(self.client, self.sql)

    def digest(self) -> bytes:
        return hashlib.sha256(self.signed_payload()).digest()


def make_proposals(client: str, sqls, private_key) -> list[TransactionProposal]:
    """The client's proposals of sqls, signed as one batch (keys.sign_batch)."""
    payloads = [proposal_payload(client, sql) for sql in sqls]
    signatures = keys.sign_batch(private_key, payloads)
    return [TransactionProposal(client, sql, sig) for sql, sig in zip(sqls, signatures)]


def make_proposal(client: str, sql: str, private_key) -> TransactionProposal:
    """A proposal signed alone: a batch of one.

    No code in the package calls it: clients sign through make_proposals.  It
    stays as the tests' batch of one and as a perfbench span target."""
    return make_proposals(client, [sql], private_key)[0]


@dataclass(frozen=True)
class Agreement:
    org: str
    txn_digest: bytes
    verdict: bool
    signature: bytes = b""

    def signed_payload(self) -> bytes:
        return agreement_payload(self.org, self.txn_digest, self.verdict)


def make_agreements(org: str, items, private_key) -> list[Agreement]:
    """The organization's agreements on (txn digest, verdict) items, signed
    as one batch (keys.sign_batch)."""
    payloads = [agreement_payload(org, digest, verdict) for digest, verdict in items]
    signatures = keys.sign_batch(private_key, payloads)
    return [
        Agreement(org, digest, verdict, sig) for (digest, verdict), sig in zip(items, signatures)
    ]


def make_agreement(org: str, txn_digest: bytes, verdict: bool, private_key) -> Agreement:
    """An agreement signed alone: a batch of one."""
    return make_agreements(org, [(txn_digest, verdict)], private_key)[0]


@dataclass(frozen=True)
class ChainedTransaction:
    proposal: TransactionProposal
    agreements: tuple[Agreement, ...] = ()

    @property
    def agreed_orgs(self) -> tuple[str, ...]:
        return tuple(a.org for a in self.agreements)


@dataclass(frozen=True)
class Rejected:
    proposal: TransactionProposal
    dissenting: tuple[str, ...]
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class ParsedTransaction:
    """One transaction's SQL, parsed once by the party that reads it.

    SQL that does not parse, or holds no statement, keeps no statements and
    sets error instead.  Such a transaction touches no table, so it needs no
    agreement, and execution marks it failed.  Each organization builds its
    own value and keeps it no longer than the block it belongs to.  When
    a plan cache bound the statements from a learned shape, statements is
    that engine.parser.Bound, which execution runs compiled.
    """

    statements: Sequence[Statement] = ()
    error: str | None = None

    def __post_init__(self):
        if not self.statements and self.error is None:
            object.__setattr__(self, "error", "empty transaction")

    @property
    def tables(self) -> frozenset[str]:
        """Tables the transaction names; a Bound's come from its plan, which
        builds no statement."""
        statements = self.statements
        if type(statements) is Bound:
            return statements.plan.tables
        return frozenset(
            stmt.schema.name if isinstance(stmt, CreateTable) else stmt.table
            for stmt in statements
        )

    @property
    def dml_tables(self) -> frozenset[str]:
        """Tables the transaction operates on with data statements.

        Creating a table is the act that installs its policy, not an operation
        against existing rows, so DDL never triggers predicate evaluation (the
        predicates' transaction fields would be vacuously unresolvable anyway).
        A Bound holds no DDL, so its tables are its plan's.
        """
        statements = self.statements
        if type(statements) is Bound:
            return statements.plan.tables
        return frozenset(
            stmt.table for stmt in statements if not isinstance(stmt, CreateTable)
        )

    def fields(self, catalog) -> dict[str, object]:
        """Literal fields visible to predicates: inserted values, SET literals,
        and WHERE equality literals.  Later statements, and later rows of an
        INSERT, win on name clashes.  A Bound's come from the slots its plan
        learned once (Plan.fields), and build no statement."""
        statements = self.statements
        if type(statements) is Bound:
            plan = statements.plan
            if plan.fields is None:
                plan.fields = tuple(
                    (names, tuple(slot.n for slot in slots))
                    for names, slots in _field_steps(plan.template)
                )
            bound = statements.values[-1] if plan.rows else statements.values
            steps = ((names, [bound[n] for n in slots]) for names, slots in plan.fields)
        else:
            steps = _field_steps(statements)
        fields: dict[str, object] = {}
        for names, values in steps:
            if type(names) is str:
                schema = catalog.get(names)
                if schema is None:
                    continue
                names = [c.name for c in schema.columns]
            fields.update(zip(names, values))
        return fields


def _field_steps(statements):
    """(names, values) pairs whose zips give the literal fields, in the
    order the statements hold them.  An INSERT without a column list gives
    its table's name, for the catalog to name its columns."""
    for stmt in statements:
        if isinstance(stmt, Insert):
            for row in stmt.rows:
                yield stmt.columns or stmt.table, row
        elif isinstance(stmt, (Update, Delete, Select)):
            if isinstance(stmt, Update):
                for name, expr in stmt.assignments:
                    if expr.is_literal:
                        yield (name,), (expr.terms[0][1],)
            for cond in stmt.where:
                if cond.op == "=":
                    yield (cond.column,), (cond.value,)


def parse_transaction(sql: str, plans: PlanCache | None = None) -> ParsedTransaction:
    """Parse sql, through a party's plan cache when plans is given.

    A cache miss parses with this module's parse_script.
    """
    try:
        statements = parse_script(sql) if plans is None else plans.parse(sql, parse_script)
        return ParsedTransaction(statements if type(statements) is Bound else tuple(statements))
    except ParseError as exc:
        return ParsedTransaction(error=str(exc))


# ---- condition language ----

@dataclass(frozen=True)
class FieldRef:
    """A literal field of the proposed transaction, e.g. T.amount."""

    name: str


@dataclass(frozen=True)
class LookupRef:
    """Single-row lookup in the evaluator's committed state."""

    table: str
    column: str
    match_column: str | None = None
    match_value: Union[FieldRef, int, str, Decimal, None] = None


Operand = Union[FieldRef, LookupRef, int, str, Decimal]

_OPS = {
    "=": lambda a, b: a == b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class PredicateCondition:
    lhs: Operand
    op: str
    rhs: Operand


_TOKEN = r"""(?:'[^']*'|"[^"]*"|-?\d+\.\d+|-?\d+|[A-Za-z_][A-Za-z0-9_.]*)"""
_COND_RE = re.compile(
    rf"^\s*(?P<lhs>{_TOKEN})\s*(?P<op><=|>=|[=<>])\s*(?P<rhs>{_TOKEN})\s*"
    rf"(?:[Ww][Hh][Ee][Rr][Ee]\s+(?P<mcol>[A-Za-z_][A-Za-z0-9_.]*)\s*=\s*(?P<mval>{_TOKEN})\s*)?$"
)


def _parse_operand(text: str):
    if text.startswith(("'", '"')):
        return text[1:-1]
    if re.fullmatch(r"-?\d+\.\d+", text):
        return Decimal(text)
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    if "." not in text:
        raise ConfigError(f"operand {text!r} needs a T. or table. qualifier")
    qualifier, name = text.split(".", 1)
    if qualifier in ("T", "t"):
        return FieldRef(name.lower())
    return LookupRef(qualifier.lower(), name.lower())


def parse_condition(text: str) -> PredicateCondition:
    """One comparison, e.g. "T.amount <= stocks.amount WHERE stocks.product = T.product"."""
    m = _COND_RE.match(text)
    if m is None:
        raise ConfigError(f"cannot parse condition {text!r}")
    lhs = _parse_operand(m.group("lhs"))
    rhs = _parse_operand(m.group("rhs"))
    if m.group("mcol") is not None:
        mcol = _parse_operand(m.group("mcol"))
        mval = _parse_operand(m.group("mval"))
        if not isinstance(mcol, LookupRef):
            raise ConfigError("WHERE key must be a table.column reference")

        def bind(ref):
            if isinstance(ref, LookupRef) and ref.table == mcol.table:
                return LookupRef(ref.table, ref.column, mcol.column, mval)
            return ref

        new_lhs, new_rhs = bind(lhs), bind(rhs)
        if new_lhs is lhs and new_rhs is rhs:
            raise ConfigError("WHERE clause does not match any lookup in the condition")
        lhs, rhs = new_lhs, new_rhs
    return PredicateCondition(lhs, m.group("op"), rhs)


@dataclass(frozen=True)
class AgreementPredicate:
    """Conjunction of conditions an organization applies to one table."""

    table: str
    conditions: tuple[PredicateCondition, ...]

    @classmethod
    def parse(cls, table: str, lines) -> "AgreementPredicate":
        return cls(table, tuple(parse_condition(line) for line in lines))


class _Unresolved(Exception):
    pass


def _resolve(operand, fields: dict, db):
    if isinstance(operand, FieldRef):
        try:
            return fields[operand.name]
        except KeyError:
            raise _Unresolved(f"transaction has no field {operand.name}") from None
    if isinstance(operand, LookupRef):
        table = db.tables.get(operand.table)
        if table is None:
            raise _Unresolved(f"no table {operand.table}")
        schema = table.schema
        try:
            col_idx = schema.column_index(operand.column)
        except Exception:
            raise _Unresolved(f"no column {operand.table}.{operand.column}") from None
        rows = list(table.rows.values())
        if operand.match_column is not None:
            match_value = _resolve(operand.match_value, fields, db)
            try:
                key_idx = schema.column_index(operand.match_column)
            except Exception:
                raise _Unresolved(
                    f"no column {operand.table}.{operand.match_column}"
                ) from None
            rows = [r for r in rows if r[key_idx] == match_value]
        if len(rows) != 1:
            raise _Unresolved(
                f"lookup {operand.table}.{operand.column} matched {len(rows)} rows"
            )
        return rows[0][col_idx]
    return operand


def evaluate_predicate(predicate: AgreementPredicate, fields: dict, db) -> bool:
    """True only when every condition resolves and holds."""
    for cond in predicate.conditions:
        try:
            lhs = _resolve(cond.lhs, fields, db)
            rhs = _resolve(cond.rhs, fields, db)
            if not _OPS[cond.op](lhs, rhs):
                return False
        except (_Unresolved, TypeError):
            return False
    return True


def required_orgs(parsed: ParsedTransaction, policies: dict[str, "AgreementPolicy"]) -> tuple[str, ...]:
    orgs: set[str] = set()
    for table in parsed.tables:
        policy = policies.get(table)
        if policy is not None:
            orgs.update(policy.required_orgs)
    return tuple(sorted(orgs))


@dataclass(frozen=True)
class AgreementPolicy:
    table: str
    required_orgs: tuple[str, ...]


def endorsers(sql: str, policies: dict[str, AgreementPolicy], plans: PlanCache | None = None):
    """The organizations whose agreement a transaction needs, found by the
    client.  Without policies none is required, and the SQL is not parsed;
    with them, the client parses it through plans, its own plan cache, when
    given."""
    return required_orgs(parse_transaction(sql, plans), policies) if policies else ()


def collect_agreements(
    proposal: TransactionProposal,
    needed: tuple[str, ...],
    evaluators: dict[str, object],
) -> Union[ChainedTransaction, Rejected]:
    """Gather signed agreements from every organization in needed, the ones
    the client found with endorsers.

    evaluators maps org id to a callable(proposal) -> Agreement | None; None
    models an unreachable organization and refuses conservatively.
    """
    agreements = []
    dissenting = []
    reasons = []
    for org in needed:
        evaluator = evaluators.get(org)
        agreement = evaluator(proposal) if evaluator is not None else None
        if agreement is None:
            dissenting.append(org)
            reasons.append(f"{org}: unreachable")
        elif not agreement.verdict:
            dissenting.append(org)
            reasons.append(f"{org}: predicate refused")
        else:
            agreements.append(agreement)
    if dissenting:
        return Rejected(proposal, tuple(dissenting), tuple(reasons))
    return ChainedTransaction(proposal, tuple(agreements))


class Endorsements:
    """One organization's record of the proposals it agreed to and has not
    yet received in a block.

    Each entry maps the client check that passed at endorsement, as a
    (client key bytes, signature, signed bytes) tuple, to the Agreement the
    organization signed for that proposal.  signature_jobs takes the entry
    when the transaction arrives in a block, and drops the checks it
    vouches for.  Every check the record drops is one that was verified or
    signed by this organization, byte for byte, so a miss costs only a
    verification.

    Entries are kept in endorsement order.  Taking one drops every older
    entry as well: the orderer is FIFO, so a proposal endorsed earlier and
    not received before this one never reaches this organization (another
    endorser refused it, or the orderer left it out of this organization's
    copy of a block).  The record is never shared between organizations.
    """

    def __init__(self, own_key: bytes):
        self.own_key = own_key  # the organization's public key bytes
        self._entries: OrderedDict[tuple[bytes, bytes, bytes], Agreement] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, client_check: tuple[bytes, bytes, bytes], agreement: Agreement):
        self._entries[client_check] = agreement
        self._entries.move_to_end(client_check)

    def take(self, client_check: tuple[bytes, bytes, bytes]) -> Agreement | None:
        """The agreement recorded for client_check, which leaves the record
        with every older entry; None when there is none."""
        entries = self._entries
        if client_check not in entries:
            return None
        while True:
            check, agreement = entries.popitem(last=False)
            if check == client_check:
                return agreement

    def clear(self):
        self._entries.clear()


def signature_jobs(
    ct: ChainedTransaction,
    registry: keys.KeyRegistry,
    endorsed: Endorsements | None = None,
) -> tuple[tuple[bytes, bytes, bytes], ...] | None:
    """First half of the execution-time check: the signatures to verify.

    One (public key bytes, signature, message) tuple for the client and one
    per agreement, for keys.verify_jobs; None when a check that needs no
    signature fails already: an unknown client or endorser, or an agreement
    on another digest or with a refusing verdict.  A transaction without
    agreements is not digested.

    endorsed is the record of the organization that builds the checks.  It
    drops the client check when the record holds that check byte for byte,
    and the organization's own agreement when it equals the one recorded
    and the registry holds the key it was signed with; the job may then
    hold no check at all.
    """
    proposal = ct.proposal
    client_key = registry.encoded_key(proposal.client)
    if client_key is None:
        return None
    payload = proposal.signed_payload()
    client_check = (client_key, proposal.signature, payload)
    own = None if endorsed is None else endorsed.take(client_check)
    jobs = [] if own is not None else [client_check]
    if ct.agreements:
        digest = hashlib.sha256(payload).digest()
        for agreement in ct.agreements:
            if agreement.txn_digest != digest or not agreement.verdict:
                return None
            org_key = registry.encoded_key(agreement.org)
            if org_key is None:
                return None
            if agreement == own and org_key == endorsed.own_key:
                continue
            jobs.append((org_key, agreement.signature, agreement.signed_payload()))
    return tuple(jobs)


def finish_verification(
    ct: ChainedTransaction,
    signatures_ok: bool,
    policies: dict[str, AgreementPolicy],
    plans: PlanCache | None = None,
) -> ParsedTransaction | None:
    """Second half: parse, then check that every required organization agreed.

    signatures_ok is the verdict on the first half's jobs.  When it is false
    the SQL is not parsed, so a forged transaction costs no parse.  The
    parse goes through plans, the executing organization's plan cache, when
    given.  Without policies no organization is required.
    """
    if not signatures_ok:
        return None
    parsed = parse_transaction(ct.proposal.sql, plans)
    if policies:
        agreed = {agreement.org for agreement in ct.agreements}
        for org in required_orgs(parsed, policies):
            if org not in agreed:
                return None
    return parsed


def verify_chained_transaction(
    ct: ChainedTransaction,
    policies: dict[str, AgreementPolicy],
    registry: keys.KeyRegistry,
) -> ParsedTransaction | None:
    """Execution-time check: client signature plus every required agreement.

    Returns the transaction parsed, for the caller to execute, or None
    when the check fails.  It is the composition of signature_jobs and
    finish_verification, verified in this process; organizations run the same
    halves with the signatures verified by the worker process (OrgNode).  No
    code in the package calls it: it stays as the tests' reference.
    """
    [signatures_ok] = keys.verify_jobs([signature_jobs(ct, registry)])
    return finish_verification(ct, signatures_ok, policies)
