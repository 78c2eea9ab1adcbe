"""Per-block change digests and the hash-chained ledger.

Every row mutation inside a block emits a digest tuple (table, pk, serial,
row-hash, change type).  The block's digest hash is the SHA-256 over all row
hashes sorted by (table, pk, serial), so emission order never matters.  A
ledger block packs the ordered transaction list, the success bitlist, the
digest hash, and the previous block hash; its own identity is the SHA-256 of
its canonical serialization.

Canonical block layout (all integers big-endian):

    block_id       u64
    txn_count      u32
      per transaction:
        client_len u32, client utf-8
        sql_len    u32, sql utf-8
        agreed_cnt u32, then per org: len u32, org utf-8
    bit_count      u32, then ceil(n/8) bytes, MSB-first, 1 = success
    hash_digest    32 raw bytes
    hash_previous  32 raw bytes

A ledger file is the plain concatenation of block serializations.  Signature
bytes never enter the hashed region; signer identities do.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import NamedTuple

from .errors import ChainGap, CorruptLedgerFile

# SHA-256 of zero bytes: digest hash of a block that changed nothing, and the
# previous-hash of the first block.
EMPTY_SHA256 = bytes.fromhex(
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)
GENESIS_PREVIOUS = EMPTY_SHA256

_MAX_FIELD = 1 << 30  # parser sanity bound for length prefixes


class ChangeType(str, Enum):
    INSERT = "I"
    UPDATE = "U"
    DELETE = "D"


class DigestTuple(NamedTuple):
    table: str
    pk: bytes  # canonical primary-key encoding
    serial: int  # per-pk counter within the block, from 0
    row_hash: bytes  # SHA-256 of the row (post-change; pre-delete for D)
    change_type: ChangeType


class BlockDigest:
    """Change capture for one block, across all shared tables.

    Acts as the per-table digest tables of a real deployment: record() appends
    a tuple and assigns the next serial for that (table, pk).  Cleared at every
    block boundary by constructing a fresh instance.  Fed by the one thread
    that runs the block.  Two transactions that change the same row never
    share a stage, so a row's serials, and with them the digest hash, are the
    same whatever order a stage's members run in.
    """

    def __init__(self):
        self._tuples: list[DigestTuple] = []
        self._serials: dict[tuple[str, bytes], int] = {}

    def record(self, table: str, pk: bytes, row_hash: bytes, change_type: ChangeType):
        key = (table, pk)
        serial = self._serials.get(key, 0)
        self._serials[key] = serial + 1
        self._tuples.append(DigestTuple(table, pk, serial, row_hash, change_type))

    @property
    def tuples(self) -> tuple[DigestTuple, ...]:
        return tuple(self._tuples)

    def tuples_for(self, table: str) -> tuple[DigestTuple, ...]:
        return tuple(t for t in self._tuples if t.table == table)

    def __len__(self) -> int:
        return len(self._tuples)


def compute_hash_digest(tuples) -> bytes:
    """SHA-256 over row hashes sorted by (table, pk, serial).

    Accepts a BlockDigest or any iterable of DigestTuple.  An empty digest
    hashes to the SHA-256 of the empty string.
    """
    if isinstance(tuples, BlockDigest):
        tuples = tuples.tuples
    hasher = hashlib.sha256()
    for t in sorted(tuples, key=itemgetter(0, 1, 2)):  # (table, pk, serial)
        hasher.update(t.row_hash)
    return hasher.digest()


@dataclass(frozen=True)
class TransactionRecord:
    """One ta_list entry: the SQL text plus the identities that signed it."""

    client: str
    sql: str
    agreed_orgs: tuple[str, ...] = ()


@dataclass(frozen=True)
class LedgerBlock:
    block_id: int
    transactions: tuple[TransactionRecord, ...]
    successful: tuple[bool, ...]
    hash_digest: bytes
    hash_previous: bytes

    def __post_init__(self):
        if len(self.transactions) != len(self.successful):
            raise ValueError("success bitlist length must match transaction count")

    def serialize(self) -> bytes:
        out = [struct.pack(">QI", self.block_id, len(self.transactions))]
        for rec in self.transactions:
            for text in (rec.client, rec.sql):
                raw = text.encode("utf-8")
                out.append(struct.pack(">I", len(raw)))
                out.append(raw)
            out.append(struct.pack(">I", len(rec.agreed_orgs)))
            for org in rec.agreed_orgs:
                raw = org.encode("utf-8")
                out.append(struct.pack(">I", len(raw)))
                out.append(raw)
        bits = bytearray((len(self.successful) + 7) // 8)
        for i, ok in enumerate(self.successful):
            if ok:
                bits[i // 8] |= 0x80 >> (i % 8)
        out.append(struct.pack(">I", len(self.successful)))
        out.append(bytes(bits))
        out.append(self.hash_digest)
        out.append(self.hash_previous)
        return b"".join(out)


def block_hash(block: LedgerBlock | bytes) -> bytes:
    """The block's effect hash: SHA-256 of its canonical serialization,
    which block may be already."""
    return hashlib.sha256(block if isinstance(block, bytes) else block.serialize()).digest()


def build_ledger_block(
    block_id: int,
    transactions,
    successful,
    digest,
    hash_previous: bytes,
) -> LedgerBlock:
    """Assemble a block; `digest` may be a BlockDigest or a precomputed hash."""
    hash_digest = digest if isinstance(digest, bytes) else compute_hash_digest(digest)
    return LedgerBlock(
        block_id=block_id,
        transactions=tuple(transactions),
        successful=tuple(bool(b) for b in successful),
        hash_digest=hash_digest,
        hash_previous=hash_previous,
    )


class _Reader:
    def __init__(self, data: bytes, block_id: int):
        self.data = data
        self.pos = 0
        self.block_id = block_id  # for error reporting

    def take(self, n: int) -> bytes:
        if n < 0 or n > _MAX_FIELD or self.pos + n > len(self.data):
            raise CorruptLedgerFile(
                f"block {self.block_id}: truncated or oversized field", self.block_id
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def text(self) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptLedgerFile(
                f"block {self.block_id}: invalid utf-8", self.block_id
            ) from None


def _parse_block(reader: _Reader) -> LedgerBlock:
    block_id = reader.u64()
    txn_count = reader.u32()
    if txn_count > _MAX_FIELD:
        raise CorruptLedgerFile(
            f"block {reader.block_id}: absurd transaction count", reader.block_id
        )
    transactions = []
    for _ in range(txn_count):
        client = reader.text()
        sql = reader.text()
        agreed = tuple(reader.text() for _ in range(reader.u32()))
        transactions.append(TransactionRecord(client, sql, agreed))
    bit_count = reader.u32()
    if bit_count != txn_count:
        raise CorruptLedgerFile(
            f"block {reader.block_id}: bitlist length mismatch", reader.block_id
        )
    bits = reader.take((bit_count + 7) // 8)
    successful = tuple(
        bool(bits[i // 8] & (0x80 >> (i % 8))) for i in range(bit_count)
    )
    hash_digest = reader.take(32)
    hash_previous = reader.take(32)
    return LedgerBlock(block_id, tuple(transactions), successful, hash_digest, hash_previous)


def parse_ledger_bytes(data: bytes) -> list[LedgerBlock]:
    """Parse a concatenated block stream; raises CorruptLedgerFile on damage."""
    blocks = []
    pos = 0
    while pos < len(data):
        reader = _Reader(data, len(blocks) + 1)
        reader.pos = pos
        blocks.append(_parse_block(reader))
        pos = reader.pos
    return blocks


@dataclass
class VerificationResult:
    ok: bool
    block_count: int
    first_bad_block: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_ledger(ledger, expected_head: bytes | None = None) -> VerificationResult:
    """Linear-time chain verification.

    Accepts a Ledger, a block list, or raw file bytes.  Checks that blocks
    parse, ids are gapless from 1, every hash_previous equals the predecessor's
    hash (genesis constant for block 1), and, when a trusted head hash is
    supplied, that the final block hashes to it; an empty ledger's head is
    the genesis constant, as Ledger.head_hash gives.  Without a trusted head,
    damage confined to the last block's non-chained fields is undetectable.
    """
    if isinstance(ledger, Ledger):
        blocks = list(ledger.blocks)
    elif isinstance(ledger, (bytes, bytearray)):
        try:
            blocks = parse_ledger_bytes(bytes(ledger))
        except CorruptLedgerFile as exc:
            return VerificationResult(False, 0, exc.block_id, str(exc))
    else:
        blocks = list(ledger)

    previous = GENESIS_PREVIOUS
    for i, block in enumerate(blocks, start=1):
        if block.block_id != i:
            return VerificationResult(False, len(blocks), i, f"block id {block.block_id} at position {i}")
        if block.hash_previous != previous:
            return VerificationResult(False, len(blocks), i, f"block {i}: previous-hash mismatch")
        previous = block_hash(block)
    if expected_head is not None and previous != expected_head:
        if not blocks:
            return VerificationResult(False, 0, 1, "empty ledger with another expected head")
        return VerificationResult(
            False, len(blocks), len(blocks), f"block {len(blocks)}: head hash mismatch"
        )
    return VerificationResult(True, len(blocks))


class Ledger:
    """Append-only committed block sequence, optionally mirrored to a file.

    With durable=True every append is flushed and fsynced before returning,
    making the commit point a durability point (group-commit economics: the
    cost is per block, so bigger blocks amortize it).  The head hash is kept,
    not recomputed: it is the hash the last append was given or computed.
    """

    def __init__(self, path=None, durable: bool = False):
        self.blocks: list[LedgerBlock] = []
        self._head_hash = GENESIS_PREVIOUS
        self.path = path
        self.durable = durable and path is not None
        self._fh = open(path, "wb") if path is not None else None  # fresh file

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def height(self) -> int:
        return len(self.blocks)

    def head_hash(self) -> bytes:
        return self._head_hash

    def append(
        self, block: LedgerBlock, effect_hash: bytes | None = None, serialized: bytes | None = None
    ):
        """Append the next block.  `effect_hash` is block_hash(block) when the
        caller already holds it; it becomes the head hash unchecked.  So is
        `serialized` block.serialize(), written to the file as it is."""
        if block.block_id != len(self.blocks) + 1:
            raise ChainGap(
                f"expected block {len(self.blocks) + 1}, got {block.block_id}"
            )
        if block.hash_previous != self._head_hash:
            raise ChainGap(f"block {block.block_id}: previous-hash mismatch")
        self.blocks.append(block)
        if serialized is None:
            serialized = block.serialize()
        self._head_hash = block_hash(serialized) if effect_hash is None else effect_hash
        if self._fh is not None:
            self._fh.write(serialized)
            self._fh.flush()
            if self.durable:
                os.fsync(self._fh.fileno())

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def block(self, block_id: int) -> LedgerBlock:
        if not 1 <= block_id <= len(self.blocks):
            raise ChainGap(f"no block {block_id} in ledger of height {len(self.blocks)}")
        return self.blocks[block_id - 1]

    def stored_hash(self, block_id: int) -> bytes:
        """Hash of a committed block, read from the chain instead of
        recomputed: the next block's hash_previous, or the head hash for the
        last block.  append() enforces both links."""
        if not 1 <= block_id <= len(self.blocks):
            raise ChainGap(f"no block {block_id} in ledger of height {len(self.blocks)}")
        if block_id == len(self.blocks):
            return self._head_hash
        return self.blocks[block_id].hash_previous

    def to_bytes(self) -> bytes:
        return b"".join(b.serialize() for b in self.blocks)

    @classmethod
    def load(cls, path) -> "Ledger":
        """The ledger a file holds, not mirrored to it.  CorruptLedgerFile
        naming the first bad block when the bytes do not parse or the chain
        does not verify; the head hash is then the last block's own hash."""
        with open(path, "rb") as fh:
            data = fh.read()
        ledger = cls()
        ledger.blocks = parse_ledger_bytes(data)
        result = verify_ledger(ledger.blocks)
        if not result:
            raise CorruptLedgerFile(result.reason, result.first_bad_block)
        if ledger.blocks:
            ledger._head_hash = block_hash(ledger.blocks[-1])
        return ledger
