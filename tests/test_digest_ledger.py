"""Change digests, block serialization, and hash-chain verification."""

import hashlib
import struct

import pytest
from hypothesis import given, strategies as st

from effectledger.errors import ChainGap, CorruptLedgerFile
from effectledger.ledger import (
    EMPTY_SHA256,
    GENESIS_PREVIOUS,
    BlockDigest,
    ChangeType,
    Ledger,
    LedgerBlock,
    TransactionRecord,
    block_hash,
    build_ledger_block,
    compute_hash_digest,
    parse_ledger_bytes,
    verify_ledger,
)


def row_h(tag: bytes) -> bytes:
    return hashlib.sha256(tag).digest()


def make_chain(num_blocks, txns_per_block=2):
    """A valid linked chain with one digest tuple per block."""
    blocks = []
    prev = GENESIS_PREVIOUS
    for bid in range(1, num_blocks + 1):
        digest = BlockDigest()
        digest.record("t", b"%d" % bid, row_h(b"row%d" % bid), ChangeType.INSERT)
        txns = tuple(
            TransactionRecord(
                f"c{j}", f"UPDATE t SET v = {bid * 10 + j} WHERE k = 1;", ("O1", "O2")
            )
            for j in range(txns_per_block)
        )
        successful = tuple(j % 2 == 0 for j in range(txns_per_block))
        blocks.append(build_ledger_block(bid, txns, successful, digest, prev))
        prev = block_hash(blocks[-1])
    return blocks


# ---- digest tuples ----


def test_serials_count_per_pk():
    d = BlockDigest()
    d.record("a", b"1", row_h(b"x"), ChangeType.INSERT)
    d.record("a", b"1", row_h(b"y"), ChangeType.UPDATE)
    d.record("a", b"2", row_h(b"z"), ChangeType.INSERT)
    d.record("b", b"1", row_h(b"w"), ChangeType.INSERT)
    assert [t.serial for t in d.tuples] == [0, 1, 0, 0]
    assert len(d.tuples_for("a")) == 3


def test_digest_hash_matches_inline_oracle():
    d = BlockDigest()
    d.record("t2", b"9", row_h(b"c"), ChangeType.INSERT)
    d.record("t1", b"5", row_h(b"a"), ChangeType.INSERT)
    d.record("t1", b"5", row_h(b"b"), ChangeType.DELETE)
    # sort by (table, pk, serial): t1/5/0, t1/5/1, t2/9/0
    expected = hashlib.sha256(row_h(b"a") + row_h(b"b") + row_h(b"c")).digest()
    assert compute_hash_digest(d) == expected


def test_empty_digest_is_empty_string_hash():
    assert compute_hash_digest([]) == EMPTY_SHA256
    assert EMPTY_SHA256 == hashlib.sha256(b"").digest()


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["t1", "t2"]),
            st.integers(0, 50),
            st.binary(min_size=4, max_size=4),
        ),
        max_size=12,
        unique_by=lambda e: (e[0], e[1]),
    ),
    st.randoms(use_true_random=False),
)
def test_digest_hash_arrival_order_irrelevant(entries, rng):
    """With distinct (table, pk) keys, any arrival order hashes the same."""
    ordered = BlockDigest()
    for table, pk, rh in entries:
        ordered.record(table, b"%d" % pk, row_h(rh), ChangeType.UPDATE)
    shuffled_entries = list(entries)
    rng.shuffle(shuffled_entries)
    shuffled = BlockDigest()
    for table, pk, rh in shuffled_entries:
        shuffled.record(table, b"%d" % pk, row_h(rh), ChangeType.UPDATE)
    assert compute_hash_digest(ordered) == compute_hash_digest(shuffled)


def test_same_pk_sequence_is_order_sensitive():
    """Serials preserve per-key change order, so swapping it must show up."""
    ab, ba = BlockDigest(), BlockDigest()
    ab.record("t", b"1", row_h(b"a"), ChangeType.INSERT)
    ab.record("t", b"1", row_h(b"b"), ChangeType.UPDATE)
    ba.record("t", b"1", row_h(b"b"), ChangeType.INSERT)
    ba.record("t", b"1", row_h(b"a"), ChangeType.UPDATE)
    assert compute_hash_digest(ab) != compute_hash_digest(ba)


# ---- block serialization ----


def test_serialization_layout_oracle():
    block = LedgerBlock(
        block_id=3,
        transactions=(
            TransactionRecord("c1", "SQL A", ("O1", "O2")),
            TransactionRecord("c2", "SQL B"),
        ),
        successful=(True, False),
        hash_digest=b"\xaa" * 32,
        hash_previous=b"\xbb" * 32,
    )
    expected = (
        struct.pack(">QI", 3, 2)
        + struct.pack(">I", 2) + b"c1"
        + struct.pack(">I", 5) + b"SQL A"
        + struct.pack(">I", 2)
        + struct.pack(">I", 2) + b"O1"
        + struct.pack(">I", 2) + b"O2"
        + struct.pack(">I", 2) + b"c2"
        + struct.pack(">I", 5) + b"SQL B"
        + struct.pack(">I", 0)
        + struct.pack(">I", 2) + bytes([0b10000000])
        + b"\xaa" * 32
        + b"\xbb" * 32
    )
    assert block.serialize() == expected


def test_bitlist_is_msb_first_and_multibyte():
    flags = (True, False, True, True, False, False, True, False, True)
    block = LedgerBlock(
        block_id=1,
        transactions=tuple(TransactionRecord("c", "S") for _ in flags),
        successful=flags,
        hash_digest=EMPTY_SHA256,
        hash_previous=GENESIS_PREVIOUS,
    )
    raw = block.serialize()
    bits = raw[-64 - 2 : -64]  # two bitlist bytes sit just before the hashes
    assert bits == bytes([0b10110010, 0b10000000])


def test_bitlist_length_mismatch_rejected():
    with pytest.raises(ValueError):
        LedgerBlock(1, (TransactionRecord("c", "S"),), (), EMPTY_SHA256, EMPTY_SHA256)


def test_round_trip():
    blocks = make_chain(4, txns_per_block=3)
    data = b"".join(b.serialize() for b in blocks)
    assert parse_ledger_bytes(data) == blocks


@given(
    st.lists(
        st.tuples(
            st.text(max_size=8),
            st.text(max_size=20),
            st.lists(st.text(min_size=1, max_size=4), max_size=3),
            st.booleans(),
        ),
        max_size=6,
    )
)
def test_round_trip_any_transactions(entries):
    txns = tuple(TransactionRecord(c, s, tuple(orgs)) for c, s, orgs, _ in entries)
    flags = tuple(ok for _, _, _, ok in entries)
    block = LedgerBlock(1, txns, flags, EMPTY_SHA256, GENESIS_PREVIOUS)
    assert parse_ledger_bytes(block.serialize()) == [block]


def test_parse_truncated_raises():
    data = make_chain(2)[0].serialize()
    with pytest.raises(CorruptLedgerFile):
        parse_ledger_bytes(data[:-5])


def test_build_accepts_precomputed_digest_hash():
    block = build_ledger_block(1, (), (), b"\xcc" * 32, GENESIS_PREVIOUS)
    assert block.hash_digest == b"\xcc" * 32


# ---- verification ----


def test_verify_valid_chain():
    result = verify_ledger(make_chain(10))
    assert result.ok and result.block_count == 10
    assert bool(result)


def test_verify_empty_ok():
    assert verify_ledger([]).ok


def test_tamper_in_block_content_breaks_next_link():
    blocks = make_chain(10)
    data = bytearray(b"".join(b.serialize() for b in blocks))
    base = sum(len(b.serialize()) for b in blocks[:4])
    sql_start = base + 12 + 4 + len("c0") + 4
    data[sql_start] ^= 0x01
    result = verify_ledger(bytes(data))
    assert not result.ok
    assert result.first_bad_block == 6  # block 6 committed to block 5's bytes


def test_verify_detects_id_gap():
    blocks = make_chain(3)
    renumbered = LedgerBlock(
        7,
        blocks[1].transactions,
        blocks[1].successful,
        blocks[1].hash_digest,
        blocks[1].hash_previous,
    )
    result = verify_ledger([blocks[0], renumbered, blocks[2]])
    assert not result.ok and result.first_bad_block == 2


def test_verify_unparseable_bytes():
    result = verify_ledger(b"\xff" * 40)
    assert not result.ok
    assert result.block_count == 0
    assert result.first_bad_block == 1


def test_last_block_tamper_needs_trusted_head():
    blocks = make_chain(10)
    head = block_hash(blocks[-1])
    data = bytearray(b"".join(b.serialize() for b in blocks))
    data[-1] ^= 0xFF  # inside block 10's hash_previous field
    tampered = bytes(data)
    assert not verify_ledger(tampered).ok  # chained field still caught
    # non-chained field of the head block: only a trusted head catches it
    data2 = bytearray(b"".join(b.serialize() for b in blocks))
    data2[-40] ^= 0xFF  # inside block 10's hash_digest field
    assert verify_ledger(bytes(data2)).ok
    result = verify_ledger(bytes(data2), expected_head=head)
    assert not result.ok and result.first_bad_block == 10


def test_expected_head_on_intact_ledger():
    blocks = make_chain(3)
    head = block_hash(blocks[-1])
    assert verify_ledger(blocks, expected_head=head).ok
    assert not verify_ledger(blocks, expected_head=b"\x00" * 32).ok
    assert not verify_ledger([], expected_head=head).ok


def test_an_empty_ledger_verifies_against_the_genesis_head():
    ledger = Ledger()
    assert ledger.head_hash() == GENESIS_PREVIOUS
    assert verify_ledger(ledger, expected_head=ledger.head_hash()).ok
    assert verify_ledger(b"", expected_head=GENESIS_PREVIOUS).ok


@given(st.binary(min_size=32, max_size=32).filter(lambda head: head != GENESIS_PREVIOUS))
def test_an_empty_ledger_fails_against_any_other_head(head):
    result = verify_ledger(Ledger(), expected_head=head)
    assert not result.ok and (result.block_count, result.first_bad_block) == (0, 1)


# ---- the append-only ledger ----


def test_append_enforces_chain(tmp_path):
    blocks = make_chain(3)
    ledger = Ledger()
    ledger.append(blocks[0])
    with pytest.raises(ChainGap):
        ledger.append(blocks[2])  # skips id 2
    rewired = LedgerBlock(
        2, blocks[1].transactions, blocks[1].successful, blocks[1].hash_digest, b"\x00" * 32
    )
    with pytest.raises(ChainGap):
        ledger.append(rewired)
    ledger.append(blocks[1])
    assert ledger.height == 2
    assert ledger.head_hash() == block_hash(blocks[1])


def test_empty_ledger_head_is_genesis():
    assert Ledger().head_hash() == GENESIS_PREVIOUS


def test_block_accessor():
    ledger = Ledger()
    for b in make_chain(3):
        ledger.append(b)
    assert ledger.block(2).block_id == 2
    with pytest.raises(ChainGap):
        ledger.block(4)
    with pytest.raises(ChainGap):
        ledger.block(0)


def test_stored_hash_reads_the_chain():
    ledger = Ledger()
    blocks = make_chain(3)
    for b in blocks:
        ledger.append(b)
    assert [ledger.stored_hash(i) for i in (1, 2, 3)] == [block_hash(b) for b in blocks]
    for missing in (0, 4):
        with pytest.raises(ChainGap):
            ledger.stored_hash(missing)


def test_file_mirroring_and_load(tmp_path):
    path = tmp_path / "org.ledger"
    ledger = Ledger(path)
    blocks = make_chain(5)
    for b in blocks:
        ledger.append(b)
    ledger.close()
    assert path.read_bytes() == ledger.to_bytes()
    loaded = Ledger.load(path)
    assert loaded.blocks == blocks
    assert loaded.head_hash() == ledger.head_hash() == block_hash(blocks[-1])
    assert verify_ledger(loaded).ok


def test_load_verifies_the_chain(tmp_path):
    path = tmp_path / "d.ledger"
    ledger = Ledger(path, durable=True)
    blocks = make_chain(4)
    for b in blocks:
        ledger.append(b)
    ledger.close()
    data = bytearray(path.read_bytes())
    end_of_block_3 = sum(len(b.serialize()) for b in blocks[:3])
    data[end_of_block_3 - 1] ^= 0x01  # the last byte of block 3's hash_previous
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptLedgerFile, match="^block 3: previous-hash mismatch$") as caught:
        Ledger.load(path)
    assert caught.value.block_id == 3


def test_durable_ledger_appends(tmp_path):
    path = tmp_path / "d.ledger"
    ledger = Ledger(path, durable=True)
    for b in make_chain(2):
        ledger.append(b)
    # durable appends are already on disk before close
    assert path.read_bytes() == ledger.to_bytes()
    ledger.close()
