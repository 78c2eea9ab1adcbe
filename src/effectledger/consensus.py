"""Effect-hash voting and the commit decision rule.

Each organization signs one vote per block: (org, block id, effect hash).
A block reaches consensus when some hash is reported by at least
policy.min_matching organizations; the deciding organization commits only if
that hash equals its own.  If two distinct hashes reach the threshold (possible
when min_matching <= n/2) the round counts as having no global consensus.

One consensus attempt polls each peer once and records the answers, and the
rule's outcome, in a ConsensusTranscript.  A peer that is not ready is listed
as missing; waiting for it means another attempt at a later tick.

Votes are idempotent per (org, block): duplicates count once, and each
organization serves its latest vote per block (OrgNode.votes), which lets a
recovered organization replace its earlier divergent vote.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from . import keys
from .errors import ConfigError


@dataclass(frozen=True)
class ConsensusPolicy:
    """min_matching organizations must report equal effect hashes."""

    min_matching: int

    def __post_init__(self):
        if self.min_matching < 1:
            raise ConfigError("min_matching must be at least 1")

    def validate(self, org_count: int):
        if self.min_matching > org_count:
            raise ConfigError(
                f"min_matching {self.min_matching} exceeds {org_count} organizations"
            )


@dataclass(frozen=True)
class HashVote:
    org: str
    block_id: int
    effect_hash: bytes
    signature: bytes = b""

    def signed_payload(self) -> bytes:
        raw_org = self.org.encode("utf-8")
        return struct.pack(">I", len(raw_org)) + raw_org + struct.pack(
            ">Q", self.block_id
        ) + self.effect_hash


def make_vote(org: str, block_id: int, effect_hash: bytes, private_key) -> HashVote:
    vote = HashVote(org, block_id, effect_hash)
    return HashVote(org, block_id, effect_hash, keys.sign(private_key, vote.signed_payload()))


def vote_is_valid(vote: HashVote, expected_org: str, block_id: int, registry) -> bool:
    if vote.org != expected_org or vote.block_id != block_id:
        return False
    if len(vote.effect_hash) != 32:
        return False
    return registry.verify_as(vote.org, vote.signature, vote.signed_payload())


def quorum_hashes(votes: dict[str, bytes], min_matching: int) -> set[bytes]:
    """All hashes reported by at least min_matching organizations, from a
    mapping org -> hash (one vote per organization)."""
    counts = Counter(votes.values())
    return {h for h, n in counts.items() if n >= min_matching}


class ConsensusStatus(str, Enum):
    COMMITTED = "consenting_committed"
    NON_CONSENTING = "non_consenting_local"
    NO_CONSENSUS = "no_global_consensus"


def decide(
    votes: dict[str, bytes], local_org: str, policy: ConsensusPolicy
) -> tuple[ConsensusStatus, bytes | None]:
    """Apply the commit rule to one round's verified votes: the status and
    the unique hash at threshold, if any."""
    quorum = quorum_hashes(votes, policy.min_matching)
    if len(quorum) != 1:  # none, or two hashes at threshold
        return ConsensusStatus.NO_CONSENSUS, None
    winner = next(iter(quorum))
    if votes.get(local_org) == winner:
        return ConsensusStatus.COMMITTED, winner
    return ConsensusStatus.NON_CONSENTING, winner


@dataclass
class ConsensusTranscript:
    """Audit record of one consensus attempt for one block."""

    block_id: int
    local_org: str
    votes: dict[str, bytes] = field(default_factory=dict)  # verified votes only
    invalid: list[str] = field(default_factory=list)  # orgs whose votes failed checks
    missing: list[str] = field(default_factory=list)  # never answered
    status: ConsensusStatus = ConsensusStatus.NO_CONSENSUS
    quorum_hash: bytes | None = None  # the unique hash at threshold, if any


def run_consensus(
    block_id: int,
    local_org: str,
    local_hash: bytes,
    peers,
    policy: ConsensusPolicy,
    fetch_vote,
    registry,
) -> ConsensusTranscript:
    """One consensus attempt: one poll of each peer, then the commit rule.

    fetch_vote(peer, block_id) returns a HashVote, or None when the peer is
    not ready or unreachable; such a peer is listed as missing.  Invalid votes
    (wrong fields or bad signature) are listed as invalid and not counted.
    The caller runs another attempt for the same block, at a later tick, for
    as long as it wants to wait on missing peers.
    """
    transcript = ConsensusTranscript(block_id, local_org)
    transcript.votes[local_org] = local_hash
    for peer in peers:
        vote = fetch_vote(peer, block_id)
        if vote is None:
            transcript.missing.append(peer)
        elif vote_is_valid(vote, peer, block_id, registry):
            transcript.votes[peer] = vote.effect_hash
        else:
            transcript.invalid.append(peer)
    transcript.status, transcript.quorum_hash = decide(transcript.votes, local_org, policy)
    return transcript
