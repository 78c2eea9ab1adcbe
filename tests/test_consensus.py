"""Vote signing, quorum counting, and the commit decision rule."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from effectledger.consensus import (
    ConsensusPolicy,
    ConsensusStatus,
    HashVote,
    decide,
    make_vote,
    quorum_hashes,
    run_consensus,
    vote_is_valid,
)
from effectledger.errors import ConfigError
from effectledger.keys import KeyRegistry, derive_private_key

H1, H2, H3 = (bytes([i]) * 32 for i in (1, 2, 3))


@pytest.fixture
def registry():
    reg = KeyRegistry()
    for org in ("O1", "O2", "O3"):
        reg.register(org, derive_private_key(f"vote-test:{org}"))
    return reg


def key_of(org):
    return derive_private_key(f"vote-test:{org}")


# ---- votes and signatures ----


def test_vote_sign_and_verify(registry):
    vote = make_vote("O1", 7, H1, key_of("O1"))
    assert vote_is_valid(vote, "O1", 7, registry)


def test_vote_rejects_wrong_claims(registry):
    vote = make_vote("O1", 7, H1, key_of("O1"))
    assert not vote_is_valid(vote, "O2", 7, registry)  # impersonation
    assert not vote_is_valid(vote, "O1", 8, registry)  # replay to other block


def test_vote_rejects_tampered_hash(registry):
    vote = make_vote("O1", 7, H1, key_of("O1"))
    forged = HashVote("O1", 7, H2, vote.signature)
    assert not vote_is_valid(forged, "O1", 7, registry)


def test_vote_rejects_wrong_signer(registry):
    vote = make_vote("O1", 7, H1, key_of("O2"))
    assert not vote_is_valid(vote, "O1", 7, registry)


def test_vote_rejects_malformed_hash(registry):
    vote = make_vote("O1", 7, b"\x01" * 16, key_of("O1"))
    assert not vote_is_valid(vote, "O1", 7, registry)


def test_signed_payload_binds_all_fields():
    base = make_vote("O1", 7, H1, key_of("O1")).signed_payload()
    assert make_vote("O2", 7, H1, key_of("O1")).signed_payload() != base
    assert make_vote("O1", 8, H1, key_of("O1")).signed_payload() != base
    assert make_vote("O1", 7, H2, key_of("O1")).signed_payload() != base


# ---- quorum counting and decisions ----


def test_quorum_hashes_basic():
    votes = {"O1": H1, "O2": H1, "O3": H2}
    assert quorum_hashes(votes, 2) == {H1}
    assert quorum_hashes(votes, 1) == {H1, H2}
    assert quorum_hashes(votes, 3) == set()


@given(
    st.dictionaries(
        st.sampled_from(["O1", "O2", "O3", "O4", "O5"]),
        st.sampled_from([H1, H2, H3]),
        max_size=5,
    ),
    st.integers(1, 5),
)
def test_quorum_matches_counter_oracle(votes, threshold):
    counts = Counter(votes.values())
    expected = {h for h, n in counts.items() if n >= threshold}
    assert quorum_hashes(votes, threshold) == expected


@given(
    st.dictionaries(
        st.sampled_from(["O1", "O2", "O3", "O4", "O5"]),
        st.sampled_from([H1, H2, H3]),
        max_size=5,
    ),
    st.integers(1, 4),
)
def test_quorum_monotone_in_threshold(votes, threshold):
    assert quorum_hashes(votes, threshold + 1) <= quorum_hashes(votes, threshold)


def test_decide_consenting():
    votes = {"O1": H1, "O2": H1, "O3": H2}
    assert decide(votes, "O1", ConsensusPolicy(2)) == (ConsensusStatus.COMMITTED, H1)


def test_decide_non_consenting_local():
    votes = {"O1": H2, "O2": H1, "O3": H1}
    assert decide(votes, "O1", ConsensusPolicy(2)) == (ConsensusStatus.NON_CONSENTING, H1)


def test_decide_no_quorum():
    votes = {"O1": H1, "O2": H2, "O3": H3}
    assert quorum_hashes(votes, 2) == set()
    assert decide(votes, "O1", ConsensusPolicy(2)) == (ConsensusStatus.NO_CONSENSUS, None)


def test_decide_two_quorums_is_ambiguous():
    # min_matching at half the cluster lets two hashes both reach threshold
    votes = {"O1": H1, "O2": H1, "O3": H2, "O4": H2}
    assert quorum_hashes(votes, 2) == {H1, H2}
    assert decide(votes, "O1", ConsensusPolicy(2)) == (ConsensusStatus.NO_CONSENSUS, None)


def test_policy_validation():
    with pytest.raises(ConfigError):
        ConsensusPolicy(0)
    with pytest.raises(ConfigError):
        ConsensusPolicy(4).validate(3)
    ConsensusPolicy(3).validate(3)


# ---- one consensus attempt: one poll of each peer ----


def serve_votes(answers):
    """fetch_vote stub: org -> HashVote or None."""

    def fetch(peer, block_id):
        return answers.get(peer)

    return fetch


def test_run_consensus_commit(registry):
    fetch = serve_votes(
        {
            "O2": make_vote("O2", 1, H1, key_of("O2")),
            "O3": make_vote("O3", 1, H2, key_of("O3")),
        }
    )
    transcript = run_consensus(1, "O1", H1, ["O2", "O3"], ConsensusPolicy(2), fetch, registry)
    assert transcript.status is ConsensusStatus.COMMITTED
    assert transcript.quorum_hash == H1
    assert transcript.votes == {"O1": H1, "O2": H1, "O3": H2}
    assert transcript.missing == [] and transcript.invalid == []


def test_run_consensus_reports_unready_peers_missing(registry):
    fetch = serve_votes({"O2": None, "O3": None})
    transcript = run_consensus(1, "O1", H1, ["O2", "O3"], ConsensusPolicy(2), fetch, registry)
    assert transcript.status is ConsensusStatus.NO_CONSENSUS
    assert transcript.quorum_hash is None
    assert sorted(transcript.missing) == ["O2", "O3"]


def test_run_consensus_discards_invalid_without_retry(registry):
    good = make_vote("O2", 1, H1, key_of("O2"))
    bad = HashVote("O3", 1, H1, b"garbage")
    calls = Counter()

    def fetch(peer, block_id):
        calls[peer] += 1
        return {"O2": good, "O3": bad}[peer]

    transcript = run_consensus(1, "O1", H1, ["O2", "O3"], ConsensusPolicy(2), fetch, registry)
    assert transcript.status is ConsensusStatus.COMMITTED
    assert transcript.invalid == ["O3"]
    assert calls["O3"] == 1  # no re-poll for a vote that failed verification


def test_run_consensus_non_consenting(registry):
    fetch = serve_votes(
        {
            "O2": make_vote("O2", 1, H2, key_of("O2")),
            "O3": make_vote("O3", 1, H2, key_of("O3")),
        }
    )
    transcript = run_consensus(1, "O1", H1, ["O2", "O3"], ConsensusPolicy(2), fetch, registry)
    assert transcript.status is ConsensusStatus.NON_CONSENTING
    assert transcript.quorum_hash == H2


ALL_ORGS = ["O1", "O2", "O3", "O4", "O5"]
WIDE_REGISTRY = KeyRegistry()
for _org in ALL_ORGS:
    WIDE_REGISTRY.register(_org, key_of(_org))

# what one peer answers to the single poll
PEER_ANSWERS = st.one_of(
    st.tuples(st.just("vote"), st.sampled_from([H1, H2, H3])),
    st.just(("none", None)),
    st.tuples(st.just("bad_signature"), st.sampled_from([H1, H2, H3])),
    st.tuples(st.just("wrong_block"), st.sampled_from([H1, H2, H3])),
)


def _answer_vote(peer, kind, effect_hash):
    if kind == "vote":
        return make_vote(peer, 1, effect_hash, key_of(peer))
    if kind == "bad_signature":
        return make_vote(peer, 1, effect_hash, key_of("O1"))  # wrong signer
    if kind == "wrong_block":
        return make_vote(peer, 2, effect_hash, key_of(peer))
    return None


@given(
    st.lists(PEER_ANSWERS, min_size=1, max_size=4),
    st.sampled_from([H1, H2, H3]),
    st.integers(1, 5),
)
def test_run_consensus_polls_each_peer_once_and_matches_oracle(answers, local_hash, threshold):
    peers = ALL_ORGS[1 : 1 + len(answers)]
    policy = ConsensusPolicy(min(threshold, 1 + len(peers)))
    served = {
        peer: _answer_vote(peer, kind, h) for peer, (kind, h) in zip(peers, answers)
    }
    calls = Counter()

    def fetch(peer, block_id):
        calls[peer] += 1
        return served[peer]

    transcript = run_consensus(1, "O1", local_hash, peers, policy, fetch, WIDE_REGISTRY)

    assert calls == Counter(peers)  # exactly one poll per peer
    voted = [peer for peer in transcript.votes if peer != "O1"]
    assert sorted(voted + transcript.missing + transcript.invalid) == peers  # a partition
    for peer, (kind, h) in zip(peers, answers):
        if kind == "vote":
            assert transcript.votes[peer] == h
        else:
            assert peer in (transcript.missing if kind == "none" else transcript.invalid)

    # brute force over the verified votes, local vote included
    verified = [local_hash] + [h for kind, h in answers if kind == "vote"]
    winners = [h for h in (H1, H2, H3) if verified.count(h) >= policy.min_matching]
    if len(winners) != 1:
        expected = (ConsensusStatus.NO_CONSENSUS, None)
    elif winners[0] == local_hash:
        expected = (ConsensusStatus.COMMITTED, local_hash)
    else:
        expected = (ConsensusStatus.NON_CONSENTING, winners[0])
    assert (transcript.status, transcript.quorum_hash) == expected


def brute_force_outcomes(assignment, min_matching):
    """Independent oracle: per-org outcome for one hash assignment."""
    outcomes = {}
    counts = Counter(assignment.values())
    winners = {h for h, n in counts.items() if n >= min_matching}
    for org, own in assignment.items():
        if len(winners) == 1:
            outcomes[org] = "commit" if own in winners else "recover"
        else:
            outcomes[org] = "wait"
    return outcomes


def test_all_27_assignments_match_oracle(registry):
    orgs = ["O1", "O2", "O3"]
    policy = ConsensusPolicy(2)
    for labels in itertools.product([H1, H2, H3], repeat=3):
        assignment = dict(zip(orgs, labels))
        committed_hashes = set()
        for org in orgs:
            fetch = serve_votes(
                {
                    peer: make_vote(peer, 1, assignment[peer], key_of(peer))
                    for peer in orgs
                    if peer != org
                }
            )
            transcript = run_consensus(
                1, org, assignment[org], [p for p in orgs if p != org],
                policy, fetch, registry,
            )
            expected = brute_force_outcomes(assignment, 2)[org]
            if expected == "commit":
                assert transcript.status is ConsensusStatus.COMMITTED
                committed_hashes.add(transcript.quorum_hash)
            elif expected == "recover":
                assert transcript.status is ConsensusStatus.NON_CONSENTING
            else:
                assert transcript.status is ConsensusStatus.NO_CONSENSUS
        assert len(committed_hashes) <= 1  # never two commits for one block id
