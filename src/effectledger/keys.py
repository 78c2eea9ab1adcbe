"""ECDSA P-256 signatures over SHA-256 with deterministic nonces, signed one
message or one batch at a time, and the worker process that verifies the
signatures of ordered blocks.

Nonce derivation is deterministic (RFC 6979 style via the backing library), so
a simulation run signs byte-identical signatures given identical inputs.  Key
pairs are derived from seed material for the same reason; this is a simulation
aid, not a production key-management scheme.

What a signature is.  sign_batch signs a batch of messages with one ECDSA
signature: it builds a Merkle hash tree over them (Merkle, CRYPTO 1987),
with leaves H(0x00||message) and nodes H(0x01||left||right) and the split of
RFC 6962, and signs the tagged root ROOT_TAG||u32 leaf count||root once.
A message's signature is that DER signature followed by its proof: u32
index, u32 leaf count (at least 2) and exactly the siblings its path needs,
bottom up.  A batch of one is the DER signature of the message itself,
byte for byte what sign gives.  So each signature stands alone and can be
passed on, and there is one format and one way to verify it, which verify,
KeyRegistry.verify_as and verify_jobs share (_signed, then _ecdsa).  The
tag starts with 0xFFFFFFFF, which no length-prefixed payload starts with,
and a signature without a proof never verifies a message that starts with
it: a root signature never passes for a payload's.

The memo.  verify_jobs keeps the verdict of each (key, DER signature, signed
message) it verified, so a batch root is verified once per memo, and
worker_signatures and here_signatures count the verifications run.  The
worker makes a new memo for each request, and verify_here one for each
call; an endorser verifies a prepared chunk's client checks in one
verify_here call.  Each memo belongs to the one organization whose jobs
they are.  So an organization verifies each batch root it meets once per
request or chunk, no verdict passes between organizations, and no memo
outlives its request or call.

Where signatures are verified.  An organization verifies each signature of
a transaction once, and all of them, but for effect votes, through the one
SignatureWorker of this process: a block's checks in the worker process,
and the client checks it makes when endorsing in this one.

Endorsing.  Each organization that a proposal needs checks its client's
signature in place, in this process, before it signs an agreement
(SignatureWorker.verify_here).  It endorses a prepared chunk's proposals
together: one verify_here call for their client checks, and one
sign_batch for all of its agreements on them, so one ECDSA signature per
organization and chunk; network tells who and with which memo.  The
organization records each check that passed with the agreement it signed
(agreement.Endorsements, one per organization).

Receiving.  The orderer delivers a forming block to each organization a
chunk of CHUNK_TRANSACTIONS transactions at a time, and the rest when it
cuts the block; network tells when.  For each delivery,
OrgNode.receive_action builds the checks of the new transactions, one job
per transaction, leaving out the client check and the own agreement that
the record holds byte for byte, and adds them to the round's one Verdicts
(Verdicts.extend).  So the worker verifies a block's checks while this
process still submits and endorses the rest of the block.  Once the block
is cut, OrgNode.execute_action reads the verdicts back in block order and
executes each transaction as its verdict arrives (it queues the checks
itself for an action nobody queued).  The pending round keeps the verdicts
it read, and recovery re-executes the round from those, so recovery queues
no check again.

Who verifies a job.  Every job of a Verdicts goes to the worker when it is
queued, CHUNK_TRANSACTIONS jobs per request, and is verified there exactly
once; a reader waits for the worker's answers, which come in order.  So the
worker goes through the chunks of the forming blocks as they come, and
which process verifies a job never depends on timing.  A request with no
signature to verify gets its verdicts here instead.  Each
organization builds its own checks from its own registry and record and
reads its own verdicts; the worker remembers no verdict across requests.
Effect votes are verified in the calling process, by verify, so calls to
verify count vote checks only.

Why a process: verification holds the interpreter lock, so a second thread
verifies no faster than one.  Why no helper thread in the main process: a
thread there that collects results contends for the lock with execution (a
ProcessPoolExecutor, which has such a thread, lowered tps on bank-corrupt).
So the main process only writes requests to a pipe, and reads the answers
that are ready when it queues jobs and the ones it needs when it reads
verdicts.  The reader thread sits inside the worker: it drains requests as
they come, so the main process never waits on a send.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import queue
import select
import struct
import threading
import weakref
from collections import deque
from collections.abc import Iterable, Sequence
from time import perf_counter

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec

from .errors import InvalidKey, VerifierUnavailable

# Group order of P-256; seed-derived scalars are folded into [1, n-1].
_P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

_SIGN_ALGO = ec.ECDSA(hashes.SHA256(), deterministic_signing=True)
_VERIFY_ALGO = ec.ECDSA(hashes.SHA256())

# The first bytes of the message a batch's signature signs.  No length-prefixed
# payload starts with 0xFFFFFFFF, a length of 4 GiB.
ROOT_TAG = b"\xff\xff\xff\xffeffectledger batch root"
_PROOF_HEAD = struct.Struct(">II")  # index, leaf count
_HASH_SIZE = 32

# Transactions per request to the worker, and per chunk of a forming block
# that the orderer delivers before the cut: a chunk once a later transaction of
# its block is queued, so a block's last transaction always comes at the cut.
# Each chunk is sent as it is queued, and execution executes each request's
# transactions while the worker verifies the next.  Measured on 2 cores: on
# bank-corrupt (blocks of 256), requests of 128 and 256 gave about 15% less
# tps than 16 to 64, because execution then waits for half or all of a
# block; between 16 and 64 the workloads differed by no more than noise, and
# 32 lets execution start after 32 verifications.
CHUNK_TRANSACTIONS = 32

# How long interpreter exit waits for the worker to end after closing its pipe.
_STOP_TIMEOUT_S = 5.0


def derive_private_key(seed_material: bytes | str) -> ec.EllipticCurvePrivateKey:
    if isinstance(seed_material, str):
        seed_material = seed_material.encode("utf-8")
    scalar = int.from_bytes(hashlib.sha256(seed_material).digest(), "big")
    scalar = scalar % (_P256_ORDER - 1) + 1
    return ec.derive_private_key(scalar, ec.SECP256R1())


def public_bytes(key) -> bytes:
    """Compressed-point encoding of a public key (33 bytes)."""
    public = key.public_key() if isinstance(key, ec.EllipticCurvePrivateKey) else key
    return public.public_bytes(
        serialization.Encoding.X962, serialization.PublicFormat.CompressedPoint
    )


def load_public_bytes(raw: bytes) -> ec.EllipticCurvePublicKey:
    return ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(), raw)


def sign(private_key: ec.EllipticCurvePrivateKey, message: bytes) -> bytes:
    return private_key.sign(message, _SIGN_ALGO)


def _leaf(message: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + message).digest()


def _node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"\x01" + left + right).digest()


def _root_message(count: int, root: bytes) -> bytes:
    return ROOT_TAG + struct.pack(">I", count) + root


def _tree(hashes: list[bytes]) -> tuple[bytes, list[list[bytes]]]:
    """The Merkle root over leaf hashes, and each leaf's siblings bottom up.
    The left subtree holds the largest power of two of leaves below their
    count, as in RFC 6962."""
    if len(hashes) == 1:
        return hashes[0], [[]]
    split = 1 << (len(hashes) - 1).bit_length() - 1
    left, left_paths = _tree(hashes[:split])
    right, right_paths = _tree(hashes[split:])
    for path in left_paths:
        path.append(right)
    for path in right_paths:
        path.append(left)
    return _node(left, right), left_paths + right_paths


def sign_batch(private_key: ec.EllipticCurvePrivateKey, messages: Sequence[bytes]) -> list[bytes]:
    """One signature per message, all from one ECDSA signature of the
    tagged root of their Merkle tree; a batch of one is sign's."""
    if len(messages) < 2:
        return [sign(private_key, message) for message in messages]
    root, paths = _tree([_leaf(message) for message in messages])
    der = sign(private_key, _root_message(len(messages), root))
    return [
        der + _PROOF_HEAD.pack(index, len(messages)) + b"".join(path)
        for index, path in enumerate(paths)
    ]


def _signed(signature: bytes, message: bytes) -> tuple[bytes, bytes] | None:
    """The DER signature that signature holds and the message it must sign
    for signature to sign message: message itself, or the tagged root that
    the proof after the DER signature leads to.  None when signature can
    sign no such message: a proof that is malformed or has a sibling too
    many or too few, or no proof for a message that starts with the tag.

    The path is walked as RFC 9162 (section 2.1.3.2) verifies an inclusion
    proof."""
    end = 2 + signature[1] if len(signature) > 1 else len(signature)
    if end >= len(signature):
        return None if message.startswith(ROOT_TAG[:4]) else (signature, message)
    proof = signature[end:]
    if len(proof) < _PROOF_HEAD.size or (len(proof) - _PROOF_HEAD.size) % _HASH_SIZE:
        return None
    index, count = _PROOF_HEAD.unpack_from(proof)
    if count < 2 or index >= count:
        return None
    node, last = _leaf(message), count - 1
    for at in range(_PROOF_HEAD.size, len(proof), _HASH_SIZE):
        if last == 0:
            return None
        sibling = proof[at : at + _HASH_SIZE]
        if index & 1 or index == last:
            node = _node(sibling, node)
            while index and not index & 1:
                index, last = index >> 1, last >> 1
        else:
            node = _node(node, sibling)
        index, last = index >> 1, last >> 1
    if last:
        return None
    return signature[:end], _root_message(count, node)


def _ecdsa(public_key: ec.EllipticCurvePublicKey, der: bytes, message: bytes) -> bool:
    try:
        public_key.verify(der, message, _VERIFY_ALGO)
        return True
    except InvalidSignature:
        return False


def verify(public_key, signature: bytes, message: bytes) -> bool:
    if isinstance(public_key, (bytes, bytearray)):
        public_key = load_public_bytes(bytes(public_key))
    signed = _signed(signature, message)
    return signed is not None and _ecdsa(public_key, *signed)


def verify_jobs(jobs, loaded: dict | None = None, memo: dict | None = None) -> list[bool]:
    """One verdict per job.

    A job is a sequence of checks, each a (public key bytes, signature,
    message) tuple, and passes when every check passes; checking stops at the
    first that fails.  A job of None stands for a transaction that already
    failed a check needing no signature, and fails.  loaded caches decoded
    public keys across calls; it holds keys, never verdicts.  memo maps
    each (public key bytes, DER signature, signed message) verified to its
    verdict, so each of them is verified once, and its growth is the number
    of verifications run; its scope is the caller's (see the module
    docstring).

    Checks call the decoded key, not verify, so that calls to verify count
    vote checks only, in whichever process verify_jobs runs.
    """
    loaded = {} if loaded is None else loaded
    memo = {} if memo is None else memo
    verdicts = []
    for job in jobs:
        ok = job is not None
        for raw, signature, message in job or ():
            signed = _signed(signature, message)
            if signed is None:
                ok = False
                break
            seen = (raw, *signed)
            verdict = memo.get(seen)
            if verdict is None:
                key = loaded.get(raw)
                if key is None:
                    key = loaded[raw] = load_public_bytes(raw)
                verdict = memo[seen] = _ecdsa(key, *signed)
            if not verdict:
                ok = False
                break
        verdicts.append(ok)
    return verdicts


class KeyRegistry:
    """Identity -> public key map shared by every honest participant."""

    def __init__(self):
        self._keys: dict[str, ec.EllipticCurvePublicKey] = {}
        self._encoded: dict[str, bytes] = {}

    def register(self, identity: str, key):
        if isinstance(key, ec.EllipticCurvePrivateKey):
            key = key.public_key()
        elif isinstance(key, (bytes, bytearray)):
            key = load_public_bytes(bytes(key))
        self._keys[identity] = key
        self._encoded[identity] = public_bytes(key)

    def encoded_key(self, identity: str) -> bytes | None:
        """The identity's public key as compressed-point bytes; None if unknown."""
        return self._encoded.get(identity)

    def verify_as(self, identity: str, signature: bytes, message: bytes) -> bool:
        try:
            key = self._keys[identity]
        except KeyError:
            raise InvalidKey(f"no key registered for {identity!r}") from None
        return verify(key, signature, message)


# ---- the verifying worker process ----

def _serve(conn, parent_end):
    """Worker main: verify requests and answer them in arrival order, each
    answer with the seconds its verification took and the verifications it
    ran, until the pipe closes.  Each request has its own memo.

    The worker first closes its inherited copy of the main process's end, so
    that the pipe reads as closed once the main process is gone, however it
    ended.  A reader thread moves requests from the pipe to a queue as they
    arrive, so the sender never waits on a full pipe.  The worker ends when
    the pipe closes, or when a result can no longer be sent.
    """
    parent_end.close()
    requests: queue.SimpleQueue = queue.SimpleQueue()

    def drain():
        try:
            while True:
                requests.put(conn.recv())
        except (EOFError, OSError):
            requests.put(None)

    threading.Thread(target=drain, name="requests", daemon=True).start()
    loaded: dict = {}
    try:
        while (jobs := requests.get()) is not None:
            started = perf_counter()
            memo: dict = {}
            verdicts = verify_jobs(jobs, loaded, memo)
            conn.send((verdicts, perf_counter() - started, len(memo)))
    except OSError:
        pass  # the main process is gone
    finally:
        conn.close()


class Verdicts:
    """Verdicts of one sequence of jobs, each job verified once, by the
    worker.

    The jobs come all at once, or a chunk at a time while the sequence is
    forming (extend), and go to the worker as they come.  Iterating, once,
    after the last jobs came, yields one verdict per job in order, waiting
    for the worker's answers.  Raises VerifierUnavailable if the worker
    died.
    """

    def __init__(self, worker: "SignatureWorker"):
        self._worker = worker
        self._verdicts: list[bool | None] = []
        self.forming = True

    def extend(self, jobs: Iterable, forming: bool = False):
        """Queue jobs after the ones queued before, and send them to the
        worker; forming: more will come."""
        jobs = list(jobs)
        start = len(self._verdicts)
        self._verdicts += [None] * len(jobs)
        self.forming = forming
        self._worker._drain()
        for at in range(0, len(jobs), CHUNK_TRANSACTIONS):
            self._worker._send(self, start + at, jobs[at : at + CHUNK_TRANSACTIONS])

    def __iter__(self):
        worker, verdicts = self._worker, self._verdicts
        for i in range(len(verdicts)):
            while verdicts[i] is None:
                worker._receive()
            yield verdicts[i]


class SignatureWorker:
    """A process that runs verify_jobs, this process's end of its pipe, and
    what each side has verified.

    Each Verdicts sends its jobs to the worker as they are queued, in
    requests of at most CHUNK_TRANSACTIONS jobs, and its reader waits for
    the answers, which come in the order the requests were sent.  An
    endorser's client check is verified here instead (verify_here).
    worker_signatures and here_signatures count the ECDSA verifications each
    side ran, which are verify_jobs' memo misses, and worker_seconds and
    here_seconds the seconds each spent on its jobs (the worker's as each
    answer reports them); the here counts are endorsers' client checks
    only.  They are read by tests and benchmarks, never by a report, which
    must not depend on timing.

    The worker is forked.  The spawn and forkserver methods run the main
    module again in the child, which fails in a script without a __main__
    guard, and a library user should not need one.  A fork is safe while the
    process has no other thread, and the main process never starts one: the
    organizations, their blocks included, all run on the thread that calls
    signature_worker, which starts the worker on first use.
    """

    def __init__(self):
        context = multiprocessing.get_context("fork")
        self._conn, child_end = context.Pipe()
        self._process = context.Process(
            target=_serve,
            args=(child_end, self._conn),
            name="effectledger-verifier",
            daemon=True,
        )
        self._process.start()
        child_end.close()  # so that a dead worker reads as EOF here
        # tells whether an answer, or the pipe's end, can be read without
        # waiting, for a tenth of the cost of Connection.poll
        self._answers = select.poll()
        self._answers.register(self._conn.fileno(), select.POLLIN)
        self._loaded: dict = {}  # public keys decoded for this process's checks
        # requests sent and not yet answered, in the order the answers come:
        # (weak reference to the Verdicts, index of its first job)
        self._waiting: deque = deque()
        self.worker_signatures = self.here_signatures = 0
        self.worker_seconds = self.here_seconds = 0.0

    @property
    def pid(self) -> int:
        return self._process.pid

    def verify(self, jobs: Iterable, forming: bool = False) -> Verdicts:
        """Queue jobs for verification; the verdicts are read when iterated.

        forming: more jobs will come, through the Verdicts' extend.
        """
        verdicts = Verdicts(self)
        verdicts.extend(jobs, forming)
        return verdicts

    def verify_here(self, jobs) -> list[bool]:
        """verify_jobs in this process, with a memo of its own, counted in
        here_signatures and here_seconds."""
        memo: dict = {}
        started = perf_counter()
        verdicts = verify_jobs(jobs, self._loaded, memo)
        self.here_seconds += perf_counter() - started
        self.here_signatures += len(memo)
        return verdicts

    def _send(self, owner: Verdicts, start: int, jobs: list):
        """Send jobs, owner's from index start on, as one request.  A request
        with no signature to verify is judged here instead."""
        if any(jobs):
            try:
                self._conn.send(jobs)
            except OSError as exc:
                raise self._gone() from exc
            self._waiting.append((weakref.ref(owner), start))
        else:
            owner._verdicts[start : start + len(jobs)] = verify_jobs(jobs)

    def _drain(self):
        """Take every answer that is ready, without waiting."""
        while self._waiting and self._answers.poll(0):
            self._receive()

    def _receive(self):
        """Read the next answer and hand it to the Verdicts that asked for it."""
        try:
            verdicts, seconds, signatures = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._gone() from exc
        ref, start = self._waiting.popleft()
        self.worker_signatures += signatures
        self.worker_seconds += seconds
        owner = ref()
        if owner is not None:  # else dropped unread: discard
            owner._verdicts[start : start + len(verdicts)] = verdicts

    def _gone(self) -> VerifierUnavailable:
        global _worker
        if _worker is self:
            _worker = None  # the next use starts a new worker
        self._process.join(_STOP_TIMEOUT_S)
        return VerifierUnavailable(
            f"signature worker {self._process.pid} is gone "
            f"(exit code {self._process.exitcode})"
        )

    def close(self):
        """Close the pipe, which ends the worker, and wait for it."""
        self._conn.close()
        self._process.join(_STOP_TIMEOUT_S)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
        self._process.close()


_worker: SignatureWorker | None = None


def signature_worker() -> SignatureWorker:
    """The one worker of this process, started on first use.

    One process serves every organization of every Network in the process,
    since nothing requires a Network to be closed; it ends at interpreter
    exit.  After it was found dead, the next call starts a new one.
    """
    global _worker
    if _worker is None:
        _worker = SignatureWorker()
        atexit.register(_worker.close)
    return _worker
