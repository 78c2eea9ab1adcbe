"""ECDSA P-256 signatures over SHA-256 with deterministic nonces, and the
worker process that verifies the signatures of ordered blocks.

Nonce derivation is deterministic (RFC 6979 style via the backing library), so
a simulation run signs byte-identical signatures given identical inputs.  Key
pairs are derived from seed material for the same reason; this is a simulation
aid, not a production key-management scheme.

Where signatures are verified.  An organization verifies each signature of
a transaction once, and all of them, but for effect votes, through the one
SignatureWorker of this process.

Endorsing.  Network.run prepares the proposals due at a tick
CHUNK_TRANSACTIONS at a time, at most two chunks ahead of the submit being
made and never past the tick.  For each chunk, each live organization whose
agreement some of its proposals need queues their client checks as one
Verdicts (OrgNode.queue_client_checks), one organization after another, so
the queue alternates between organizations chunk by chunk.
OrgNode.evaluate_agreement reads the verdicts in submit order and signs an
agreement only after its client check passed; a proposal nobody queued has
its check queued there, as a batch of one.  Checks still unread at the end
of a tick are dropped.  The organization records the check that passed with
the agreement it signed (agreement.Endorsements, one per organization).

Receiving.  When the ordered block reaches an organization,
OrgNode.receive_action builds the block's checks, one job per transaction,
leaving out the client check and the own agreement that the record holds
byte for byte, and queues them; OrgNode.execute_action reads the verdicts
back in block order (it queues the checks itself for an action nobody
queued).  The pending round keeps the verdicts it read, and recovery
re-executes the round from those, so recovery queues no check again.

A job left with no signature gets its verdict here, without a request.
Each queued job is verified exactly once, by the worker process or by this
one: requests of CHUNK_TRANSACTIONS jobs are sent to the worker from the
front of the queue while it holds fewer signatures than there are verdicts
left to read, and a reader that would otherwise wait verifies jobs from the
front of the queue itself (see SignatureWorker).  Both run verify_jobs.
Each organization builds its own checks from its own registry and record
and reads its own verdicts; nothing is shared between organizations, and
the worker remembers no verdict across requests.  Effect votes are verified
in the calling process, by verify, so calls to verify count vote checks
only.

Why a process: verification holds the interpreter lock, so a second thread
verifies no faster than one.  Why no helper thread in the main process: a
thread there that collects results contends for the lock with execution (a
ProcessPoolExecutor, which has such a thread, lowered tps on bank-corrupt).
So the main process only writes requests to a pipe and reads results from it
when a reader needs them, and verifies in the time it would spend waiting.
The reader thread sits inside the worker: it drains requests as they come, so
the main process never waits on a send.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import queue
import threading
import weakref
from collections import deque
from collections.abc import Iterable
from itertools import count, islice

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec

from .errors import InvalidKey, VerifierUnavailable

# Group order of P-256; seed-derived scalars are folded into [1, n-1].
_P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

_SIGN_ALGO = ec.ECDSA(hashes.SHA256(), deterministic_signing=True)
_VERIFY_ALGO = ec.ECDSA(hashes.SHA256())

# Transactions per request to the worker, and per chunk that a reader verifies
# itself when that chunk was never sent.  Execution waits for the first chunk
# of a block only, and parses each chunk while the worker verifies the next.
# Measured on 2 cores: on bank-corrupt (blocks of 256), chunks of 128 and 256
# gave about 15% less tps than 16 to 64, because execution then waits for half
# or all of a block; between 16 and 64 the workloads differed by no more than
# noise, and 32 lets execution start after 32 verifications.
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


def verify(public_key, signature: bytes, message: bytes) -> bool:
    if isinstance(public_key, (bytes, bytearray)):
        public_key = load_public_bytes(bytes(public_key))
    try:
        public_key.verify(signature, message, _VERIFY_ALGO)
        return True
    except InvalidSignature:
        return False


def verify_jobs(jobs, loaded: dict | None = None) -> list[bool]:
    """One verdict per job.

    A job is a sequence of checks, each a (public key bytes, signature,
    message) tuple, and passes when every check passes; checking stops at the
    first that fails.  A job of None stands for a transaction that already
    failed a check needing no signature, and fails.  loaded caches decoded
    public keys across calls; it holds keys, never verdicts.

    Checks call the decoded key, not verify: which process runs a queued
    check depends on timing, so calls to verify count vote checks only, the
    same on every run.
    """
    loaded = {} if loaded is None else loaded
    verdicts = []
    for job in jobs:
        ok = job is not None
        try:
            for raw, signature, message in job or ():
                key = loaded.get(raw)
                if key is None:
                    key = loaded[raw] = load_public_bytes(raw)
                key.verify(signature, message, _VERIFY_ALGO)
        except InvalidSignature:
            ok = False
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
    """Worker main: verify requests and answer them in arrival order until
    the pipe closes.

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
            conn.send(verify_jobs(jobs, loaded))
    except OSError:
        pass  # the main process is gone
    finally:
        conn.close()


class Verdicts:
    """Verdicts of one sequence of jobs, each job verified once, either by the
    worker or by this process.

    self._jobs[self._lo:] are the jobs not yet handed out, this Verdicts'
    part of the worker's local queue.  Iterating, once, yields one verdict
    per job in order.  Raises VerifierUnavailable if the worker died.
    """

    def __init__(self, worker: "SignatureWorker", jobs: Iterable):
        self._worker = worker
        self._jobs: list = []
        self._verdicts: list[bool | None] = []
        self._lo = 0
        self._read = 0  # verdicts yielded
        self._open_id = next(worker._open_ids)
        worker._open[self._open_id] = self
        jobs = iter(jobs)
        while chunk := list(islice(jobs, CHUNK_TRANSACTIONS)):
            self._jobs += chunk
            self._verdicts += [None] * len(chunk)
            worker._send_while_behind()
        if not self._jobs:
            del worker._open[self._open_id]

    def __iter__(self):
        worker, verdicts = self._worker, self._verdicts
        for i in range(len(verdicts)):
            while verdicts[i] is None:
                worker._advance(self, i)
            self._read = i + 1
            if self._read == len(verdicts):
                del worker._open[self._open_id]
            yield verdicts[i]

    def _take(self, count: int) -> tuple[int, list]:
        """Hand out the next count queued jobs; returns (first index, jobs)."""
        start = self._lo
        self._lo = min(start + count, len(self._jobs))
        return start, self._jobs[start : self._lo]

    def _verify_here(self, count: int):
        start, jobs = self._take(count)
        self._verdicts[start : self._lo] = verify_jobs(jobs, self._worker._loaded)


class SignatureWorker:
    """A process that runs verify_jobs, this process's end of its pipe, and
    the local queue of jobs not yet sent to it.

    The queue holds the jobs of every open Verdicts, oldest first.  Requests
    of at most CHUNK_TRANSACTIONS jobs are sent from its front while the
    worker holds fewer signatures in flight than there are verdicts left to
    read: once its verdict is read, a job costs this process about one
    signature's time to parse and execute, so both processes then have about
    equal work left.  A job with at most one signature is therefore sent as
    soon as it is queued.  A reader that would wait verifies jobs from the
    front of the queue itself (see _advance), so every job is verified
    exactly once, in one of the two processes, and this process reaches the
    jobs it verified soon after the worker's.  The rule's premise stops
    holding on bank-steady once parses hit the organizations' plan caches:
    with one signature per transaction (no agreements), executing a verdict
    then costs this process less than a signature, so the worker, which
    verifies almost every job, becomes the slower side.

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
        self._loaded: dict = {}  # public keys decoded for this process's checks
        # Verdicts with verdicts left to read, oldest first; one dropped
        # unread leaves on collection, with its jobs not yet sent
        self._open: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self._open_ids = count()
        # requests sent and not yet answered, in the order the answers come:
        # (weak reference to the Verdicts, index of its first job, signatures)
        self._waiting: deque = deque()
        self._in_flight = 0  # signatures of the requests in _waiting

    @property
    def pid(self) -> int:
        return self._process.pid

    def verify(self, jobs: Iterable) -> Verdicts:
        """Queue jobs for verification, building them a chunk at a time and
        sending what the rule allows as they are built; the verdicts are read
        when iterated."""
        return Verdicts(self, jobs)

    def _jobs_left(self) -> int:
        return sum(len(v._verdicts) - v._read for v in self._open.values())

    def _oldest_queued(self) -> Verdicts | None:
        for owner in list(self._open.values()):
            if owner._lo < len(owner._jobs):
                return owner
        return None

    def _send_while_behind(self):
        """Send requests from the front of the queue while the worker holds
        fewer signatures than there are verdicts left to read.  A chunk with
        no signature to verify is judged here instead: sent, it would add
        nothing in flight, and the loop would go on sending."""
        left = self._jobs_left()
        while self._in_flight < left and (owner := self._oldest_queued()):
            start, jobs = owner._take(CHUNK_TRANSACTIONS)
            signatures = sum(len(job) for job in jobs if job)
            if not signatures:
                owner._verdicts[start : owner._lo] = verify_jobs(jobs)
                continue
            try:
                self._conn.send(jobs)
            except OSError as exc:
                raise self._gone() from exc
            self._waiting.append((weakref.ref(owner), start, signatures))
            self._in_flight += signatures

    def _receive(self):
        """Read the next answer, hand it to the Verdicts that asked for it,
        and send more if the worker is now behind."""
        try:
            verdicts = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._gone() from exc
        ref, start, signatures = self._waiting.popleft()
        self._in_flight -= signatures
        owner = ref()
        if owner is not None:  # else dropped unread: discard
            owner._verdicts[start : start + len(verdicts)] = verdicts
        self._send_while_behind()

    def _advance(self, owner: Verdicts, i: int):
        """One step towards owner's verdict i, which is not known yet.

        In order of preference: read an answer that is ready; verify owner's
        next chunk here if it was never sent; verify the job at the front of
        the queue if the worker holds more signatures than there are verdicts
        left to read; otherwise wait for the next answer.
        """
        if self._waiting and self._conn.poll():
            self._receive()
        elif i == owner._lo:
            owner._verify_here(CHUNK_TRANSACTIONS)
        elif self._in_flight > self._jobs_left() and (oldest := self._oldest_queued()):
            oldest._verify_here(1)
        else:
            self._receive()

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
