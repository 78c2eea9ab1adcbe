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
back in block order and executes each transaction as its verdict arrives
(it queues the checks itself for an action nobody queued).  The pending
round keeps the verdicts it read, and recovery re-executes the round from
those, so recovery queues no check again.

Who verifies a job.  Each queued job is verified exactly once, by the worker
process or by its reader in this one; both run verify_jobs.  A Verdicts
sends the front of its jobs to the worker when it is made, and holds back
the tail.  Its reader verifies that tail itself: from the back, up to
CHUNK_TRANSACTIONS jobs at a time, whenever the next verdict is not known
yet and no answer is ready, and in order once it reaches the tail.  The
tail is sized from measured costs (see SignatureWorker.verify) so that the
worker and the reader, started together, reach the end of the jobs
together.  A job left with no signature gets its verdict here, without a
request.  Each organization builds its own checks from its own registry and
record, reads its own verdicts and measures its own reading; nothing is
shared between organizations, and the worker remembers no verdict across
requests.  Effect votes are verified in the calling process, by verify, so
calls to verify count vote checks only.

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
from itertools import count
from time import perf_counter

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec

from .errors import InvalidKey, VerifierUnavailable

# Group order of P-256; seed-derived scalars are folded into [1, n-1].
_P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

_SIGN_ALGO = ec.ECDSA(hashes.SHA256(), deterministic_signing=True)
_VERIFY_ALGO = ec.ECDSA(hashes.SHA256())

# Transactions per request to the worker.  Execution waits for the first
# request of a block only, and executes each request's transactions while the
# worker verifies the next.  Measured on 2 cores: on bank-corrupt (blocks of
# 256), requests of 128 and 256 gave about 15% less tps than 16 to 64, because
# execution then waits for half or all of a block; between 16 and 64 the
# workloads differed by no more than noise, and 32 lets execution start after
# 32 verifications.
CHUNK_TRANSACTIONS = 32

# A measured cost is an average whose weights halve every this many units
# (signatures verified, verdicts read): about one block of bank-steady.
_COST_HALF_LIFE = 1024

# Seconds per signature assumed until the worker's first answer: the order of
# a P-256 verification.
_SIGNATURE_S = 1e-4

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


def _signatures(jobs) -> int:
    return sum(len(job) for job in jobs if job)


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
    answer with the seconds its verification took, until the pipe closes.

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
            verdicts = verify_jobs(jobs, loaded)
            conn.send((verdicts, perf_counter() - started))
    except OSError:
        pass  # the main process is gone
    finally:
        conn.close()


class Cost:
    """Measured seconds per unit of work (a signature verified, a verdict
    read), averaged with weights that halve every _COST_HALF_LIFE units."""

    def __init__(self):
        self._seconds = 0.0
        self._units = 0.0

    def note(self, seconds: float, units: int):
        kept = 0.5 ** (units / _COST_HALF_LIFE)
        self._seconds = self._seconds * kept + seconds
        self._units = self._units * kept + units

    def per_unit(self, default: float) -> float:
        """The average, or default before anything was measured."""
        return self._seconds / self._units if self._units else default


class Verdicts:
    """Verdicts of one sequence of jobs, each job verified once, either by the
    worker or by its reader in this process.

    The jobs before the held-back tail were sent to the worker when this was
    made; self._jobs[self._lo:self._hi] are the held-back jobs not yet
    verified.  Iterating, once, yields one verdict per job in order and
    measures the reader's time into reading.  Raises VerifierUnavailable if
    the worker died.
    """

    def __init__(self, worker: "SignatureWorker", jobs: Iterable, reading: Cost):
        self._worker = worker
        self._jobs = list(jobs)
        self._verdicts: list[bool | None] = [None] * len(self._jobs)
        self._reading = reading
        self._queued = perf_counter()
        self._lo = self._hi = len(self._jobs)
        self._read = 0  # verdicts yielded
        if self._jobs:
            self._open_id = next(worker._open_ids)
            worker._open[self._open_id] = self
            self._lo = worker._held_back(self._jobs, reading)
            worker._send(self, self._lo)

    def __iter__(self):
        worker, verdicts = self._worker, self._verdicts
        last = len(verdicts) - 1
        # The reader's time outside this iterator, from when it could turn to
        # these verdicts (when they were queued, or when it finished reading
        # the Verdicts before, whichever is later) to the last one.  So what
        # this process does between two Verdicts counts too, as the worker
        # goes straight on to the next one's jobs.
        away = 0.0
        resumed = max(self._queued, worker._read_done)
        for i in range(len(verdicts)):
            away += perf_counter() - resumed
            while verdicts[i] is None:
                worker._advance(self, i)
            self._read = i + 1
            if i == last:
                del worker._open[self._open_id]
                self._reading.note(away, len(verdicts))
                worker._read_done = perf_counter()
            resumed = perf_counter()
            yield verdicts[i]

    def _verify_here(self, start: int, end: int):
        jobs = self._jobs[start:end]
        started = perf_counter()
        self._verdicts[start:end] = verify_jobs(jobs, self._worker._loaded)
        signatures = _signatures(jobs)
        if signatures:
            self._worker.here_cost.note(perf_counter() - started, signatures)
            self._worker.here_signatures += signatures


class SignatureWorker:
    """A process that runs verify_jobs, this process's end of its pipe, and
    what each side has verified and what it costs.

    Each Verdicts sends the front of its jobs to the worker when it is made,
    in requests of at most CHUNK_TRANSACTIONS jobs, and holds back the tail
    for its reader (see verify).  worker_cost and here_cost are the measured
    seconds per signature of the worker (as each answer reports it) and of
    this process; worker_signatures and here_signatures count the signatures
    each verified.  They are read by tests and benchmarks, never by a report,
    which must not depend on timing.

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
        # unread leaves on collection, with its held-back jobs
        self._open: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self._open_ids = count()
        # requests sent and not yet answered, in the order the answers come:
        # (weak reference to the Verdicts, index of its first job, signatures)
        self._waiting: deque = deque()
        self.worker_cost, self.here_cost = Cost(), Cost()
        self._read_done = 0.0  # when a reader last read a Verdicts' last verdict
        self.worker_signatures = self.here_signatures = 0

    @property
    def pid(self) -> int:
        return self._process.pid

    def verify(self, jobs: Iterable, reading: Cost | None = None) -> Verdicts:
        """Queue jobs for verification; the verdicts are read when iterated.

        reading is the reader's measured time per verdict: what this process
        does outside the Verdicts from when the reader could turn to these
        verdicts to its last read.  The held-back tail holds the signatures
        that make the worker, verifying the rest, and the reader, reading
        every verdict and verifying the tail, take equal time.  A reader
        measured no faster than the worker verifies one signature holds back
        nothing of single-signature jobs; a reader without measurements
        counts as one.
        """
        return Verdicts(self, jobs, Cost() if reading is None else reading)

    def _held_back(self, jobs: list, reading: Cost) -> int:
        """Index of the first job of the tail to hold back: the shortest
        tail with at least (S * w - n * r) / (w + h) signatures, for n jobs
        with S signatures, w and h seconds per signature in the worker and
        here, and r seconds per verdict read."""
        worker_s = self.worker_cost.per_unit(_SIGNATURE_S)
        here_s = self.here_cost.per_unit(worker_s)
        read_s = reading.per_unit(worker_s)
        signatures = _signatures(jobs)
        target = (signatures * worker_s - len(jobs) * read_s) / (worker_s + here_s)
        start, held = len(jobs), 0
        while start and held < target:
            start -= 1
            held += len(jobs[start] or ())
        return start

    def _jobs_left(self) -> int:
        return sum(len(v._verdicts) - v._read for v in self._open.values())

    def _send(self, owner: Verdicts, end: int):
        """Send owner's jobs before end, CHUNK_TRANSACTIONS to a request.  A
        chunk with no signature to verify is judged here instead."""
        for start in range(0, end, CHUNK_TRANSACTIONS):
            jobs = owner._jobs[start : min(start + CHUNK_TRANSACTIONS, end)]
            signatures = _signatures(jobs)
            if not signatures:
                owner._verdicts[start : start + len(jobs)] = verify_jobs(jobs)
                continue
            try:
                self._conn.send(jobs)
            except OSError as exc:
                raise self._gone() from exc
            self._waiting.append((weakref.ref(owner), start, signatures))

    def _receive(self):
        """Read the next answer and hand it to the Verdicts that asked for it."""
        try:
            verdicts, seconds = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._gone() from exc
        ref, start, signatures = self._waiting.popleft()
        self.worker_cost.note(seconds, signatures)
        self.worker_signatures += signatures
        owner = ref()
        if owner is not None:  # else dropped unread: discard
            owner._verdicts[start : start + len(verdicts)] = verdicts

    def _advance(self, owner: Verdicts, i: int):
        """One step towards owner's verdict i, which is not known yet.

        In order of preference: read an answer that is ready; verify job i
        here if it was held back; verify up to CHUNK_TRANSACTIONS of owner's
        last held-back jobs not yet verified; otherwise wait for the next
        answer.
        """
        if self._waiting and self._conn.poll():
            self._receive()
        elif i == owner._lo:
            owner._lo += 1
            owner._verify_here(i, i + 1)
        elif owner._lo < owner._hi:
            end, owner._hi = owner._hi, max(owner._lo, owner._hi - CHUNK_TRANSACTIONS)
            owner._verify_here(owner._hi, end)
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
