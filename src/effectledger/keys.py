"""ECDSA P-256 signatures over SHA-256 with deterministic nonces, and the
worker process that verifies the signatures of ordered blocks.

Nonce derivation is deterministic (RFC 6979 style via the backing library), so
a simulation run signs byte-identical signatures given identical inputs.  Key
pairs are derived from seed material for the same reason; this is a simulation
aid, not a production key-management scheme.

Where signatures are verified.  An organization checks the client and
agreement signatures of a block's transactions when the ordered block reaches
it: OrgNode.receive_action sends them, in chunks of CHUNK_TRANSACTIONS
transactions, to the one SignatureWorker of this process, and
OrgNode.execute_action reads the verdicts back in block order.  Each
organization sends its own checks and reads its own verdicts; nothing is
shared between organizations or remembered across requests.  Effect votes and
endorsement requests are verified in the calling process, by verify.

Why a process: verification holds the interpreter lock, so a second thread
verifies no faster than one.  Why no helper thread in the main process: a
thread there that collects results contends for the lock with execution (a
ProcessPoolExecutor, which has such a thread, lowered tps on bank-corrupt).
So the main process only writes requests to a pipe and reads results from it
when execute_action needs them.  The reader thread sits inside the worker: it
drains requests as they come, so the main process never waits on a send.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import queue
import threading
import weakref
from collections.abc import Iterable
from itertools import islice

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec

from .errors import InvalidKey, VerifierUnavailable

# Group order of P-256; seed-derived scalars are folded into [1, n-1].
_P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

_SIGN_ALGO = ec.ECDSA(hashes.SHA256(), deterministic_signing=True)
_VERIFY_ALGO = ec.ECDSA(hashes.SHA256())

# Transactions per request to the worker.  Execution waits for the first
# chunk of a block only, and parses each chunk while the worker verifies the
# next.  Measured on 2 cores: on bank-corrupt (blocks of 256), chunks of 128
# and 256 gave about 15% less tps than 16 to 64, because execution then waits
# for half or all of a block; between 16 and 64 the workloads differed by no
# more than noise, and 32 lets execution start after 32 verifications.
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
    """
    loaded = {} if loaded is None else loaded
    verdicts = []
    for job in jobs:
        ok = job is not None
        for raw, signature, message in job or ():
            key = loaded.get(raw)
            if key is None:
                key = loaded[raw] = load_public_bytes(raw)
            if not verify(key, signature, message):
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

    def known(self, identity: str) -> bool:
        return identity in self._keys

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
    """Worker main: verify requests in arrival order until the pipe closes.

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
        while (request := requests.get()) is not None:
            request_id, jobs = request
            conn.send((request_id, verify_jobs(jobs, loaded)))
    except OSError:
        pass  # the main process is gone
    finally:
        conn.close()


class Verdicts:
    """Verdicts of one sequence of jobs, sent to the worker in chunks.

    Iterating, once, yields one verdict per job in order, waiting for each
    chunk only when it is reached.  Raises VerifierUnavailable if the worker
    died.
    """

    def __init__(self, worker: "SignatureWorker", jobs: Iterable):
        self._worker = worker
        self._received: dict[int, list[bool]] = {}
        self._requests: list[int] = []
        jobs = iter(jobs)
        while chunk := list(islice(jobs, CHUNK_TRANSACTIONS)):
            self._requests.append(worker._send(chunk, self))

    def __iter__(self):
        for request_id in self._requests:
            while request_id not in self._received:
                self._worker._receive()
            yield from self._received.pop(request_id)


class SignatureWorker:
    """A process that runs verify_jobs, and this process's end of its pipe.

    The worker is forked.  The spawn and forkserver methods run the main
    module again in the child, which fails in a script without a __main__
    guard, and a library user should not need one.  A fork is safe while the
    process has no other thread: signature_worker starts the worker on first
    use, from the thread that runs the organizations, and the program's only
    other threads, execute_staged's sessions, end with each call.
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
        self._next_id = 0
        # request id -> the Verdicts waiting for it; a result whose Verdicts
        # was dropped unread is discarded on arrival
        self._waiting: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    @property
    def pid(self) -> int:
        return self._process.pid

    def verify(self, jobs: Iterable) -> Verdicts:
        """Send jobs for verification, building them a chunk at a time; the
        verdicts are read when iterated."""
        return Verdicts(self, jobs)

    def _send(self, jobs: list, owner: Verdicts) -> int:
        request_id = self._next_id
        self._next_id += 1
        self._waiting[request_id] = owner
        try:
            self._conn.send((request_id, jobs))
        except OSError as exc:
            raise self._gone() from exc
        return request_id

    def _receive(self):
        """Read the next result and hand it to the Verdicts that asked for it."""
        try:
            request_id, verdicts = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._gone() from exc
        owner = self._waiting.pop(request_id, None)
        if owner is not None:
            owner._received[request_id] = verdicts

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
