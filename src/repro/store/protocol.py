"""Request type, error taxonomy and cost model for the store protocol.

A request either returns its op's value or raises :class:`StoreError`,
the one failure type from the KV store up to the chain walk.  The error
carries a typed :class:`StoreErrorCode`, so policy decisions — retry?
walk the replica chain? give up? — are driven by the taxonomy instead of
string parsing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Hashable

from ..units import GB

__all__ = ["Op", "Request", "StoreCostModel", "RateTracker",
           "StoreErrorCode", "StoreError", "RetryPolicy", "NO_RETRY"]


class Op(enum.Enum):
    PUT = "put"
    GET = "get"
    DELETE = "delete"
    EXISTS = "exists"
    FLUSH = "flush"
    INFO = "info"
    # Set-valued operations (Redis SADD/SREM/SMEMBERS): used for directory
    # entries so concurrent metadata updates are server-side atomic.
    SADD = "sadd"
    SREM = "srem"
    SMEMBERS = "smembers"


@dataclass(slots=True)
class Request:
    op: Op
    key: Hashable = None
    nbytes: float | None = None
    payload: bytes | None = None
    member: str | None = None   # for SADD / SREM
    # A request may stand for a *batch* of `batch` small application-level
    # requests (e.g. one bundle of Montage's 1-4 MB files).  Bytes are the
    # payload total; per-request CPU and the arrival-rate tracker are
    # charged `batch` times, preserving the latency-interference behaviour
    # of many-small-request workloads at a fraction of the event count.
    batch: int = 1
    password: str = ""


class StoreErrorCode(str, enum.Enum):
    """Why a store request failed.

    A ``str`` subclass, so a code compares and hashes equal to its value
    (see ``__hash__`` below).
    """

    AUTH = "auth"                # AUTH policy rejected the request
    FULL = "full"                # store / container / node out of memory
    MISSING = "missing"          # key not present on this server
    BAD_REQUEST = "bad-request"  # malformed request (type/size errors)
    UNAVAILABLE = "unavailable"  # server crashed / gone / unreachable
    TIMEOUT = "timeout"          # client-side deadline expired

    # Equal members hash equal to their str values (Enum's own __hash__
    # hashes the member name), and the set lookups behind retryable,
    # fallthrough and RetryPolicy.should_retry skip a Python-level call.
    __hash__ = str.__hash__

    @property
    def retryable(self) -> bool:
        """May the *same* request be retried (same server) with any hope?

        Timeouts and crashes are transient; a missing key, a full store,
        or a rejected request will fail identically on retry — those are
        handled by walking the replica chain, not by retrying.
        """
        return self in _RETRYABLE

    @property
    def fallthrough(self) -> bool:
        """Should a chain read fall through to the next replica?"""
        return self in _FALLTHROUGH


_RETRYABLE = frozenset({StoreErrorCode.TIMEOUT, StoreErrorCode.UNAVAILABLE})
_FALLTHROUGH = frozenset({StoreErrorCode.MISSING, StoreErrorCode.UNAVAILABLE,
                          StoreErrorCode.TIMEOUT})


class StoreError(RuntimeError):
    """A store request failed; :attr:`code` carries the typed cause.

    Raised by :meth:`~repro.store.server.StoreServer.serve`, and by the
    client itself for a timeout or an empty replica chain; the client's
    retry loop and chain walk catch it and decide on :attr:`code`.

    :attr:`details` is an optional JSON-safe dict of structured context
    (for ``FULL``: the store id, requested bytes and free bytes, straight
    from :class:`~repro.store.kvstore.StoreFull`), so pressure/spill
    logic never parses :attr:`message`.
    """

    def __init__(self, code: StoreErrorCode, message: str = "",
                 details: dict | None = None):
        value = code._value_
        super().__init__(f"{value}: {message}" if message else value)
        self.code = code
        self.message = message
        self.details = dict(details) if details else {}

    def __reduce__(self):
        # args hold the formatted "code: message" string; default
        # exception pickling would feed that back into __init__ as
        # *code* and fail on unpickle.
        return (type(self), (self.code, self.message, self.details))

    @property
    def retryable(self) -> bool:
        return self.code.retryable


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and jitter.

    Delays are drawn through the caller's seeded ``sim.rng`` stream (never
    the global ``random`` module) so retry timing is reproducible
    bit-for-bit.  ``attempts`` counts total tries, so ``attempts=1``
    disables retrying.
    """

    attempts: int = 3
    base_delay: float = 1e-3      # first backoff, seconds
    multiplier: float = 2.0       # exponential growth per attempt
    max_delay: float = 0.25       # backoff ceiling
    jitter: float = 0.5           # +/- fraction of the delay randomized
    retry_on: frozenset = _RETRYABLE

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def should_retry(self, code: StoreErrorCode, attempt: int) -> bool:
        """True if try number *attempt* (1-based) may be followed by another."""
        return attempt < self.attempts and code in self.retry_on

    def backoff(self, attempt: int, rng=None) -> float:
        """Delay before try ``attempt + 1`` (attempt is 1-based)."""
        delay = min(self.base_delay * self.multiplier ** (attempt - 1),
                    self.max_delay)
        if rng is not None and self.jitter > 0 and delay > 0:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return delay


#: Retry disabled: single attempt, no backoff.
NO_RETRY = RetryPolicy(attempts=1)


@dataclass(frozen=True)
class StoreCostModel:
    """Resource cost per store request, at measured Redis-over-IPoIB scale:
    the single-threaded Redis event loop sustains ~1.5 GB/s of payload per
    core (protocol parsing + memcpy + kernel TCP/IPoIB), a request costs
    tens of microseconds of CPU, and every stored byte crosses the memory
    bus about twice (socket buffer in, value store out).

    These constants drive the victim-side bounds of Fig. 2 (CPU < 5 %, NIC
    < 16 %), the receiver-bound slowdown of the α = 100 % case in Fig. 2f,
    and the memory-bandwidth interference felt by STREAM in Fig. 3.
    """

    cpu_per_request: float = 30e-6          # core-seconds per request
    cpu_per_byte: float = 1.0 / (1.5 * GB)  # core-seconds per payload byte
    membw_copy_factor: float = 2.0          # memory-bus bytes per payload byte
    key_overhead: float = 128.0             # store metadata bytes per key

    def cpu_work(self, nbytes: float) -> float:
        return self.cpu_per_request + self.cpu_per_byte * nbytes

    def membw_work(self, nbytes: float) -> float:
        return self.membw_copy_factor * nbytes


class RateTracker:
    """Exponentially-decayed event rate (events/s).

    Tracks the store's request arrival rate; tenants' latency-sensitive
    phases read it to compute interference (the paper's BLAST-vs-dd effect:
    many small requests inflate MPI latency more than few large ones).
    """

    __slots__ = ("tau", "_rate", "_last")

    def __init__(self, tau: float = 2.0):
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = tau
        self._rate = 0.0
        self._last = 0.0

    def record(self, now: float, count: float = 1.0) -> None:
        self._decay(now)
        self._rate += count / self.tau

    def rate(self, now: float) -> float:
        self._decay(now)
        return self._rate

    def _decay(self, now: float) -> None:
        dt = now - self._last
        if dt > 0:
            self._rate *= math.exp(-dt / self.tau)
            self._last = now
