"""Request/response types, error taxonomy and cost model for the store
protocol.

Failures travel as a typed :class:`StoreErrorCode` on the
:class:`Response` (and on the :class:`StoreError` raised client-side), so
policy decisions — retry? walk the replica chain? give up? — are driven by
the taxonomy instead of string parsing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Hashable

from ..units import GB

__all__ = ["Op", "Request", "Response", "StoreCostModel", "RateTracker",
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


@dataclass(frozen=True)
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
    client_node: str = ""


class StoreErrorCode(str, enum.Enum):
    """Why a store request failed.

    A ``str`` subclass so legacy comparisons against the old prefix
    strings (``exc.code == "missing"``) keep working during migration.
    """

    AUTH = "auth"                # AUTH policy rejected the request
    FULL = "full"                # store / container / node out of memory
    MISSING = "missing"          # key not present on this server
    BAD_REQUEST = "bad-request"  # malformed request (type/size errors)
    UNAVAILABLE = "unavailable"  # server crashed / gone / unreachable
    TIMEOUT = "timeout"          # client-side deadline expired

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

    :attr:`details` is an optional JSON-safe dict of structured context
    (for ``FULL``: the store id, requested bytes and free bytes, straight
    from :class:`~repro.store.kvstore.StoreFull`), so pressure/spill
    logic never parses :attr:`message`.
    """

    def __init__(self, code: StoreErrorCode | str, message: str = "",
                 details: dict | None = None):
        if not isinstance(code, StoreErrorCode):
            code = StoreErrorCode(code)
        super().__init__(f"{code.value}: {message}" if message
                         else code.value)
        self.code = code
        self.message = message
        self.details = dict(details) if details else {}

    def __reduce__(self):
        # args hold the formatted "code: message" string; default
        # exception pickling would feed that back into __init__ as
        # *code* and fail the StoreErrorCode lookup on unpickle.
        return (type(self), (self.code, self.message, self.details))

    @property
    def retryable(self) -> bool:
        return self.code.retryable


class Response:
    """Outcome of one request.

    Failures carry a :class:`StoreErrorCode` in :attr:`code` plus a plain
    :attr:`message`.
    """

    __slots__ = ("ok", "value", "code", "message", "details")

    def __init__(self, ok: bool, value: Any = None,
                 code: StoreErrorCode | str | None = None,
                 message: str = "", details: dict | None = None):
        self.ok = ok
        self.value = value
        self.details = dict(details) if details else {}
        if code is not None and not isinstance(code, StoreErrorCode):
            code = StoreErrorCode(code)
        self.code = code
        self.message = message

    def raise_for_status(self) -> None:
        """Raise the matching :class:`StoreError` if the request failed."""
        if not self.ok:
            raise StoreError(self.code or StoreErrorCode.BAD_REQUEST,
                             self.message, details=self.details)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.ok:
            return f"Response(ok=True, value={self.value!r})"
        return f"Response(ok=False, code={self.code!r}, " \
               f"message={self.message!r})"


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
