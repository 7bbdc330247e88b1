"""Store client: the own-node side of the store protocol.

Each own node (the only nodes allowed by the AUTH policy, §III-F) runs one
client.  All methods are generators to be driven inside a simulation
process::

    resp_bytes, payload = yield from client.get(server, "stripe-3")

Round-trip latency is charged here (request + response legs, a failed
request included); payload and service costs are charged by the server
(:mod:`repro.store.server`).  A request returns the op's value or raises
:class:`~repro.store.protocol.StoreError`, whether the server failed it
or the client's deadline expired; the retry loop and the chain walk
catch that one type.

A client's resilience posture is fixed at construction: a ``deadline``
(wall-clock budget of every request) and a default ``retry``
(:class:`~repro.store.protocol.RetryPolicy` with exponential backoff +
seeded jitter), which an operation's ``retry=`` keyword may override.
Chain reads (:meth:`StoreClient.get_any`) walk the replicas one at a
time in rank order.  Backoff jitter draws from a ``sim.rng`` stream,
never the global ``random`` module, so retry timing is bit-reproducible.
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

from ..cluster.network import Fabric
from ..cluster.node import Node
from ..faults.availability import avail_stats
from ..faults.stats import fault_stats
from ..sim import Environment
from ..sim.rng import RngRegistry
from .protocol import Op, Request, RetryPolicy, StoreError, StoreErrorCode
from .server import StoreServer

__all__ = ["StoreClient"]


class StoreClient:
    """Issues requests from one node to any store server.

    *deadline* bounds every request (``None`` means unbounded); *retry*
    is the default policy, overridable per operation with ``retry=``.
    """

    def __init__(self, env: Environment, fabric: Fabric, node: Node,
                 password: str = "", *,
                 deadline: float | None = None,
                 retry: RetryPolicy | None = None,
                 rng=None):
        self.env = env
        self.fabric = fabric
        self.node = node
        self.password = password
        self.deadline = deadline
        self.retry = retry if retry is not None else RetryPolicy()
        # Backoff jitter must come from a seeded stream; a private
        # per-node registry keeps un-parameterized constructions (tests,
        # examples) deterministic too.
        self.rng = rng if rng is not None else \
            RngRegistry(0).stream(f"store.client.{node.name}")

    def request(self, server: StoreServer, req: Request):
        """Generator: one full round trip; returns the op's value or
        raises the server's :class:`StoreError`.

        Under the client's *deadline* the attempt is raced against a
        timer; on expiry the in-flight request is interrupted (its
        resource flows are withdrawn by the server) and a ``TIMEOUT``
        error is raised.  A request that fails before the deadline
        raises its own code.
        """
        deadline = self.deadline
        if deadline is None or deadline == math.inf:
            return (yield from self._round_trip(server, req))
        proc = self.env.process(self._round_trip(server, req),
                                name=f"store-req@{self.node.name}")
        timer = self.env.timeout(deadline)
        # A failed round trip fails the any_of, re-raising its error here.
        yield self.env.any_of([proc, timer])
        if proc.triggered:
            return proc.value
        proc.interrupt("deadline")
        fault_stats.timeouts += 1
        raise StoreError(StoreErrorCode.TIMEOUT,
                         f"{req.op.value} {req.key!r} exceeded "
                         f"{deadline:.6g}s deadline to {server.name}")

    def _round_trip(self, server: StoreServer, req: Request):
        rtt_leg = self.fabric.latency(self.node, server.node)
        if rtt_leg > 0:
            yield self.env.timeout(rtt_leg)
        try:
            value = yield from server.serve(req, self.node)
        except StoreError:
            # The failure reply crosses the fabric too.
            if rtt_leg > 0:
                yield self.env.timeout(rtt_leg)
            raise
        if rtt_leg > 0:
            yield self.env.timeout(rtt_leg)
        return value

    def _checked(self, server: StoreServer, req: Request, *,
                 retry: RetryPolicy | None = None):
        """Generator: request with bounded retries; returns the value or
        raises the typed :class:`StoreError`."""
        policy = retry if retry is not None else self.retry
        attempt = 0
        while True:
            attempt += 1
            try:
                return (yield from self.request(server, req))
            except StoreError as exc:
                code = exc.code
                if code is StoreErrorCode.UNAVAILABLE:
                    fault_stats.unavailable_errors += 1
                if not policy.should_retry(code, attempt):
                    raise
            fault_stats.retries += 1
            delay = policy.backoff(attempt, self.rng)
            if delay > 0:
                yield self.env.timeout(delay)

    # -- operations ---------------------------------------------------------------
    def put(self, server: StoreServer, key: Hashable,
            nbytes: float | None = None, payload: bytes | None = None,
            batch: int = 1, *, retry: RetryPolicy | None = None):
        """Store a value; returns the stored size."""
        return (yield from self._checked(server, Request(
            Op.PUT, key=key, nbytes=nbytes, payload=payload, batch=batch,
            password=self.password), retry=retry))

    def get(self, server: StoreServer, key: Hashable, batch: int = 1, *,
            retry: RetryPolicy | None = None):
        """Fetch a value; returns ``(nbytes, payload_or_None)``."""
        return (yield from self._checked(server, Request(
            Op.GET, key=key, batch=batch, password=self.password),
            retry=retry))

    def delete(self, server: StoreServer, key: Hashable, *,
               retry: RetryPolicy | None = None):
        """Delete a key; returns the bytes released."""
        return (yield from self._checked(server, Request(
            Op.DELETE, key=key, password=self.password), retry=retry))

    def exists(self, server: StoreServer, key: Hashable, *,
               retry: RetryPolicy | None = None):
        return (yield from self._checked(server, Request(
            Op.EXISTS, key=key, password=self.password), retry=retry))

    def flush(self, server: StoreServer, *, retry: RetryPolicy | None = None):
        return (yield from self._checked(server, Request(
            Op.FLUSH, password=self.password), retry=retry))

    def info(self, server: StoreServer, *, retry: RetryPolicy | None = None):
        return (yield from self._checked(server, Request(
            Op.INFO, password=self.password), retry=retry))

    def sadd(self, server: StoreServer, key: Hashable, member: str, *,
             retry: RetryPolicy | None = None):
        """Add a member to a server-side set; returns True if new."""
        return (yield from self._checked(server, Request(
            Op.SADD, key=key, member=member, password=self.password),
            retry=retry))

    def srem(self, server: StoreServer, key: Hashable, member: str, *,
             retry: RetryPolicy | None = None):
        """Remove a member from a server-side set; returns True if present."""
        return (yield from self._checked(server, Request(
            Op.SREM, key=key, member=member, password=self.password),
            retry=retry))

    def smembers(self, server: StoreServer, key: Hashable, *,
                 retry: RetryPolicy | None = None):
        """Members of a server-side set (frozenset)."""
        return (yield from self._checked(server, Request(
            Op.SMEMBERS, key=key, password=self.password), retry=retry))

    # -- chain reads ---------------------------------------------------------------
    def get_any(self, servers: Sequence[StoreServer], key: Hashable, *,
                batch: int = 1, retry: RetryPolicy | None = None):
        """Generator: fetch *key* from the first replica in *servers* that
        answers, walking them in rank order (the stripe's HRW chain).

        Misses, crashes and timeouts fall through to the next replica
        (lazy movement, §V-C); other errors propagate.  A success served
        by any non-primary replica counts as a degraded read.
        """
        servers = [s for s in servers if s is not None]
        if not servers:
            raise StoreError(StoreErrorCode.UNAVAILABLE,
                             f"{key!r}: no live replica")
        last: StoreError | None = None
        started = self.env.now
        for rank, server in enumerate(servers):
            try:
                value = yield from self.get(server, key, batch=batch,
                                            retry=retry)
            except StoreError as exc:
                if not exc.code.fallthrough:
                    raise
                last = exc
                continue
            if rank > 0:
                fault_stats.degraded_reads += 1
                avail_stats.record_degraded_read(self.env.now - started)
            return value
        assert last is not None
        raise last
