"""The store server process model.

A :class:`StoreServer` is one Redis stand-in bound to a node.  Serving a
request costs, concurrently:

- **CPU** on the serving node (fixed per-request cost + per-byte cost,
  capped at one core — Redis is single-threaded);
- **memory bandwidth** on the serving node (socket-buffer copies,
  ``membw_copy_factor`` bus bytes per payload byte);
- **network** between client and server through the shared fabric.

On victim nodes the server runs inside a :class:`~repro.cluster.Container`
whose caps bound its memory footprint, CPU rate and NIC rate (§III-F).
Request arrivals feed a :class:`~repro.store.protocol.RateTracker`; the
tenants' latency-sensitive phases read it as the OS-level disturbance term
(the paper's explanation of why BLAST hurts HPCC latency more than dd).
"""

from __future__ import annotations

import itertools
import math

from ..cluster.container import CapExceeded, Container
from ..cluster.network import Fabric
from ..cluster.node import Node, OutOfMemory
from ..sim import Environment, FluidResource
from .auth import AuthError, AuthPolicy
from .kvstore import KVStore, KeyMissing, StoreFull
from .protocol import (Op, RateTracker, Request, StoreCostModel, StoreError,
                       StoreErrorCode)

__all__ = ["StoreServer", "StoreError"]

_ids = itertools.count()


class StoreServer:
    """One in-memory store bound to a node, serving requests at a cost."""

    def __init__(self, env: Environment, node: Node, fabric: Fabric,
                 capacity: float, name: str | None = None,
                 auth: AuthPolicy | None = None,
                 container: Container | None = None,
                 costs: StoreCostModel | None = None):
        self.env = env
        self.node = node
        self.fabric = fabric
        self.name = name or f"store{next(_ids)}@{node.name}"
        self.auth = auth
        self.container = container
        # Default built per instance: a dataclass-instance default would be
        # one shared object across all servers (audited repo-wide).
        self.costs = costs = costs if costs is not None else StoreCostModel()
        if container is not None:
            capacity = min(capacity, container.caps.memory)
        self.kv = KVStore(capacity, key_overhead=costs.key_overhead,
                          name=self.name)
        # The Redis event loop is single-threaded: all of this server's
        # request CPU work serializes through one core's worth of capacity
        # (less, if the container caps CPU tighter).  This is what bounds a
        # node's ingest at ~1.5 GB/s and makes the α = 100 % case of
        # Fig. 2f receiver-bound.
        self.loop = FluidResource(env, capacity=self.cpu_cap,
                                  name=f"{self.name}.loop")
        self.request_rate = RateTracker()
        self.requests_served = 0
        self.crashed = False
        self._mem_owner = f"store:{self.name}"
        self._accounted = 0.0
        # Flow labels interned once; _pay_costs runs per request and the
        # f-strings showed up in the Fig. 2 profile.
        self._loop_label = f"store:{self.name}.loop"
        self._cpu_label = f"store:{self.name}.cpu"
        self._membw_label = f"store:{self.name}.membw"
        self._net_label = f"store:{self.name}.net"

    # -- resource caps ------------------------------------------------------------
    @property
    def cpu_cap(self) -> float:
        cap = 1.0  # single-threaded event loop
        if self.container is not None:
            cap = min(cap, self.container.cpu_cap)
        return cap

    @property
    def net_cap(self) -> float:
        """Per-transfer rate ceiling from the container, if any.  (The
        TCP/IPoIB ceiling is enforced by the per-node IPoIB links the
        store's flows cross — see :class:`repro.cluster.Fabric`.)"""
        return self.container.net_cap if self.container is not None else math.inf

    def request_rate_now(self) -> float:
        return self.request_rate.rate(self.env.now)

    def free_space(self) -> float:
        """Bytes a put could still admit, as of now — a zero-cost local
        peek (no simulated request), modeling the capacity gossip the
        write path's spill decisions consult (§III-E).

        Bounded by the KV capacity *and* by what the hosting container /
        node can actually back, so tenant memory pressure shows up here
        before a put would bounce with ``FULL``.
        """
        if self.crashed:
            return 0.0
        free = self.kv.free_bytes
        if self.container is not None:
            free = min(free, self.container.memory_available)
        else:
            free = min(free, self.node.memory_free)
        return max(free, 0.0)

    # -- memory accounting ----------------------------------------------------------
    def _sync_memory(self) -> None:
        """Mirror the KV footprint into node/container accounting."""
        delta = self.kv.used_bytes - self._accounted
        if delta > 0:
            if self.container is not None:
                self.container.allocate(delta)
            else:
                self.node.allocate_memory(self._mem_owner, delta)
        elif delta < 0:
            if self.container is not None:
                self.container.free(-delta)
            else:
                self.node.free_memory(self._mem_owner, -delta)
        self._accounted = self.kv.used_bytes

    @property
    def memory_used(self) -> float:
        return self._accounted

    def _full_details(self, exc: Exception, requested: float) -> dict:
        """Structured context of a FULL rejection for the response."""
        if isinstance(exc, StoreFull):
            details = exc.details()
            details.setdefault("store", self.name)
            return details
        # Container cap / node memory exhausted: the KV had room, the
        # backing memory did not.
        return {"store": self.name, "requested_bytes": float(requested),
                "free_bytes": float(self.free_space())}

    # -- serving ------------------------------------------------------------------
    def serve(self, request: Request, client_node: Node):
        """Generator: performs the request and returns the op's value.

        Call as ``value = yield from server.serve(req, my_node)`` —
        normally through :class:`~repro.store.client.StoreClient`.  A
        failed request raises :class:`StoreError`: ``UNAVAILABLE`` on a
        crashed server, ``AUTH``, ``MISSING`` on a GET/DELETE miss,
        ``FULL`` (with :attr:`StoreError.details`) when the KV, container
        or node cannot back a write, and ``BAD_REQUEST`` otherwise.
        """
        if self.crashed:
            # The store process is dead: requests bounce immediately (the
            # client's chain walk / retry policy decides what happens next).
            raise StoreError(StoreErrorCode.UNAVAILABLE, f"{self.name} is down")
        if self.auth is not None:
            try:
                self.auth.check(request.password, client_node.name)
            except AuthError as exc:
                raise StoreError(StoreErrorCode.AUTH, str(exc)) from None
        batch = max(1, int(request.batch))
        self.request_rate.record(self.env.now, count=batch)
        self.requests_served += batch

        op = request.op
        kv = self.kv
        size = 0.0
        try:
            if op is Op.PUT:
                size = (float(len(request.payload))
                        if request.payload is not None
                        else float(request.nbytes or 0.0))
                yield from self._pay_costs(size, src=client_node,
                                           dst=self.node, batch=batch)
                kv.put(request.key, nbytes=request.nbytes,
                       payload=request.payload)
                self._sync_memory()
                return size
            if op is Op.GET:
                nbytes, payload = kv.get(request.key)
                yield from self._pay_costs(nbytes, src=self.node,
                                           dst=client_node, batch=batch)
                return nbytes, payload
            if op is Op.DELETE:
                released = kv.delete(request.key)
                self._sync_memory()
                yield from self._pay_costs(0.0, src=client_node, dst=self.node)
                return released
            if op is Op.EXISTS:
                yield from self._pay_costs(0.0, src=client_node, dst=self.node)
                return kv.contains(request.key)
            if op is Op.FLUSH:
                released = kv.flush()
                self._sync_memory()
                yield from self._pay_costs(0.0, src=client_node, dst=self.node)
                return released
            if op is Op.INFO:
                yield from self._pay_costs(0.0, src=client_node, dst=self.node)
                return kv.info()
            if op is Op.SADD:
                yield from self._pay_costs(0.0, src=client_node, dst=self.node)
                added = kv.sadd(request.key, request.member or "")
                self._sync_memory()
                return added
            if op is Op.SREM:
                yield from self._pay_costs(0.0, src=client_node, dst=self.node)
                removed = kv.srem(request.key, request.member or "")
                self._sync_memory()
                return removed
            if op is Op.SMEMBERS:
                yield from self._pay_costs(0.0, src=client_node, dst=self.node)
                return kv.smembers(request.key)
        except KeyMissing:
            raise StoreError(StoreErrorCode.MISSING,
                             repr(request.key)) from None
        except (StoreFull, CapExceeded, OutOfMemory) as exc:
            raise StoreError(StoreErrorCode.FULL, str(exc),
                             details=self._full_details(exc, size)) from None
        except (ValueError, TypeError) as exc:
            raise StoreError(StoreErrorCode.BAD_REQUEST, str(exc)) from None
        raise StoreError(StoreErrorCode.BAD_REQUEST, f"unknown op {op}")

    def _pay_costs(self, nbytes: float, src: Node, dst: Node,
                   batch: int = 1):
        """Concurrently pay CPU + memory-bandwidth + network for a payload."""
        cpu_work = (self.costs.cpu_per_request * batch
                    + self.costs.cpu_per_byte * nbytes)
        # Serialize through the single-threaded event loop *and* account the
        # same work on the node's CPU (where it contends with tenant
        # compute); the request waits for both, so a busy node slows the
        # store and a busy store never exceeds one core.
        loop_flow = self.loop.submit(cpu_work, label=self._loop_label)
        cpu_flow = self.node.cpu.submit(
            cpu_work, cap=self.cpu_cap,
            label=self._cpu_label)
        waits = [loop_flow.done, cpu_flow.done]
        membw_flow = net_flow = None
        if nbytes > 0:
            membw_flow = self.node.membw.submit(
                self.costs.membw_work(nbytes), label=self._membw_label)
            net_flow = self.fabric.transfer(src, dst, nbytes,
                                            cap=self.net_cap,
                                            label=self._net_label,
                                            transport="tcp")
            waits.append(membw_flow.done)
            waits.append(net_flow.done)
        try:
            yield self.env.all_of(waits)
        except BaseException:
            # Interrupted mid-request (e.g. eviction): withdraw leftovers.
            self.loop.remove(loop_flow)
            self.node.cpu.remove(cpu_flow)
            if membw_flow is not None:
                self.node.membw.remove(membw_flow)
            if net_flow is not None:
                self.fabric.net.remove(net_flow)
            raise

    # -- lifecycle ---------------------------------------------------------------
    def crash(self) -> float:
        """Kill the store process: contents are lost, requests bounce.

        Models a victim-side store being OOM-killed or its node failing
        (the fault injector's crash events).  Memory is released back to
        the node — the process is gone — and every subsequent request gets
        :data:`StoreErrorCode.UNAVAILABLE` until :meth:`restart`.
        """
        released = self.kv.flush()
        self._sync_memory()
        self.crashed = True
        return released

    def restart(self) -> None:
        """Bring the (empty) store back up after a crash."""
        self.crashed = False

    def shutdown(self) -> float:
        """Flush the store and release all accounted memory."""
        released = self.kv.flush()
        self._sync_memory()
        if self.container is not None:
            self.container.release()
        return released

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StoreServer {self.name}>"
