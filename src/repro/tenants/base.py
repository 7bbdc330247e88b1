"""Phase-based tenant workload models.

The victim nodes run "well-known real-world high-performance computing and
big data benchmarks" (§IV-A-2).  Each benchmark is modeled as a sequence of
**phases** executed SPMD across the tenant's nodes with a barrier after
each phase (the MPI/MapReduce execution style).  Every phase demands one
dominant resource, and slows down exactly through the channel the paper
names for it:

==================  ==========================================================
phase               interference channel with the scavenging store
==================  ==========================================================
ComputePhase        node CPU cores (the store's ≤ 1 core fair share)
MemBandwidthPhase   node memory bus, shared max-min with store socket copies,
                    plus a cache/NUMA *pollution* term (see below)
NetworkPhase        NIC links, shared max-min with store transfers
LatencyPhase        per-message inflation from store request handling
                    (softirq/context-switch disturbance) and NIC queueing
DiskPhase           page cache: the store's resident bytes shrink the cache,
                    misses go to the ~150 MB/s disk
AllocPhase/Free     memory capacity (drives the monitord eviction path)
==================  ==========================================================

Two *calibration constants* cover effects below the fluid model's
resolution; both are global, disclosed, and fitted once against Fig. 3
(see EXPERIMENTS.md):

- ``MEMBW_POLLUTION`` — a byte of store traffic disturbs a saturated
  STREAM-like kernel more than its bus share (cache-line eviction, NUMA
  imbalance, prefetcher disruption).
- ``LATENCY_DISTURBANCE`` — a store request's interrupt/softirq handling
  inflates small-message round trips beyond its raw CPU share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.node import Node
from ..sim import Environment
from ..store import StoreServer

__all__ = [
    "MEMBW_POLLUTION", "LATENCY_DISTURBANCE",
    "InterferenceProbe", "PhaseContext",
    "Phase", "ComputePhase", "MemBandwidthPhase", "NetworkPhase",
    "LatencyPhase", "DiskPhase", "AllocPhase", "FreePhase", "SleepPhase",
    "PhasedWorkload", "TenantRun", "run_tenant",
]

#: Bus-interference amplification of store traffic on bandwidth-saturated
#: kernels (calibrated once against Fig. 3a STREAM ≈ 11-12 % under dd).
MEMBW_POLLUTION = 5.0

#: Small-message latency inflation per unit of store request-handling CPU
#: (calibrated once against Fig. 3a latency ≈ 11-12 % under BLAST).
LATENCY_DISTURBANCE = 1.2


class InterferenceProbe:
    """Reads the scavenging store's instantaneous pressure on a node.

    Store flows are labeled ``store:*`` on the shared fluid resources; the
    request rate comes from the servers' arrival trackers.
    """

    def __init__(self, servers_by_node: dict[str, list[StoreServer]] | None = None,
                 net=None, copy_factor: float = 2.0):
        self._servers = dict(servers_by_node or {})
        self._net = net
        self._copy_factor = copy_factor

    @classmethod
    def from_servers(cls, servers: dict[str, StoreServer]) -> "InterferenceProbe":
        by_node: dict[str, list[StoreServer]] = {}
        net = None
        copy = 2.0
        for s in servers.values():
            by_node.setdefault(s.node.name, []).append(s)
            net = s.fabric.net
            copy = s.costs.membw_copy_factor
        return cls(by_node, net=net, copy_factor=copy)

    def membw_share(self, node: Node) -> float:
        """Instantaneous fraction of the node's memory bus moved by store
        traffic, derived from the store flows on the node's NIC links
        (every wire byte is copied ``copy_factor`` times over the bus)."""
        rate = 0.0
        if self._net is not None:
            rx, tx = node.rx, node.tx
            for f in self._net.flows:
                if f.label.startswith("store:") and (rx in f.links
                                                     or tx in f.links):
                    rate += f.rate * self._copy_factor
        return rate / node.spec.memory_bandwidth

    def store_net_bytes(self, node: Node) -> float:
        """Cumulative store bytes through this node's NIC links.

        Deltas of this counter over a window give the *average* store
        pressure during the window — immune to burst aliasing, unlike an
        instantaneous sample.
        """
        if self._net is None:
            return 0.0
        self._net.settle()
        total = 0.0
        for link in (node.rx, node.tx):
            if link is not None:
                total += link.class_bytes_of("store")
        return total

    def request_rate(self, node: Node, now: float) -> float:
        """Store requests/s arriving at servers on this node."""
        return sum(s.request_rate.rate(now)
                   for s in self._servers.get(node.name, ()))

    def resident_bytes(self, node: Node) -> float:
        """Store memory resident on the node (page-cache displacement)."""
        return sum(s.memory_used for s in self._servers.get(node.name, ()))


@dataclass
class PhaseContext:
    """Everything a phase needs to run on one node."""

    env: Environment
    node: Node
    peers: list[Node]          # the other nodes of this tenant group
    fabric: object             # repro.cluster.Fabric
    probe: InterferenceProbe
    owner: str                 # memory-accounting owner name


class Phase:
    """Base phase: subclasses implement :meth:`run` as a generator."""

    name = "phase"

    def run(self, ctx: PhaseContext):
        raise NotImplementedError
        yield  # pragma: no cover

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


@dataclass
class ComputePhase(Phase):
    """CPU-bound work: *core_seconds* of compute at up to *cores* wide."""

    core_seconds: float
    cores: int = 32
    name: str = "compute"

    def run(self, ctx: PhaseContext):
        if self.core_seconds <= 0:
            return
        yield from ctx.node.cpu.consume(self.core_seconds,
                                        cap=float(self.cores),
                                        label=f"tenant:{self.name}")


@dataclass
class MemBandwidthPhase(Phase):
    """Memory-bandwidth-bound kernel (STREAM, sort buffers, GUPS tables).

    Moves *nbytes* over the node's memory bus.  Beyond the max-min shared
    bus, concurrent store traffic costs an extra ``pollution`` × share
    slowdown (cache/NUMA disturbance), applied chunk-by-chunk so bursty
    scavenging hits only the chunks it overlaps.
    """

    nbytes: float
    pollution: float = MEMBW_POLLUTION
    chunks: int = 16
    name: str = "membw"

    def run(self, ctx: PhaseContext):
        if self.nbytes <= 0:
            return
        chunk = self.nbytes / self.chunks
        copy = getattr(ctx.probe, "_copy_factor", 2.0)
        cap = ctx.node.spec.memory_bandwidth
        for _ in range(self.chunks):
            # Move the chunk, then pay the pollution penalty for the store
            # traffic that *actually* overlapped it (retrospective, so
            # bursty scavenging is integrated instead of alias-sampled).
            before = ctx.probe.store_net_bytes(ctx.node)
            t0 = ctx.env.now
            yield from ctx.node.membw.consume(chunk,
                                              label=f"tenant:{self.name}")
            dt = ctx.env.now - t0
            moved = ctx.probe.store_net_bytes(ctx.node) - before
            share = (moved * copy) / (cap * dt) if dt > 0 else 0.0
            extra = chunk * self.pollution * share
            if extra > 0:
                yield from ctx.node.membw.consume(
                    extra, label=f"tenant:{self.name}")


@dataclass
class NetworkPhase(Phase):
    """Bulk network exchange with the peer group.

    ``pattern='alltoall'`` sends ``nbytes_per_peer`` to every peer
    concurrently (shuffle); ``'ring'`` sends to the next peer only
    (bandwidth benchmarks).  Shares NICs max-min with store flows.
    """

    nbytes_per_peer: float
    pattern: str = "alltoall"
    # MPI exchanges ride native verbs; Hadoop/Spark shuffles are TCP and
    # therefore share the per-node IPoIB ceiling with the store's flows.
    transport: str = "verbs"
    name: str = "network"

    def run(self, ctx: PhaseContext):
        if self.nbytes_per_peer <= 0 or not ctx.peers:
            return
        if self.pattern == "ring":
            me = [p.name for p in ctx.peers + [ctx.node]]
            me.sort()
            idx = me.index(ctx.node.name)
            target_name = me[(idx + 1) % len(me)]
            targets = [p for p in ctx.peers if p.name == target_name]
        elif self.pattern == "alltoall":
            targets = ctx.peers
        else:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        flows = [ctx.fabric.transfer(ctx.node, dst, self.nbytes_per_peer,
                                     label=f"tenant:{self.name}",
                                     transport=self.transport)
                 for dst in targets]
        try:
            yield ctx.env.all_of([f.done for f in flows])
        except BaseException:
            for f in flows:
                ctx.fabric.net.remove(f)
            raise


@dataclass
class LatencyPhase(Phase):
    """Small-message ping-pong (MPI latency, metadata chatter).

    Per-message time = base RTT × (1 + disturbance × store-request CPU +
    NIC queueing share), sampled every chunk of messages.
    """

    n_messages: int
    base_rtt: float = 4e-6
    disturbance: float = LATENCY_DISTURBANCE
    chunks: int = 16
    name: str = "latency"

    def run(self, ctx: PhaseContext):
        if self.n_messages <= 0:
            return
        per_chunk = self.n_messages / self.chunks
        from ..store.protocol import StoreCostModel
        cost = StoreCostModel()
        nic_cap = ctx.node.spec.nic_bandwidth
        for _ in range(self.chunks):
            # Send the chunk at the base rate, then pay for the disturbance
            # that actually overlapped it: store request handling (softirq
            # CPU) and NIC queueing from store bytes on this node's links.
            before = ctx.probe.store_net_bytes(ctx.node)
            t0 = ctx.env.now
            yield ctx.env.timeout(per_chunk * self.base_rtt)
            dt = ctx.env.now - t0
            req_cpu = (ctx.probe.request_rate(ctx.node, ctx.env.now)
                       * cost.cpu_per_request)
            moved = ctx.probe.store_net_bytes(ctx.node) - before
            nic_q = moved / (nic_cap * dt) if dt > 0 else 0.0
            extra = per_chunk * self.base_rtt * (
                self.disturbance * req_cpu + nic_q)
            if extra > 0:
                yield ctx.env.timeout(extra)


@dataclass
class DiskPhase(Phase):
    """HDFS-style disk I/O through the page cache.

    The cached fraction — ``page_cache / dataset`` — moves at memory-bus
    speed (reads hit cached pages; writes are absorbed by write-behind);
    the rest is synchronous disk traffic.  The scavenging store's resident
    bytes shrink the page cache, which is the paper's DFSIO-read mechanism
    in Fig. 4 and part of TeraSort's sensitivity.
    """

    nbytes: float
    dataset_bytes: float
    write: bool = False
    chunks: int = 8
    name: str = "disk"

    def run(self, ctx: PhaseContext):
        if self.nbytes <= 0:
            return
        chunk = self.nbytes / self.chunks
        for _ in range(self.chunks):
            cache = max(0.0, ctx.node.page_cache_bytes)
            hit = min(1.0, cache / self.dataset_bytes) \
                if self.dataset_bytes > 0 else 1.0
            if hit > 0:
                yield from ctx.node.membw.consume(chunk * hit,
                                                  label=f"tenant:{self.name}")
            if hit < 1:
                yield from ctx.node.disk.consume(chunk * (1 - hit),
                                                 label=f"tenant:{self.name}")


@dataclass
class FrameworkComputePhase(Phase):
    """JVM data-processing compute (Hadoop mappers/reducers, Spark tasks).

    Unlike a dense numeric kernel, framework code churns objects and
    buffers continuously, so it is *bandwidth-sensitive everywhere*, not
    only in explicit memcpy phases.  The inflation reuses the global
    ``MEMBW_POLLUTION`` constant scaled by a per-benchmark
    ``memory_intensity`` (the paper's qualitative labels: TeraSort
    "utilizes a large amount of memory", WordCount "has a high memory
    usage", ...), measured retrospectively per chunk like
    :class:`MemBandwidthPhase`.
    """

    core_seconds: float
    cores: int = 32
    memory_intensity: float = 1.0
    pollution: float = MEMBW_POLLUTION
    chunks: int = 8
    name: str = "fw-compute"

    def run(self, ctx: PhaseContext):
        if self.core_seconds <= 0:
            return
        chunk = self.core_seconds / self.chunks
        copy = getattr(ctx.probe, "_copy_factor", 2.0)
        cap = ctx.node.spec.memory_bandwidth
        for _ in range(self.chunks):
            before = ctx.probe.store_net_bytes(ctx.node)
            t0 = ctx.env.now
            yield from ctx.node.cpu.consume(chunk, cap=float(self.cores),
                                            label=f"tenant:{self.name}")
            dt = ctx.env.now - t0
            moved = ctx.probe.store_net_bytes(ctx.node) - before
            share = (moved * copy) / (cap * dt) if dt > 0 else 0.0
            extra = chunk * self.memory_intensity * self.pollution * share
            if extra > 0:
                yield from ctx.node.cpu.consume(extra,
                                                cap=float(self.cores),
                                                label=f"tenant:{self.name}")


@dataclass
class AllocPhase(Phase):
    """Claim tenant memory (working set growth)."""

    nbytes: float
    name: str = "alloc"

    def run(self, ctx: PhaseContext):
        take = min(self.nbytes, ctx.node.memory_free)
        if take > 0:
            ctx.node.allocate_memory(ctx.owner, take)
        return
        yield  # pragma: no cover


@dataclass
class FreePhase(Phase):
    """Release tenant memory."""

    nbytes: float | None = None
    name: str = "free"

    def run(self, ctx: PhaseContext):
        ctx.node.free_memory(ctx.owner, self.nbytes)
        return
        yield  # pragma: no cover


@dataclass
class SleepPhase(Phase):
    """Fixed think/setup time."""

    seconds: float
    name: str = "sleep"

    def run(self, ctx: PhaseContext):
        if self.seconds > 0:
            yield ctx.env.timeout(self.seconds)


@dataclass
class PhasedWorkload:
    """A named benchmark: a phase list run SPMD with barriers."""

    name: str
    phases: list[Phase] = field(default_factory=list)


@dataclass
class TenantRun:
    """Result of one benchmark execution."""

    workload: str
    start: float
    end: float
    phase_times: dict[str, float] = field(default_factory=dict)

    @property
    def runtime(self) -> float:
        return self.end - self.start


def run_tenant(env: Environment, workload: PhasedWorkload,
               nodes: list[Node], fabric, probe: InterferenceProbe,
               owner: str | None = None):
    """Generator: run *workload* SPMD over *nodes*; returns TenantRun.

    A barrier separates phases: the next phase starts when the slowest
    node finishes the current one (MPI collective semantics).
    """
    if not nodes:
        raise ValueError("need at least one tenant node")
    owner = owner or f"tenant:{workload.name}"
    start = env.now
    result = TenantRun(workload=workload.name, start=start, end=start)
    for i, phase in enumerate(workload.phases):
        t0 = env.now
        procs = []
        for node in nodes:
            peers = [n for n in nodes if n is not node]
            ctx = PhaseContext(env=env, node=node, peers=peers,
                               fabric=fabric, probe=probe, owner=owner)
            procs.append(env.process(phase.run(ctx),
                                     name=f"{workload.name}:{phase.name}"))
        if procs:
            yield env.all_of(procs)
        key = f"{i}:{phase.name}"
        result.phase_times[key] = env.now - t0
    # Release any working-set memory the benchmark left allocated.
    for node in nodes:
        node.free_memory(owner)
    result.end = env.now
    return result
