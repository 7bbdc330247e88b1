"""Spark execution model with JVM memory-pressure effects (Fig. 5).

Spark "is itself relying on memory to improve performance", so scavenging
hits it three ways (paper §IV-C): network, memory *bandwidth*, and memory
*capacity* — the last one through the JVM garbage collector, which slows
down when the node's free memory shrinks (less page-cache headroom for
shuffle files and broadcast blocks, more frequent full GCs at fixed heap).

:class:`GcComputePhase` models the capacity channel: compute time inflates
by ``gc_sensitivity × pressure`` where pressure is the fraction of the
node's non-heap free memory displaced by the scavenging store's resident
bytes.  The sensitivity constant is calibrated once against the paper's
Spark average (≈ 18 %) and disclosed in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import GB
from .base import (AllocPhase, DiskPhase, FreePhase, MemBandwidthPhase,
                   NetworkPhase, Phase, PhaseContext, PhasedWorkload)

__all__ = ["GC_SENSITIVITY", "GcComputePhase", "SparkJobSpec", "spark_job"]

#: JVM GC slowdown per unit of free-memory displacement (calibrated once
#: against Fig. 5 / Fig. 6's Spark average ≈ 18 %).
GC_SENSITIVITY = 0.22


@dataclass
class GcComputePhase(Phase):
    """Executor compute inflating under memory pressure *and* bus pollution.

    Two channels, matching the paper's "memory in both capacity and
    bandwidth": the GC term grows with the fraction of the node's non-heap
    memory the scavenger displaces; the pollution term is the shared
    JVM bandwidth sensitivity (see
    :class:`~repro.tenants.base.FrameworkComputePhase`).
    """

    core_seconds: float
    cores: int = 32
    gc_sensitivity: float = GC_SENSITIVITY
    memory_intensity: float = 1.0
    chunks: int = 8
    name: str = "spark-compute"

    def run(self, ctx: PhaseContext):
        from .base import MEMBW_POLLUTION
        if self.core_seconds <= 0:
            return
        chunk = self.core_seconds / self.chunks
        copy = getattr(ctx.probe, "_copy_factor", 2.0)
        buscap = ctx.node.spec.memory_bandwidth
        for _ in range(self.chunks):
            displaced = ctx.probe.resident_bytes(ctx.node)
            headroom = displaced + max(0.0, ctx.node.page_cache_bytes)
            pressure = displaced / headroom if headroom > 0 else 0.0
            before = ctx.probe.store_net_bytes(ctx.node)
            t0 = ctx.env.now
            yield from ctx.node.cpu.consume(
                chunk * (1.0 + self.gc_sensitivity * pressure),
                cap=float(self.cores), label=f"tenant:{self.name}")
            dt = ctx.env.now - t0
            moved = ctx.probe.store_net_bytes(ctx.node) - before
            share = (moved * copy) / (buscap * dt) if dt > 0 else 0.0
            extra = chunk * self.memory_intensity * MEMBW_POLLUTION * share
            if extra > 0:
                yield from ctx.node.cpu.consume(extra,
                                                cap=float(self.cores),
                                                label=f"tenant:{self.name}")


@dataclass(frozen=True)
class SparkJobSpec:
    """Per-node resource volumes of one Spark job (48 GB executors, §IV-A)."""

    name: str
    input_bytes: float
    dataset_bytes: float
    compute_core_seconds: float
    membw_bytes: float = 0.0
    shuffle_bytes: float = 0.0
    output_bytes: float = 0.0
    executor_memory: float = 48 * GB   # paper: 48 GB workers
    memory_intensity: float = 1.0      # JVM bandwidth sensitivity
    iterations: int = 1


def spark_job(spec: SparkJobSpec, n_nodes: int = 32) -> PhasedWorkload:
    """Build the phase list of one Spark job over *n_nodes* executors."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    peers = max(1, n_nodes - 1)
    phases: list[Phase] = [AllocPhase(spec.executor_memory,
                                      name="executor-heap")]
    # Input is read once and cached in executor memory thereafter.
    phases.append(DiskPhase(spec.input_bytes, spec.dataset_bytes,
                            name="load"))
    for it in range(spec.iterations):
        tag = f"it{it}" if spec.iterations > 1 else "job"
        phases.append(GcComputePhase(spec.compute_core_seconds, cores=32,
                                     memory_intensity=spec.memory_intensity,
                                     name=f"{tag}-compute"))
        if spec.membw_bytes > 0:
            phases.append(MemBandwidthPhase(spec.membw_bytes,
                                            name=f"{tag}-mem"))
        if spec.shuffle_bytes > 0:
            phases.append(NetworkPhase(spec.shuffle_bytes / peers,
                                       pattern="alltoall", transport="tcp",
                                       name=f"{tag}-shuffle"))
    if spec.output_bytes > 0:
        phases.append(DiskPhase(spec.output_bytes, spec.dataset_bytes,
                                write=True, name="save"))
    phases.append(FreePhase())
    return PhasedWorkload(spec.name, phases)
