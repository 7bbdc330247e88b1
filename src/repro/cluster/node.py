"""A simulated cluster node.

Each node owns three fluid resources (CPU core-seconds, memory bandwidth,
disk bandwidth), a capacity-accounted memory pool, and — once attached to a
:class:`~repro.cluster.network.Fabric` — one egress and one ingress NIC
link.  Memory is tracked by named owners; whatever is unclaimed acts as the
Linux **page cache**, which is exactly the resource DFSIO-read competes
with MemFSS for in Fig. 4.
"""

from __future__ import annotations

from ..sim import Environment, FluidResource
from ..sim.flownet import Link
from .machine import MachineSpec

__all__ = ["Node", "OutOfMemory"]


class OutOfMemory(RuntimeError):
    """An allocation exceeded the node's physical memory."""


class Node:
    """Runtime state of one machine in the simulated cluster."""

    def __init__(self, env: Environment, name: str, spec: MachineSpec):
        self.env = env
        self.name = name
        self.spec = spec
        # CPU is a fluid resource measured in core-seconds per second: a
        # task needing 10 core-seconds with cap 2 runs 2-wide for >= 5 s.
        self.cpu = FluidResource(env, capacity=float(spec.cores),
                                 name=f"{name}.cpu")
        self.membw = FluidResource(env, capacity=spec.memory_bandwidth,
                                   name=f"{name}.membw")
        self.disk = FluidResource(env, capacity=spec.disk_bandwidth,
                                  name=f"{name}.disk")
        # NIC links are attached by the Fabric.
        self.tx: Link | None = None
        self.rx: Link | None = None
        self._allocations: dict[str, float] = {}

    # -- memory accounting -----------------------------------------------------
    @property
    def memory_total(self) -> float:
        return self.spec.memory

    @property
    def memory_allocated(self) -> float:
        """Bytes claimed by named owners (OS reservation included)."""
        return self.spec.os_reserved + sum(self._allocations.values())

    @property
    def memory_free(self) -> float:
        """Bytes not claimed by any owner — i.e. available page cache."""
        return self.spec.memory - self.memory_allocated

    @property
    def page_cache_bytes(self) -> float:
        """Alias for :attr:`memory_free`: unclaimed memory caches file data."""
        return self.memory_free

    def memory_owned_by(self, owner: str) -> float:
        return self._allocations.get(owner, 0.0)

    def allocate_memory(self, owner: str, nbytes: float) -> None:
        """Claim *nbytes* for *owner* (cumulative per owner)."""
        if nbytes < 0:
            raise ValueError("allocation must be non-negative")
        if nbytes > self.memory_free:
            raise OutOfMemory(
                f"{self.name}: {owner!r} wants {nbytes:.3g} B but only "
                f"{self.memory_free:.3g} B free")
        self._allocations[owner] = self._allocations.get(owner, 0.0) + nbytes

    def free_memory(self, owner: str, nbytes: float | None = None) -> float:
        """Release *nbytes* (default: everything) held by *owner*; returns
        the amount actually freed."""
        held = self._allocations.get(owner, 0.0)
        amount = held if nbytes is None else min(float(nbytes), held)
        if amount < 0:
            raise ValueError("free amount must be non-negative")
        rest = held - amount
        if rest <= 0:
            self._allocations.pop(owner, None)
        else:
            self._allocations[owner] = rest
        return amount

    # -- utilization probes -------------------------------------------------------
    @property
    def cpu_utilization(self) -> float:
        return self.cpu.utilization

    @property
    def nic_tx_utilization(self) -> float:
        return self.tx.utilization if self.tx is not None else 0.0

    @property
    def nic_rx_utilization(self) -> float:
        return self.rx.utilization if self.rx is not None else 0.0

    @property
    def memory_utilization(self) -> float:
        return self.memory_allocated / self.spec.memory

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name}>"
