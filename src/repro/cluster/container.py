"""Lightweight resource containers (the paper's LXC stand-in, §III-F).

On victim nodes MemFSS runs its Redis process inside a Linux container so
the cluster operator can cap, "with a fine granularity, the amount of
resources (CPU, memory, network)" the scavenger may use.  Here a
:class:`Container` enforces a hard memory ceiling through its own
allocation interface and exposes CPU / NIC rate caps that the store server
applies to every flow it issues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .node import Node

__all__ = ["ResourceCaps", "Container", "CapExceeded"]


class CapExceeded(RuntimeError):
    """A container allocation exceeded its configured cap."""


@dataclass(frozen=True)
class ResourceCaps:
    """Per-container ceilings.  ``inf`` means uncapped."""

    memory: float = math.inf        # bytes
    cpu: float = math.inf           # core-seconds per second
    net_bandwidth: float = math.inf  # bytes/s per direction

    def __post_init__(self):
        for field in ("memory", "cpu", "net_bandwidth"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} cap must be positive")


class Container:
    """A named resource-capped execution scope on one node."""

    def __init__(self, node: Node, name: str, caps: ResourceCaps):
        self.node = node
        self.name = name
        self.caps = caps
        self._owner = f"container:{name}"

    @property
    def memory_used(self) -> float:
        return self.node.memory_owned_by(self._owner)

    @property
    def memory_available(self) -> float:
        """Headroom under both the cap and the node's physical memory."""
        return min(self.caps.memory - self.memory_used, self.node.memory_free)

    def allocate(self, nbytes: float) -> None:
        if nbytes < 0:
            raise ValueError("allocation must be non-negative")
        if self.memory_used + nbytes > self.caps.memory:
            raise CapExceeded(
                f"{self.name}: {nbytes:.3g} B would exceed the "
                f"{self.caps.memory:.3g} B memory cap")
        self.node.allocate_memory(self._owner, nbytes)

    def free(self, nbytes: float | None = None) -> float:
        return self.node.free_memory(self._owner, nbytes)

    def release(self) -> float:
        """Tear the container down, freeing everything it held."""
        return self.free(None)

    @property
    def cpu_cap(self) -> float:
        return self.caps.cpu

    @property
    def net_cap(self) -> float:
        return self.caps.net_bandwidth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Container {self.name} on {self.node.name}>"
