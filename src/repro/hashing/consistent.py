"""Consistent hashing ring — the comparison baseline of §V-C.

MemFS (the prior system) used consistent hashing [Karger et al. 1997]; the
paper argues HRW is preferable for MemFSS because (a) consistent-hashing
ring changes force *eager* data movement while HRW allows lazy lookup down
the rank list, and (b) balancing a ring for heterogeneous capacities needs
many virtual nodes per server — i.e. many Redis processes per node, with
real memory/CPU overhead.  This implementation exists to quantify those
claims in the hashing ablation benchmark.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable
from typing import Hashable

from .hrw import MODULUS, hash_mix64, stable_digest

__all__ = ["ConsistentHashRing"]


class ConsistentHashRing:
    """A ring with a configurable number of virtual nodes per server.

    ``weights`` scales the virtual-node count per server, the classic way
    to approximate heterogeneous capacities on a ring.
    """

    def __init__(self, nodes: Iterable[Hashable], vnodes: int = 64,
                 weights: dict[Hashable, float] | None = None):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._weights = dict(weights or {})
        self._points: list[int] = []
        self._owners: list[Hashable] = []
        self._nodes: list[Hashable] = []
        for n in nodes:
            self._insert(n)
        if not self._nodes:
            raise ValueError("ring needs at least one node")

    # -- membership ------------------------------------------------------------
    def _vnode_count(self, node: Hashable) -> int:
        return max(1, round(self.vnodes * self._weights.get(node, 1.0)))

    def _insert(self, node: Hashable) -> None:
        if node in self._nodes:
            raise ValueError(f"duplicate node {node!r}")
        self._nodes.append(node)
        seed = stable_digest(node)
        for v in range(self._vnode_count(node)):
            point = hash_mix64(seed, stable_digest(("vnode", v)))
            idx = bisect.bisect_left(self._points, point)
            # Skip exact collisions deterministically.
            while idx < len(self._points) and self._points[idx] == point:
                point = (point + 1) % MODULUS
                idx = bisect.bisect_left(self._points, point)
            self._points.insert(idx, point)
            self._owners.insert(idx, node)

    def add_node(self, node: Hashable, weight: float = 1.0) -> None:
        self._weights[node] = weight
        self._insert(node)

    def remove_node(self, node: Hashable) -> None:
        if node not in self._nodes:
            raise KeyError(node)
        self._nodes.remove(node)
        keep = [(p, o) for p, o in zip(self._points, self._owners)
                if o != node]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    @property
    def nodes(self) -> tuple[Hashable, ...]:
        return tuple(self._nodes)

    # -- placement ---------------------------------------------------------------
    def place(self, key: Hashable) -> Hashable:
        """Owner = first virtual node clockwise from the key's point."""
        point = hash_mix64(stable_digest("ring-key"), stable_digest(key))
        idx = bisect.bisect_right(self._points, point)
        if idx == len(self._points):
            idx = 0
        return self._owners[idx]

    def replicas(self, key: Hashable, k: int) -> list[Hashable]:
        """k distinct successor owners clockwise from the key."""
        if k < 1:
            raise ValueError("k must be >= 1")
        point = hash_mix64(stable_digest("ring-key"), stable_digest(key))
        idx = bisect.bisect_right(self._points, point)
        out: list[Hashable] = []
        n = len(self._points)
        for step in range(n):
            owner = self._owners[(idx + step) % n]
            if owner not in out:
                out.append(owner)
                if len(out) == k:
                    break
        return out
