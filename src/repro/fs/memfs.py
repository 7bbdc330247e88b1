"""MemFS — the uniform prior system (Uta et al., FGCS 2015).

MemFS(+MemEFS) is the baseline MemFSS builds on: every node has the dual
role of running tasks and storing an equal share of the data.  In this
reproduction it is simply a MemFSS deployment with a single class of nodes
at weight zero — which makes the ablation between uniform and scavenging
placement a one-line configuration change, exactly as §III-A describes the
design delta.
"""

from __future__ import annotations

from ..cluster.network import Fabric
from ..cluster.node import Node
from ..sim import Environment
from ..store import StoreServer
from .memfss import MemFSS
from .placement import ClassSpec, PlacementMap
from .striping import DEFAULT_STRIPE_SIZE

__all__ = ["build_memfs"]


def build_memfs(env: Environment, fabric: Fabric, nodes: list[Node],
                servers: dict[str, StoreServer], *,
                password: str = "",
                stripe_size: int = DEFAULT_STRIPE_SIZE,
                replication: int = 1,
                write_window: int = 4) -> MemFSS:
    """A uniform MemFS: one class, all nodes compute *and* store."""
    # Interned: repeated deployments over the same node set (the ablation
    # sweeps re-build MemFS per data point) share one policy and its plans.
    policy = PlacementMap.intern(PlacementMap(
        {"all": ClassSpec(weight=0.0, nodes=tuple(n.name for n in nodes))}))
    return MemFSS(env, fabric, own_nodes=nodes, servers=servers,
                  policy=policy, password=password, stripe_size=stripe_size,
                  replication=replication, write_window=write_window)
