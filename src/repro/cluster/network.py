"""The cluster fabric: full-bisection network connecting node NICs.

DAS-5's FDR InfiniBand core is non-blocking for 40 nodes, so only the node
NICs constrain transfers (paper §IV-A).  A :class:`Fabric` wires each
:class:`~repro.cluster.node.Node` with an egress (tx) and ingress (rx) link
in a shared :class:`~repro.sim.flownet.FlowNetwork`; a transfer between two
nodes crosses ``src.tx`` and ``dst.rx`` and shares them max-min fairly with
everything else.  Same-node transfers cross a per-node loopback link sized
at the memory bandwidth (a local Redis PUT is a memcpy, not a NIC crossing).

Small-message latency is modeled additively: a request costs
``nic_latency × hops`` before its payload flow starts; the latency
*inflation* caused by a busy scavenger store is handled by the store server
(see :mod:`repro.store.server`), which is where the paper locates the
BLAST-vs-dd asymmetry of Fig. 3.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..sim import Environment, FlowNetwork
from ..sim.flownet import Link, NetFlow
from .node import Node

__all__ = ["Fabric"]


class Fabric:
    """Owns the flow network and the per-node NIC + loopback links.

    The tx/rx NIC links stay full :class:`Link` handles (nodes hold
    them, probes read them); the fabric-internal IPoIB pair and the
    loopback are *lean* link slots (``FlowNetwork.add_link_lean``) —
    three of a node's five links cost no Python object at ×64 scale
    unless a fault hook or test asks for the handle (DESIGN.md §13).
    """

    def __init__(self, env: Environment, solver: str | None = None):
        self.env = env
        self.net = FlowNetwork(env, solver=solver)
        self._loopback: dict[str, int] = {}
        self._ipoib_tx: dict[str, int] = {}
        self._ipoib_rx: dict[str, int] = {}
        self._nodes: dict[str, Node] = {}
        self._nominal: dict[str, float] = {}

    def attach(self, node: Node) -> None:
        """Create tx/rx/loopback/IPoIB links for *node* and register it.

        Two transport classes share the physical NIC: native verbs (MPI)
        sees only the tx/rx links; TCP traffic (the store's data path,
        Hadoop/Spark shuffles) additionally crosses per-node IPoIB links
        whose ~3 GB/s ceiling models the TCP-over-IB stack.  TCP flows
        therefore contend with each other inside the IPoIB budget *and*
        take physical bandwidth away from verbs traffic.
        """
        if node.name in self._nodes:
            raise ValueError(f"node {node.name!r} already attached")
        spec = node.spec
        node.tx = self.net.add_link(f"{node.name}.tx", spec.nic_bandwidth)
        node.rx = self.net.add_link(f"{node.name}.rx", spec.nic_bandwidth)
        self._ipoib_tx[node.name] = self.net.add_link_lean(
            f"{node.name}.itx", spec.ipoib_bandwidth)
        self._ipoib_rx[node.name] = self.net.add_link_lean(
            f"{node.name}.irx", spec.ipoib_bandwidth)
        self._loopback[node.name] = self.net.add_link_lean(
            f"{node.name}.lo", spec.memory_bandwidth)
        self._nodes[node.name] = node
        # Nominal capacities come from the spec, not from links_of():
        # reading the handles here would materialize the lean IPoIB
        # links for every node at attach time.
        self._nominal[f"{node.name}.tx"] = spec.nic_bandwidth
        self._nominal[f"{node.name}.rx"] = spec.nic_bandwidth
        self._nominal[f"{node.name}.itx"] = spec.ipoib_bandwidth
        self._nominal[f"{node.name}.irx"] = spec.ipoib_bandwidth

    def attach_all(self, nodes: Iterable[Node]) -> None:
        for n in nodes:
            self.attach(n)

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes.values())

    def node(self, name: str) -> Node:
        return self._nodes[name]

    def batch(self):
        """Coalesce a burst of transfers/capacity changes into one solve
        (delegates to :meth:`FlowNetwork.batch`)."""
        return self.net.batch()

    # -- transfers -------------------------------------------------------------
    def path(self, src: Node, dst: Node,
             transport: str = "verbs") -> tuple:
        """The link sequence a transfer crosses (Link handles for the
        NIC links, lean slots for IPoIB/loopback — ``FlowNetwork
        .transfer`` accepts both)."""
        if src.name not in self._nodes or dst.name not in self._nodes:
            raise ValueError("both endpoints must be attached to this fabric")
        if src.name == dst.name:
            return (self._loopback[src.name],)
        assert src.tx is not None and dst.rx is not None
        if transport == "verbs":
            return (src.tx, dst.rx)
        if transport == "tcp":
            return (self._ipoib_tx[src.name], src.tx,
                    dst.rx, self._ipoib_rx[dst.name])
        raise ValueError(f"unknown transport {transport!r}")

    def transfer(self, src: Node, dst: Node, nbytes: float | None,
                 cap: float = float("inf"), label: str = "",
                 transport: str = "verbs") -> NetFlow:
        """Start a byte flow from *src* to *dst*; wait on ``.done``."""
        return self.net.transfer(self.path(src, dst, transport), nbytes,
                                 cap, label)

    def consume(self, src: Node, dst: Node, nbytes: float,
                cap: float = float("inf"), label: str = "",
                transport: str = "verbs"):
        """``yield from``-able transfer that withdraws itself on interrupt."""
        return self.net.consume(self.path(src, dst, transport), nbytes,
                                cap, label)

    def latency(self, src: Node, dst: Node) -> float:
        """One-way small-message latency between two nodes."""
        if src.name == dst.name:
            return 0.0
        return max(src.spec.nic_latency, dst.spec.nic_latency)

    # -- fault hooks -------------------------------------------------------------
    #: Capacity multiplier standing in for a total partition.  The fluid
    #: model needs strictly positive capacities, so a partitioned node is
    #: a link set throttled hard enough that every crossing flow stalls
    #: past any sane client deadline.
    PARTITION_FACTOR = 1e-9

    def links_of(self, name: str) -> tuple[Link, ...]:
        """Every NIC-side link of one node (tx/rx, IPoIB pair, loopback
        excluded — a partitioned node can still talk to itself).
        Materializes the lean IPoIB handles; only fault hooks and tests
        come through here, so ×64 steady state stays handle-free."""
        node = self._nodes[name]
        assert node.tx is not None and node.rx is not None
        return (node.tx, node.rx, self.net.link(f"{name}.itx"),
                self.net.link(f"{name}.irx"))

    def degrade_node(self, name: str, factor: float):
        """Scale one node's NIC capacities by *factor*; returns a
        zero-argument callable restoring nominal capacity (idempotent)."""
        if not 0.0 < factor:
            raise ValueError("degradation factor must be positive")
        links = self.links_of(name)
        with self.net.batch():
            for link in links:
                self.net.set_capacity(link, self._nominal[link.name] * factor)

        def restore() -> None:
            with self.net.batch():
                for link in links:
                    self.net.set_capacity(link, self._nominal[link.name])

        return restore

    def partition_node(self, name: str):
        """Cut one node off the fabric; returns a heal callable."""
        return self.degrade_node(name, self.PARTITION_FACTOR)
