"""MemFSS deployment assembly (the paper's experimental setup, §IV-A).

A :class:`MemFSSDeployment` wires one experiment's worth of system:
a DAS-5-like cluster, an *own* reservation running MemFSS + tasks, a
*tenant* reservation whose nodes are registered on the secondary queue,
containerized victim stores claimed through the
:class:`~repro.fs.scavenger.ScavengingManager`, and the weighted two-layer
placement realizing the requested own-data fraction α.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cluster import Cluster, ResourceCaps, build_das5
from ..fs import MemFSS, ScavengingManager
from ..sim import Environment, FlowNetwork
from ..sim.rng import RngRegistry
from ..store import AuthPolicy, RetryPolicy, StoreServer
from ..tenants import InterferenceProbe
from ..units import GB, MB
from ..workflows import WorkflowEngine
from .policy import PlacementPolicy

__all__ = ["DeploymentConfig", "MemFSSDeployment"]

#: Accepted DeploymentConfig.solver values (None = the fabric default).
_SOLVERS = (None,) + FlowNetwork.SOLVERS


@dataclass(frozen=True)
class DeploymentConfig:
    """Knobs of one deployment (defaults = the paper's Fig. 2/3/4 setup)."""

    n_own: int = 8
    n_victim: int = 32
    # How many tenant reservations the victim pool is split across: each
    # tenant is one failure domain (its reclaim seizes all of its nodes
    # at once).  1 reproduces the historical single "tenant" reservation
    # byte-for-byte; domains only matter to CodingSets placement and
    # correlated-storm injection.
    n_tenants: int = 1
    victim_memory: float = 10 * GB   # scavenged cap per victim (§IV-A)
    own_store_capacity: float = 56 * GB
    stripe_size: int = 32 * MB
    # Failure-domain-aware erasure placement (DESIGN.md §15): truthy
    # turns on CodingSets anti-affinity over the tenant domains; an int
    # additionally bounds each placement group to that many nodes.
    # Requires erasure coding.
    coding_sets: int | bool | None = None
    write_window: int = 2
    password: str = "memfss-secret"
    seed: int = 0
    # Store-client resilience posture, fixed per mount: the deadline of
    # every request (seconds of virtual time) and the retry attempts over
    # the default backoff policy.  Chain reads walk replicas in order.
    io_deadline: float | None = None
    io_retries: int = 3
    # Flow-solver mode for the fabric: None → FlowNetwork's default
    # ("incremental"); "reference" is the full-recompute baseline the
    # golden and equivalence tests run against.  Bit-identical
    # trajectories in both modes.
    solver: str | None = None
    # Cluster scale multiplier: n_own and n_victim are both multiplied
    # by `scale` when the deployment is built (DAS-5 ×16 → 1088 nodes).
    # Kept as a separate knob so figure recipes stay written in paper
    # units and the sweep cache keys change only through scaled().
    scale: int = 1
    # The placement policy: node classes and their data fractions (the
    # own fraction is the paper's α) and redundancy (replication or
    # erasure coding).
    policy: PlacementPolicy = PlacementPolicy.own_victim(0.25)

    def __post_init__(self):
        if self.n_own < 1:
            raise ValueError("n_own must be >= 1")
        if self.n_victim < 0:
            raise ValueError("n_victim must be >= 0")
        if self.n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        if self.n_victim and self.n_tenants > self.n_victim:
            raise ValueError("n_tenants cannot exceed n_victim")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {_SOLVERS}, "
                             f"got {self.solver!r}")

    def scaled(self) -> "DeploymentConfig":
        """Resolve the scale multiplier into explicit node counts."""
        if self.scale == 1:
            return self
        return replace(self, n_own=self.n_own * self.scale,
                       n_victim=self.n_victim * self.scale, scale=1)

    def with_alpha(self, alpha: float) -> "DeploymentConfig":
        """This config retargeted to own-fraction *alpha*: the α-sweep
        primitive."""
        return replace(self, policy=self.policy.with_fraction("own", alpha))


class MemFSSDeployment:
    """A fully wired experiment: cluster + FS + scavenged victims."""

    def __init__(self, config: DeploymentConfig | None = None,
                 env: Environment | None = None):
        # A shared mutable default instance would alias state across
        # deployments; build a fresh config per call instead.
        config = config if config is not None else DeploymentConfig()
        config = config.scaled()
        self.config = config
        self.rng = RngRegistry(config.seed)
        self.cluster: Cluster = build_das5(
            env, n_nodes=config.n_own + config.n_victim, seed=config.seed,
            solver=config.solver)
        self.env = self.cluster.env
        res = self.cluster.reservations

        # Own reservation: these nodes run tasks and store data.
        self.own_reservation = res.reserve("memfss", config.n_own)
        self.own = list(self.own_reservation.nodes)
        auth = AuthPolicy(config.password,
                          allowed_nodes=[n.name for n in self.own])
        self.auth = auth
        servers = {
            n.name: StoreServer(self.env, n, self.cluster.fabric,
                                capacity=config.own_store_capacity,
                                name=f"own@{n.name}", auth=auth)
            for n in self.own}

        pol = config.policy
        self.placement_policy = pol
        weights = pol.weights()
        policy = pol.materialize(
            {"own": tuple(n.name for n in self.own)})
        self.fs = MemFSS(self.env, self.cluster.fabric, self.own, servers,
                         policy, password=config.password,
                         stripe_size=config.stripe_size,
                         replication=pol.replication,
                         erasure=pol.erasure,
                         coding_sets=config.coding_sets,
                         write_window=config.write_window,
                         io_deadline=config.io_deadline,
                         io_retry=RetryPolicy(attempts=max(
                             1, config.io_retries)),
                         rng=self.rng)

        # Tenant reservation: victims registered on the secondary queue
        # (admin-enforced cap, §III-A mechanism 2).
        self.victims: list = []
        self.manager = ScavengingManager(
            self.env, self.fs, res, auth=auth,
            caps=ResourceCaps(memory=config.victim_memory))
        self.tenant_reservation = None
        self.tenant_reservations: list = []
        if config.n_victim > 0:
            if config.n_tenants == 1:
                # Historical single-domain path, byte-for-byte.
                self.tenant_reservations = [
                    res.reserve("tenant", config.n_victim)]
            else:
                # Split the victim pool across tenants as evenly as the
                # counts allow; each reservation is one failure domain.
                base, extra = divmod(config.n_victim, config.n_tenants)
                self.tenant_reservations = [
                    res.reserve(f"tenant-{i}", base + (1 if i < extra
                                                       else 0))
                    for i in range(config.n_tenants)]
            self.tenant_reservation = self.tenant_reservations[0]
            self.victims = [n for r in self.tenant_reservations
                            for n in r.nodes]
            res.enforce_scavenging(config.victim_memory)
            if "victim" in weights:
                self.manager.scavenge(self.victims, config.victim_memory,
                                      weights["victim"],
                                      class_name="victim")
        self.engine = WorkflowEngine(self.env, self.fs)
        self.probe = InterferenceProbe.from_servers(self.fs.servers)

    # -- convenience --------------------------------------------------------------
    @property
    def servers(self):
        return self.fs.servers

    def own_class_utilization(self) -> dict[str, float]:
        """Time-averaged CPU / NIC utilization of the own class so far."""
        return self._class_utilization(self.own)

    def victim_class_utilization(self) -> dict[str, float]:
        return self._class_utilization(self.victims)

    def _class_utilization(self, nodes) -> dict[str, float]:
        t = self.env.now
        if t <= 0 or not nodes:
            return {"cpu": 0.0, "tx": 0.0, "rx": 0.0}
        net = self.cluster.fabric.net
        return {
            "cpu": sum(n.cpu.busy_time() for n in nodes) / len(nodes) / t,
            "tx": sum(net.busy_time(n.tx) for n in nodes) / len(nodes) / t,
            "rx": sum(net.busy_time(n.rx) for n in nodes) / len(nodes) / t,
        }
