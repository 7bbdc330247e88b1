"""MemFSS deployment assembly (the paper's experimental setup, §IV-A).

A :class:`MemFSSDeployment` wires one experiment's worth of system:
a DAS-5-like cluster, an *own* reservation running MemFSS + tasks, a
*tenant* reservation whose nodes are registered on the secondary queue,
containerized victim stores claimed through the
:class:`~repro.fs.scavenger.ScavengingManager`, and the weighted two-layer
placement realizing the requested own-data fraction α.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

from ..cluster import (Cluster, Container, ResourceCaps, build_das5)
from ..fs import MemFSS, ScavengingManager
from ..sim import Environment, FlowNetwork
from ..sim.rng import RngRegistry
from ..store import AuthPolicy, RetryPolicy, StoreCostModel, StoreServer
from ..tenants import InterferenceProbe
from ..units import GB, MB
from ..workflows import WorkflowEngine
from .policy import PlacementPolicy

__all__ = ["DeploymentConfig", "MemFSSDeployment"]

#: Legacy placement knobs and their defaults: still accepted for one
#: release, resolved into a PlacementPolicy by DeploymentConfig.placement().
_LEGACY_PLACEMENT_DEFAULTS = {"alpha": 0.25, "capacity_guard": True,
                              "replication": 1, "erasure": None}

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
    alpha: float = 0.25              # fraction of data on own nodes
    victim_memory: float = 10 * GB   # scavenged cap per victim (§IV-A)
    own_store_capacity: float = 56 * GB
    stripe_size: int = 32 * MB
    replication: int = 1
    erasure: tuple[int, int] | None = None
    # Failure-domain-aware erasure placement (DESIGN.md §15): truthy
    # turns on CodingSets anti-affinity over the tenant domains; an int
    # additionally bounds each placement group to that many nodes.
    # Requires erasure coding.
    coding_sets: int | bool | None = None
    write_window: int = 2
    # Capacity-aware write path: consult store free space and spill down
    # the HRW chain instead of raising StoreFull.  Off reproduces the
    # pre-guard crash-on-full behavior (used by the overhead benchmark).
    capacity_guard: bool = True
    password: str = "memfss-secret"
    seed: int = 0
    # Store-client resilience posture: per-op deadline (seconds of
    # virtual time), retry attempts over the default backoff policy, and
    # the hedged-read delay (None disables hedging).
    io_deadline: float | None = None
    io_retries: int = 3
    io_hedge: float | None = None
    # Flow-solver mode for the fabric: None → FlowNetwork's default
    # ("incremental"); "reference" is the full-recompute baseline the
    # golden and perf comparisons run against.  Bit-identical
    # trajectories in both modes.
    solver: str | None = None
    # Cluster scale multiplier: n_own and n_victim are both multiplied
    # by `scale` when the deployment is built (DAS-5 ×16 → 1088 nodes).
    # Kept as a separate knob so figure recipes stay written in paper
    # units and the sweep cache keys change only through scaled().
    scale: int = 1
    # The unified placement policy.  When set it is authoritative for
    # classes / fractions / hash family / capacity guard / redundancy,
    # and the legacy knobs above (alpha, capacity_guard, replication,
    # erasure) must be left at their defaults or agree with it.
    policy: PlacementPolicy | None = None

    def __post_init__(self):
        if self.n_own < 1:
            raise ValueError("n_own must be >= 1")
        if self.n_victim < 0:
            raise ValueError("n_victim must be >= 0")
        if self.n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        if self.n_victim and self.n_tenants > self.n_victim:
            raise ValueError("n_tenants cannot exceed n_victim")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {_SOLVERS}, "
                             f"got {self.solver!r}")
        if self.policy is not None:
            self._check_policy_consistency()

    def _check_policy_consistency(self) -> None:
        """A legacy knob moved off its default AND off the policy's value
        is a stale-knob bug (the policy would silently win); refuse it."""
        pol = self.policy
        pol_values = {"alpha": pol.alpha if pol.alpha is not None
                      else _LEGACY_PLACEMENT_DEFAULTS["alpha"],
                      "capacity_guard": pol.capacity_guard,
                      "replication": pol.replication,
                      "erasure": pol.erasure}
        for knob, default in _LEGACY_PLACEMENT_DEFAULTS.items():
            value = getattr(self, knob)
            if value != default and value != pol_values[knob]:
                raise ValueError(
                    f"DeploymentConfig.{knob}={value!r} conflicts with "
                    f"policy ({pol_values[knob]!r}); set placement knobs "
                    f"on the PlacementPolicy only")

    def scaled(self) -> "DeploymentConfig":
        """Resolve the scale multiplier into explicit node counts."""
        if self.scale == 1:
            return self
        return replace(self, n_own=self.n_own * self.scale,
                       n_victim=self.n_victim * self.scale, scale=1)

    # -- placement resolution ----------------------------------------------------
    def _legacy_policy(self) -> PlacementPolicy:
        """The policy equivalent to the legacy knobs (closed-form weights
        — byte-identical to the pre-policy ``own_victim_weights`` path)."""
        return PlacementPolicy.own_victim(
            self.alpha, capacity_guard=self.capacity_guard,
            replication=self.replication, erasure=self.erasure)

    def placement(self) -> PlacementPolicy:
        """The effective :class:`PlacementPolicy` of this deployment.

        Configs without an explicit policy resolve their legacy knobs
        into one; using those knobs off their defaults draws a
        one-release :class:`DeprecationWarning` (pass ``policy=`` —
        e.g. via :meth:`with_alpha` — instead).
        """
        if self.policy is not None:
            return self.policy
        legacy = {k: getattr(self, k)
                  for k, d in _LEGACY_PLACEMENT_DEFAULTS.items()
                  if getattr(self, k) != d}
        if legacy:
            warnings.warn(
                f"DeploymentConfig placement knobs {sorted(legacy)} are "
                f"deprecated (one release): pass "
                f"policy=PlacementPolicy.own_victim(...) or use "
                f"with_alpha()", DeprecationWarning, stacklevel=2)
        return self._legacy_policy()

    def with_alpha(self, alpha: float) -> "DeploymentConfig":
        """This config retargeted to own-fraction *alpha* — the α-sweep
        primitive.  Works on policy and legacy configs alike; the result
        always carries an explicit policy (no deprecation warning)."""
        pol = self.policy if self.policy is not None \
            else self._legacy_policy()
        return replace(self, alpha=alpha,
                       policy=pol.with_fraction("own", alpha))


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

        pol = config.placement()
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
                         capacity_guard=pol.capacity_guard,
                         io_deadline=config.io_deadline,
                         io_retry=RetryPolicy(attempts=max(
                             1, config.io_retries)),
                         io_hedge=config.io_hedge,
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
