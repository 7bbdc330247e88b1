"""Deterministic, schedule-driven fault injection.

The injector turns a declarative :class:`FaultSchedule` into simulation
events: store-server crashes, fabric link degradation and partitions,
lease-revocation storms fired against
:meth:`~repro.cluster.reservation.ReservationSystem.revoke_leases`, and
tenant memory-pressure waves.  Target selection is seeded through a
``sim.rng`` stream, so two runs with the same seed inject byte-identical
fault sequences — the property the recovery benchmarks assert.

The injector holds only duck-typed references (a servers mapping, the
scavenging manager, the reservation system, the fabric), so this module
imports nothing from the store/fs layers and stays cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from ..sim import Environment
from ..sim.rng import RngRegistry
from .stats import fault_stats

__all__ = ["FaultEvent", "FaultSchedule", "FaultInjector",
           "revocation_storm", "domain_storm"]

#: Supported fault kinds.
KINDS = ("crash", "degrade", "partition", "revoke", "revoke_storm",
         "revoke_domain", "pressure_wave")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` pins a node by name; ``fraction`` (storms/waves) instead
    selects that share of the current candidates through the seeded
    stream.  ``duration`` > 0 auto-heals degradations/partitions and
    releases pressure waves after that many simulated seconds.
    ``factor`` is the link-capacity multiplier for ``degrade`` and the
    fraction of node memory claimed by a ``pressure_wave``.
    """

    at: float
    kind: str
    target: str | None = None
    fraction: float = 0.0
    duration: float = 0.0
    factor: float = 0.5
    cause: str = "fault"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {KINDS})")
        if self.at < 0:
            raise ValueError("fault time must be non-negative")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if self.factor < 0:
            raise ValueError("factor must be non-negative")


@dataclass(frozen=True)
class FaultSchedule:
    """A declarative, time-ordered list of :class:`FaultEvent`\\ s."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "events",
                           tuple(sorted(self.events, key=lambda e: e.at)))

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def extended(self, *events: FaultEvent) -> "FaultSchedule":
        return FaultSchedule(self.events + tuple(events))


def revocation_storm(at: float, fraction: float,
                     cause: str = "pressure-storm") -> FaultSchedule:
    """A schedule with one storm revoking *fraction* of leased victims."""
    return FaultSchedule((FaultEvent(at=at, kind="revoke_storm",
                                     fraction=fraction, cause=cause),))


def domain_storm(at: float, fraction: float,
                 cause: str = "tenant-reclaim") -> FaultSchedule:
    """A schedule with one failure-domain-correlated storm: *fraction* of
    the leased failure domains (tenants) each reclaim **all** of their
    nodes as one event — the common correlated-loss case of the paper's
    setting, as opposed to ``revoke_storm``'s independent node sample."""
    return FaultSchedule((FaultEvent(at=at, kind="revoke_domain",
                                     fraction=fraction, cause=cause),))


class FaultInjector:
    """Fires a :class:`FaultSchedule` into a running deployment.

    Wiring is by capability: pass whichever handles the schedule needs —
    *servers* (mapping or callable returning ``{node_name: StoreServer}``)
    for crashes, *manager* (the :class:`~repro.fs.scavenger
    .ScavengingManager`) so crashes also leave the placement, *fabric*
    for degradation/partitions, *reservations* for lease revocation, and
    *nodes* for pressure waves.
    """

    def __init__(self, env: Environment, schedule: FaultSchedule, *,
                 servers: Mapping[str, Any] | Callable[[], Mapping[str, Any]]
                 | None = None,
                 manager: Any = None,
                 fabric: Any = None,
                 reservations: Any = None,
                 nodes: Iterable[Any] = (),
                 rng: RngRegistry | None = None,
                 stream: str = "faults"):
        self.env = env
        self.schedule = schedule
        self._servers = servers
        self.manager = manager
        self.fabric = fabric
        self.reservations = reservations
        self.nodes = {n.name: n for n in nodes}
        self.rng = (rng or RngRegistry(0)).stream(stream)
        #: Chronological record of what was injected (for reproducibility
        #: assertions): ``(time, kind, (target, ...))`` tuples.
        self.log: list[tuple[float, str, tuple[str, ...]]] = []
        self._proc = None
        self._pressure_tokens = 0

    # -- wiring helpers -----------------------------------------------------------
    def servers(self) -> Mapping[str, Any]:
        if callable(self._servers):
            return self._servers()
        return self._servers or {}

    def _leased_nodes(self) -> list[Any]:
        """Victim nodes that currently hold an active scavenge lease."""
        if self.manager is not None:
            return [lease.node for lease in self.manager.leases.values()
                    if lease.active]
        if self.reservations is not None:
            return [lease.node
                    for lease in self.reservations.active_leases()]
        return []

    def _pick(self, candidates: list, count: int) -> list:
        """Deterministically sample *count* distinct candidates."""
        candidates = sorted(candidates, key=lambda n: getattr(n, "name", n))
        if count >= len(candidates):
            return candidates
        idx = self.rng.choice(len(candidates), size=count, replace=False)
        return [candidates[int(i)] for i in sorted(idx)]

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        if self._proc is not None:
            raise RuntimeError("injector already started")
        self._proc = self.env.process(self._run(), name="fault-injector")

    def _run(self):
        for ev in self.schedule:
            delay = ev.at - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._fire(ev)

    # -- dispatch -----------------------------------------------------------------
    def _fire(self, ev: FaultEvent) -> None:
        targets = getattr(self, f"_do_{ev.kind}")(ev)
        self.log.append((self.env.now, ev.kind, tuple(targets)))

    def _do_crash(self, ev: FaultEvent) -> list[str]:
        servers = self.servers()
        if ev.target is not None:
            names = [ev.target] if ev.target in servers else []
        else:
            count = max(1, round(ev.fraction * len(servers))) \
                if ev.fraction else 1
            names = self._pick(list(servers), count)
        now = self.env.now
        for name in names:
            servers[name].crash()
            fault_stats.crashes += 1
            fault_stats.record_fault(name, now)
            if self.manager is not None:
                self.manager.handle_crash(name)
        return names

    def _do_degrade(self, ev: FaultEvent) -> list[str]:
        if self.fabric is None:
            return []
        names = [ev.target] if ev.target is not None else \
            [n.name for n in self._pick(list(self.nodes.values()) or
                                        self._leased_nodes(), 1)]
        for name in names:
            restore = self.fabric.degrade_node(name, ev.factor)
            fault_stats.link_degradations += 1
            if ev.duration > 0:
                self.env.schedule_callback(ev.duration, restore)
        return names

    def _do_partition(self, ev: FaultEvent) -> list[str]:
        if self.fabric is None:
            return []
        names = [ev.target] if ev.target is not None else \
            [n.name for n in self._pick(list(self.nodes.values()) or
                                        self._leased_nodes(), 1)]
        for name in names:
            heal = self.fabric.partition_node(name)
            fault_stats.partitions += 1
            if ev.duration > 0:
                self.env.schedule_callback(ev.duration, heal)
        return names

    def _do_revoke(self, ev: FaultEvent) -> list[str]:
        nodes = self._leased_nodes()
        if ev.target is not None:
            nodes = [n for n in nodes if n.name == ev.target]
        else:
            nodes = self._pick(nodes, 1)
        return self._revoke(nodes, ev.cause)

    def _do_revoke_storm(self, ev: FaultEvent) -> list[str]:
        nodes = self._leased_nodes()
        count = max(1, round(ev.fraction * len(nodes))) if nodes else 0
        return self._revoke(self._pick(nodes, count), ev.cause)

    def _leases_by_domain(self) -> dict[str, list]:
        """Active scavenge leases grouped by failure domain (the offer's
        owner — the tenant whose reclaim would seize the node)."""
        if self.manager is not None:
            leases = [lease for lease in self.manager.leases.values()
                      if lease.active]
        elif self.reservations is not None:
            leases = list(self.reservations.active_leases())
        else:
            return {}
        out: dict[str, list] = {}
        for lease in leases:
            owner = getattr(getattr(lease, "offer", None), "owner", None) \
                or "tenant"
            out.setdefault(owner, []).append(lease)
        return out

    def _do_revoke_domain(self, ev: FaultEvent) -> list[str]:
        """Failure-domain-correlated storm: each selected tenant reclaims
        **all** of its leased nodes as one event.

        Unlike ``revoke_storm`` (independent node sample, drained
        gracefully) this models the surprise whole-reservation reclaim of
        the paper's setting: when a store server is wired for the node its
        contents are seized on the spot (crash + placement exit), so the
        only way the data survives is redundancy.  Without a wired server
        the leases are still revoked domain-at-a-time (correlated drain).
        The schedule of seized domains is recorded in
        :attr:`FaultStats.storm_schedule`.
        """
        by_domain = self._leases_by_domain()
        domains = sorted(by_domain)
        if ev.target is not None:
            chosen = [ev.target] if ev.target in by_domain else []
        else:
            count = max(1, round(ev.fraction * len(domains))) \
                if domains else 0
            chosen = self._pick(domains, count)
        servers = self.servers()
        now = self.env.now
        names: list[str] = []
        for dom in chosen:
            nodes = sorted({lease.node for lease in by_domain[dom]},
                           key=lambda n: n.name)
            fault_stats.domain_storms += 1
            fault_stats.storm_schedule.append(
                (now, dom, tuple(n.name for n in nodes)))
            for node in nodes:
                store = servers.get(node.name)
                if store is not None and not getattr(store, "crashed",
                                                     False):
                    # Seizure: the tenant takes its memory back *now*.
                    store.crash()
                    fault_stats.crashes += 1
                    fault_stats.revocations += 1
                    fault_stats.record_fault(node.name, now)
                    if self.manager is not None:
                        self.manager.handle_crash(node.name)
                    names.append(node.name)
                else:
                    names.extend(self._revoke([node], ev.cause))
        return names

    def _revoke(self, nodes: list, cause: str) -> list[str]:
        now = self.env.now
        names = []
        for node in nodes:
            hit = self.reservations.revoke_leases(node, cause=cause) \
                if self.reservations is not None else 0
            if hit == 0 and self.manager is not None:
                # No reservation-system lease (tests wire the manager
                # directly): revoke the manager's own record.
                lease = self.manager.leases.get(node.name)
                if lease is not None and lease.active:
                    lease.revoke(cause)
                    hit = 1
            if hit:
                fault_stats.revocations += hit
                fault_stats.record_fault(node.name, now)
                names.append(node.name)
        return names

    def _do_pressure_wave(self, ev: FaultEvent) -> list[str]:
        nodes = list(self.nodes.values()) or self._leased_nodes()
        if ev.target is not None:
            nodes = [n for n in nodes if n.name == ev.target]
        else:
            count = max(1, round(ev.fraction * len(nodes))) if nodes else 0
            nodes = self._pick(nodes, count)
        self._pressure_tokens += 1
        owner = f"tenant-pressure:{self._pressure_tokens}"
        names = []
        for node in nodes:
            grab = min(ev.factor * node.memory_total, node.memory_free)
            if grab <= 0:
                continue
            node.allocate_memory(owner, grab)
            names.append(node.name)
            if ev.duration > 0:
                self.env.schedule_callback(
                    ev.duration,
                    lambda n=node, g=grab: n.free_memory(owner, g))
        if names:
            fault_stats.pressure_waves += 1
        return names
