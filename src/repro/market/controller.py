"""The seeded epoch controller clearing the memory marketplace.

Each epoch the :class:`MarketController`

1. **clears the book** — every pending offer is granted in deterministic
   (sorted) order: the reservation system registers the offer's terms,
   the scavenger claims the lease, spins up the containerized store and
   grows the victim class by that node (new writes see it immediately);
2. **prices the supply** — active leases are risk-discounted by their
   remaining term and notice period (:mod:`repro.market.risk`);
3. **retunes α** — the own-data fraction tracks
   ``1 − supply/demand`` (clamped to ``[alpha_floor, alpha_ceil]``):
   plentiful cheap victim memory keeps α at the paper's sweet spot,
   shrinking or risky supply pulls data home *before* the reclaim wave
   lands;
4. **migrates the delta** — class weights are recomputed from the new
   targets by :meth:`repro.core.policy.PlacementPolicy.weights` (the
   two-class closed form for own/victim) and the scavenger's
   :meth:`~repro.fs.scavenger.ScavengingManager.rebalance` moves
   **only** the stripes whose placement changed between the old and
   new stripe plans, under the per-epoch migration budget.

An idle epoch — empty book, unchanged membership, α within the deadband
— short-circuits without touching the placement, so a marketplace with
no activity is byte-identical to the static-weights path.
"""

from __future__ import annotations

from ..cluster.reservation import ReservationSystem
from ..core.policy import PlacementPolicy
from ..fs.memfss import MemFSS
from ..fs.scavenger import ScavengingManager
from ..sim import Environment, Interrupt
from .book import MarketBook
from .risk import (DEFAULT_RISK_HORIZON, DEFAULT_SHORT_NOTICE,
                   discounted_supply)
from .stats import market_stats

__all__ = ["MarketController"]


class MarketController:
    """Clears the lease book and retunes placement once per epoch."""

    def __init__(self, env: Environment, fs: MemFSS,
                 manager: ScavengingManager,
                 reservations: ReservationSystem,
                 policy: PlacementPolicy, *,
                 book: MarketBook | None = None,
                 epoch: float = 2.0,
                 alpha_floor: float = 0.25,
                 alpha_ceil: float = 0.95,
                 deadband: float = 0.02,
                 risk_horizon: float = DEFAULT_RISK_HORIZON,
                 short_notice: float = DEFAULT_SHORT_NOTICE,
                 supply_target: float = 0.85,
                 budget_bytes: float | None = None,
                 retune: bool = True,
                 victim_class: str = "victim"):
        if epoch <= 0:
            raise ValueError("epoch must be positive")
        if not 0.0 <= alpha_floor <= alpha_ceil <= 1.0:
            raise ValueError("need 0 <= alpha_floor <= alpha_ceil <= 1")
        self.env = env
        self.fs = fs
        self.manager = manager
        self.reservations = reservations
        self.policy = policy
        self.book = book if book is not None else MarketBook()
        self.epoch = float(epoch)
        self.alpha_floor = float(alpha_floor)
        self.alpha_ceil = float(alpha_ceil)
        self.deadband = float(deadband)
        self.risk_horizon = float(risk_horizon)
        self.short_notice = float(short_notice)
        if not 0.0 < supply_target <= 1.0:
            raise ValueError("supply_target must be in (0, 1]")
        self.supply_target = float(supply_target)
        self.budget_bytes = budget_bytes
        if retune and policy.alpha is None:
            # with_fraction("own", α) on the retune path needs a
            # fraction-targeted policy containing an "own" class;
            # anything else would crash the controller process on the
            # first non-idle epoch — reject it at construction instead.
            raise ValueError(
                "retune=True requires a fraction-targeted policy with an "
                "'own' class (e.g. PlacementPolicy.own_victim(alpha)); "
                f"got {policy!r} — pass retune=False to run this policy "
                "without live α retuning")
        self.retune = retune
        self.victim_class = victim_class
        initial = policy.alpha
        self.alpha = float(initial if initial is not None else alpha_floor)
        #: Per-epoch α decisions: the headline trace of the Fig. 2-style
        #: sweep (JSON-safe dicts, in epoch order).
        self.alpha_trace: list[dict] = []
        self._last_map = fs.policy
        self._seen_noticed: set[str] = set()
        self._seen_revoked: set[str] = set()
        self._proc = None

    # -- lifecycle -----------------------------------------------------------------
    def start(self):
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.env.process(self._run(),
                                          name="market-controller")
        return self._proc

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("market controller stopped")

    def _run(self):
        try:
            while True:
                yield self.env.timeout(self.epoch)
                yield from self.clear_epoch()
        except Interrupt:
            return

    # -- book entry points ---------------------------------------------------------
    def publish(self, node, memory: float, *,
                duration: float | None = None, notice: float = 0.0):
        """A victim posts memory with market terms; granted next epoch."""
        return self.book.publish(node, memory, duration=duration,
                                 notice=notice, now=self.env.now)

    def submit_demand(self, tenant: str, nbytes: float):
        """A consumer declares the bytes it intends to store."""
        return self.book.submit(tenant, nbytes, now=self.env.now)

    # -- the epoch step ------------------------------------------------------------
    def market_leases(self) -> list:
        """Active leases on the victim class, in node-name order."""
        return [self.manager.leases[name]
                for name in sorted(self.manager.leases)
                if self.manager.leases[name].active]

    def supply(self) -> float:
        """Risk-discounted victim supply (bytes) right now."""
        return discounted_supply(self.market_leases(), self.env.now,
                                 horizon=self.risk_horizon,
                                 short_notice=self.short_notice)

    def demand(self) -> float:
        """Outstanding demand: the declared byte demand, floored by what
        is already stored (data on disk is demand already exercised)."""
        stored = sum(s.kv.used_bytes for s in self.fs.servers.values())
        return max(self.book.demand_total(), stored)

    def target_alpha(self) -> float:
        """The α the controller wants right now, rounded to 0.001 so that
        market states closer than that share one placement.

        The law targets victim bytes at ``supply_target`` of the
        risk-discounted supply — ``(1 − α)·D = u·S`` — so leased stores
        keep headroom for churn instead of running pinned at capacity:
        plentiful supply clamps to the floor (the paper's α), shrinking
        or risky supply pulls data home before the reclaim wave lands.
        """
        if not self.retune:
            return self.alpha
        demand = self.demand()
        if demand <= 0.0:
            return self.alpha
        raw = 1.0 - self.supply_target * self.supply() / demand
        return round(min(self.alpha_ceil, max(self.alpha_floor, raw)), 3)

    def _grant_pending(self) -> int:
        granted = 0
        for offer in self.book.pending_offers():
            node = offer.node
            if node.name in self.fs.servers:
                lease = self.manager.leases.get(node.name)
                if lease is not None and lease.active \
                        and not lease.notified.triggered:
                    # Duplicate offer for a healthy live store — drop it.
                    self.book.withdraw(node.name)
                # Otherwise the old store is still draining: keep the
                # offer pending and grant it once the drain completes.
                continue
            self.reservations.register_offer(
                node, offer.memory, owner="market", voluntary=True,
                duration=offer.duration, notice=offer.notice)
            self.manager.scavenge_node(
                node, offer.memory, class_name=self.victim_class,
                weight=self._victim_weight(), drain_on_notice=True)
            offer.granted_at = self.env.now
            self.book.withdraw(node.name)
            # A fresh lease on a returning node gets its events counted.
            self._seen_noticed.discard(node.name)
            self._seen_revoked.discard(node.name)
            market_stats.leases_granted += 1
            granted += 1
        return granted

    def _victim_weight(self) -> float:
        spec = self.fs.policy.classes.get(self.victim_class)
        if spec is not None:
            return spec.weight
        return self.policy.weights().get(self.victim_class, 0.0)

    def _count_lease_events(self) -> None:
        for name, lease in self.manager.leases.items():
            if lease.notified.triggered and name not in self._seen_noticed:
                self._seen_noticed.add(name)
                market_stats.leases_noticed += 1
            if lease.revoked.triggered and name not in self._seen_revoked:
                self._seen_revoked.add(name)
                market_stats.leases_revoked += 1

    def clear_epoch(self):
        """Generator: one clearing round (grant → price → retune →
        migrate the plan diff)."""
        market_stats.epochs += 1
        self._count_lease_events()
        granted = self._grant_pending()
        alpha = self.target_alpha()
        moved = {"moved_bytes": 0.0, "moved_stripes": 0,
                 "deferred_files": 0, "freed_bytes": 0.0}
        map_changed = self.fs.policy is not self._last_map
        alpha_changed = abs(alpha - self.alpha) > self.deadband
        if not (granted or map_changed or alpha_changed):
            market_stats.idle_epochs += 1
            return moved
        if alpha_changed:
            self.alpha = alpha
            self.policy = self.policy.with_fraction("own", alpha)
            market_stats.retunes += 1
        weights = self.policy.weights()
        new_map = self.fs.policy.reweighted(
            {c: float(w) for c, w in weights.items()})
        summary = yield from self.manager.rebalance(
            new_map, budget_bytes=self.budget_bytes)
        self._last_map = self.fs.policy
        market_stats.stripes_migrated += summary["moved_stripes"]
        market_stats.bytes_migrated += int(summary["moved_bytes"])
        market_stats.bytes_freed += int(summary["freed_bytes"])
        market_stats.files_deferred += summary["deferred_files"]
        moved.update(summary)
        self.alpha_trace.append({
            "t": self.env.now, "alpha": self.alpha,
            "supply": self.supply(), "demand": self.demand(),
            "granted": granted,
            "moved_bytes": summary["moved_bytes"],
            "moved_stripes": summary["moved_stripes"],
            "deferred_files": summary["deferred_files"]})
        return moved
