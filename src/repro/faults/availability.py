"""Process-wide availability accounting (degraded reads, repair SLOs).

One shared :data:`avail_stats` instance — the same singleton pattern as
:data:`repro.faults.stats.fault_stats` — collects what the redundancy
layer actually delivered: how often reads fell through to a lower-ranked
replica or had to reconstruct from parity (and how long that took), how
many fragments/stripes were lost, how large the repair backlog is, and
the per-stripe MTTR ledger the SLO-driven RepairDaemon maintains.

Like ``faults.stats`` the module depends only on :mod:`repro.counters`
on purpose: it is imported from ``store.client``, ``fs.memfss`` and
``fs.scavenger`` without creating package cycles.  A monitor charts
these counters through ``metrics_registry.attach(mon, "availability")``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..counters import Counters

__all__ = ["AvailabilityStats", "avail_stats", "DegradedStripe"]


@dataclass(frozen=True)
class DegradedStripe:
    """A loud, typed record of a stripe the repair daemon could not save.

    Emitted when *all* repair sources of an erasure group are gone (the
    fragment is missing everywhere on its chain and reconstruction lost
    a second sibling).  Mirrors the shape of
    :class:`repro.core.degraded.DegradedResult` so soaks and benchmarks
    can serialize it straight into their artifacts.
    """

    path: str
    key: tuple
    reason: str
    detail: str = ""
    at: float = 0.0

    def render(self) -> str:
        return f"stripe lost ({self.reason}): {self.path}{list(self.key)}"

    def to_payload(self) -> dict:
        return {"path": self.path, "key": list(self.key),
                "reason": self.reason, "detail": self.detail,
                "at": self.at}


class AvailabilityStats(Counters):
    """Cumulative availability counters (reset per experiment run)."""

    _COUNTERS = (
        # read-side degradation
        "degraded_reads", "reconstructions",
        # redundancy state observed by scans
        "fragments_lost", "stripes_degraded", "stripes_lost",
        # placement-constraint bookkeeping
        "placement_violations", "set_spills",
        # repair execution
        "repairs_completed", "repair_retries", "repair_skips",
    )
    __slots__ = _COUNTERS + (
        "degraded_read_s", "reconstruction_s", "reconstructed_bytes",
        "repair_backlog_bytes", "stripe_mttr", "_degraded_since",
        "unavailable_s")
    _CAST = float

    def reset(self) -> None:
        super().reset()
        #: Virtual seconds spent in reads served by a non-primary copy.
        self.degraded_read_s = 0.0
        #: Virtual seconds spent rebuilding stripes from parity siblings.
        self.reconstruction_s = 0.0
        self.reconstructed_bytes = 0.0
        #: Bytes the repair daemon still owes (gauge, set per sweep).
        self.repair_backlog_bytes = 0.0
        #: Closed degraded→repaired windows (seconds), one per stripe.
        self.stripe_mttr: list[float] = []
        #: Open degraded windows: stripe key → first-seen virtual time.
        self._degraded_since: dict = {}
        #: Total degraded-window seconds closed so far.
        self.unavailable_s = 0.0

    # -- read-side accounting -----------------------------------------------------
    def record_degraded_read(self, elapsed: float) -> None:
        self.degraded_reads += 1
        self.degraded_read_s += elapsed

    def record_reconstruction(self, elapsed: float, nbytes: float) -> None:
        self.reconstructions += 1
        self.reconstruction_s += elapsed
        self.reconstructed_bytes += nbytes

    # -- MTTR ledger (per degraded stripe) ----------------------------------------
    def open_window(self, key, now: float) -> bool:
        """Stripe *key* was observed degraded at *now*; True if this is
        the first observation (a new degraded window opened)."""
        if key not in self._degraded_since:
            self.stripes_degraded += 1
            self._degraded_since[key] = now
            return True
        return False

    def close_window(self, key, now: float) -> None:
        """Stripe *key* is whole again; record its repair time."""
        start = self._degraded_since.pop(key, None)
        if start is None:
            return
        self.stripe_mttr.append(now - start)
        self.unavailable_s += now - start

    @property
    def open_windows(self) -> int:
        return len(self._degraded_since)

    def mttr(self) -> float:
        """Mean time to repair over all closed degraded windows."""
        if not self.stripe_mttr:
            return 0.0
        return sum(self.stripe_mttr) / len(self.stripe_mttr)

    def snapshot(self) -> dict[str, float]:
        out = super().snapshot()
        out["degraded_read_s"] = self.degraded_read_s
        out["reconstruction_s"] = self.reconstruction_s
        out["reconstructed_bytes"] = self.reconstructed_bytes
        out["repair_backlog_bytes"] = self.repair_backlog_bytes
        out["open_windows"] = float(self.open_windows)
        out["unavailable_s"] = self.unavailable_s
        out["stripe_mttr_s"] = self.mttr()
        return out


avail_stats = AvailabilityStats()
