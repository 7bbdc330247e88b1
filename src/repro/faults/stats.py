"""Process-wide fault/recovery counters.

One shared :data:`fault_stats` instance (the same pattern as
``repro.fs.placement.planner_stats``) collects everything the robustness
layer does: the injector records faults, the store client records
retries/hedges/timeouts/degraded reads, and the scavenger's evacuation
path plus the repair daemon record recoveries.  MTTR is derived from
matched fault→recovery pairs keyed by node.

The module depends only on :mod:`repro.counters` on purpose: it is
imported from ``store.client`` and ``fs.scavenger`` without creating
package cycles.
"""

from __future__ import annotations

from ..counters import Counters

__all__ = ["FaultStats", "fault_stats"]


class FaultStats(Counters):
    """Cumulative robustness counters (reset per experiment run)."""

    _COUNTERS = (
        # injector side
        "faults_injected", "crashes", "link_degradations", "partitions",
        "revocations", "pressure_waves", "domain_storms",
        # client resilience side
        "retries", "hedged_reads", "timeouts", "degraded_reads",
        "unavailable_errors",
        # recovery side
        "recoveries", "evacuations", "repair_scans", "stripes_repaired",
    )
    __slots__ = _COUNTERS + ("repaired_bytes", "repair_times", "_open",
                             "storm_schedule")
    _CAST = float

    def reset(self) -> None:
        super().reset()
        self.repaired_bytes = 0.0
        #: Completed fault→recovery durations (seconds of virtual time).
        self.repair_times: list[float] = []
        #: Open faults: key (usually a node name) → injection time.
        self._open: dict[str, float] = {}
        #: Domain-correlated storms fired so far:
        #: ``(time, domain, (node, ...))`` — one entry per seized domain.
        self.storm_schedule: list[tuple[float, str, tuple[str, ...]]] = []

    # -- fault / recovery pairing ------------------------------------------------
    def record_fault(self, key: str, now: float) -> None:
        """A fault hit *key* (node) at virtual time *now*."""
        self.faults_injected += 1
        # The earliest open fault per key defines the outage start.
        self._open.setdefault(key, now)

    def record_recovery(self, key: str, now: float) -> None:
        """Redundancy/ownership of *key* is whole again."""
        start = self._open.pop(key, None)
        if start is None:
            return
        self.recoveries += 1
        self.repair_times.append(now - start)

    def resolve_open(self, now: float) -> int:
        """Close every open fault (a clean repair sweep found no deficit)."""
        n = 0
        for key in list(self._open):
            self.record_recovery(key, now)
            n += 1
        return n

    @property
    def open_faults(self) -> tuple[str, ...]:
        return tuple(self._open)

    def mttr(self) -> float:
        """Mean time to recovery over all completed fault→repair pairs."""
        if not self.repair_times:
            return 0.0
        return sum(self.repair_times) / len(self.repair_times)

    def snapshot(self) -> dict[str, float]:
        out = super().snapshot()
        out["repaired_bytes"] = float(self.repaired_bytes)
        out["open_faults"] = float(len(self._open))
        out["mttr_s"] = self.mttr()
        out["storm_events"] = float(len(self.storm_schedule))
        return out


fault_stats = FaultStats()
