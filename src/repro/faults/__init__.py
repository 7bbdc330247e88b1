"""Fault injection and recovery accounting (the robustness layer).

The paper's premise is that scavenged memory is *transient* (§III-A):
victim leases vanish under tenant pressure and MemFSS must survive via
evacuation and lazy movement (§V-C).  This package provides

- :mod:`repro.faults.stats` — process-wide counters (injected/recovered
  faults, MTTR, degraded reads, retry activity) shared by the store
  client, the scavenger and the repair daemon;
- :mod:`repro.faults.injector` — a deterministic, seeded
  :class:`FaultInjector` driven by a declarative :class:`FaultSchedule`:
  store-server crashes, fabric link degradation and partitions,
  lease-revocation storms, and memory-pressure waves.
"""

from .stats import FaultStats, fault_stats
from .availability import AvailabilityStats, DegradedStripe, avail_stats
from .injector import (FaultEvent, FaultSchedule, FaultInjector,
                       domain_storm, revocation_storm)

__all__ = [
    "FaultStats", "fault_stats",
    "AvailabilityStats", "DegradedStripe", "avail_stats",
    "FaultEvent", "FaultSchedule", "FaultInjector", "revocation_storm",
    "domain_storm",
]
