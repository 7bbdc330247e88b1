"""Sweep-executor observability.

The scenario executor (:mod:`repro.exec`) keeps process-wide counters —
scenarios actually simulated, worker crashes, sweeps per backend, the
result store's hit/miss/invalidation/store/eviction/expiry/GC traffic
and live byte gauge (``store_*``) and the work-stealing scheduler's
spawn/restart/requeue/heartbeat traffic (``sched_*``).  This module
exposes them as plain snapshots and as
:class:`~repro.sim.monitor.Monitor` probes, mirroring the
placement-planner and flow-solver counters, so figure runs and CI lanes
can assert on store behavior (e.g. "a warm re-run executes zero
simulations", "eviction kept the store under budget").  New counters
only need adding to ``ExecStats._COUNTERS``; the probes here derive
from it.
"""

from __future__ import annotations

from ..exec.stats import exec_stats
from ..sim.monitor import Monitor, TimeSeries

__all__ = ["exec_counters", "attach_exec_probes"]

_FIELDS = exec_stats._COUNTERS


def exec_counters() -> dict[str, int]:
    """Current executor counters (cumulative since last reset)."""
    return exec_stats.snapshot()


def attach_exec_probes(monitor: Monitor,
                       prefix: str = "exec") -> dict[str, TimeSeries]:
    """Sample every executor counter as a ``<prefix>.<field>`` series.

    Counters are cumulative; diff consecutive samples for rates.
    """
    return monitor.add_probes({
        f"{prefix}.{field}": (lambda f=field:
                              float(getattr(exec_stats, f)))
        for field in _FIELDS})
