"""Process-wide executor counters (the ``flownet_stats`` pattern).

Counted in the *parent* process only: store lookups happen before fan-out
and payloads are stored when they come back, so the counters are coherent
regardless of backend.  ``repro.metrics.exec`` exposes them as snapshots
and Monitor probes.
"""

from __future__ import annotations

__all__ = ["ExecStats", "exec_stats"]


class ExecStats:
    """Cumulative sweep-executor counters; reset per experiment run.

    ``scenarios_run`` counts simulations actually executed (any backend).
    ``worker_crashes`` counts scenario executions surfaced as
    :class:`~repro.exec.runner.ScenarioError` (failed worker process or
    raising executor).  ``sweeps_serial`` / ``sweeps_stealing`` count
    :meth:`SweepRunner.run` calls per backend.  ``serial_fallbacks``
    counts stealing sweeps the runner downgraded to serial because the
    host has a single CPU (such runs are also counted in
    ``sweeps_serial`` — they executed serially).

    The ``store_*`` family counts the persistent
    :class:`~repro.exec.store.ResultStore`: ``store_hits`` the scenarios
    answered from it, ``store_misses`` lookups that found nothing
    usable, ``store_invalidations`` stale entries discarded because the
    code-version salt no longer matched, ``store_stores`` fresh payloads
    written back, ``store_evictions`` LRU evictions under the byte
    budget, ``store_expirations`` TTL expiries, ``store_gc_orphans``
    orphaned blobs removed by GC, and ``store_bytes`` is a *gauge* — the
    indexed on-disk bytes after the last store operation.

    The ``sched_*`` family counts work-stealing scheduler events:
    ``sched_workers_spawned`` worker processes started (including
    replacements), ``sched_worker_restarts`` workers replaced after a
    crash or a blown task deadline, ``sched_requeues`` tasks put back on
    the shared queue for retry, and ``sched_heartbeats`` heartbeat
    messages received from workers.
    """

    _COUNTERS = ("scenarios_run", "worker_crashes",
                 "sweeps_serial", "sweeps_stealing", "serial_fallbacks",
                 "store_hits", "store_misses", "store_invalidations",
                 "store_stores", "store_evictions", "store_expirations",
                 "store_gc_orphans", "store_bytes",
                 "sched_workers_spawned", "sched_worker_restarts",
                 "sched_requeues", "sched_heartbeats")
    __slots__ = _COUNTERS

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        for name in self._COUNTERS:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        return {name: int(getattr(self, name)) for name in self._COUNTERS}


#: Shared instance imported by ``repro.metrics.exec`` and the benchmarks.
exec_stats = ExecStats()
