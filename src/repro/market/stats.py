"""Process-wide market counters (one :class:`~repro.counters.Counters`).

One instance per process; scenario executors reset it at the top of each
run so payloads stay pure functions of the spec (see the determinism
contract in :mod:`repro.exec`).  Reset, snapshotted and charted
uniformly through the :class:`~repro.metrics.registry.MetricsRegistry`.
"""

from __future__ import annotations

from ..counters import Counters

__all__ = ["MarketStats", "market_stats"]


class MarketStats(Counters):
    """Cumulative marketplace counters.

    ``epochs`` counts controller clearing rounds, ``retunes`` the rounds
    that actually changed α (and triggered a plan-diff rebalance);
    ``idle_epochs`` the rounds short-circuited with an empty book and an
    unchanged placement.  Lease lifecycle: ``offers_published`` /
    ``leases_granted`` / ``leases_noticed`` / ``leases_revoked``.
    Migration accounting comes from the scavenger's rebalance summaries:
    ``stripes_migrated`` / ``bytes_migrated`` / ``bytes_freed`` /
    ``files_deferred`` (budget exhausted, left for the next epoch).
    """

    _COUNTERS = ("epochs", "retunes", "idle_epochs",
                 "offers_published", "leases_granted", "leases_noticed",
                 "leases_revoked", "demands_submitted",
                 "stripes_migrated", "bytes_migrated", "bytes_freed",
                 "files_deferred")
    __slots__ = _COUNTERS


market_stats = MarketStats()
