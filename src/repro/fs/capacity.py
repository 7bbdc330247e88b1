"""Write-path capacity pressure: ledger, spill selection, counters.

The paper's spill rule (§III-E: descend the HRW ranking when the winning
node cannot serve) has always been modeled for *reads* — this module
applies it to capacity on the *write* path.  Three pieces:

- :func:`select_targets` — the pure spill rule: given a stripe's full HRW
  chain and each node's usable free space, deterministically pick the
  first ``k`` nodes that can admit the stripe.  Pure so the batch
  (:meth:`~repro.fs.placement.StripePlan.chain`) and scalar
  (:meth:`~repro.fs.placement.PlacementMap.ranked`) paths provably
  agree (the hypothesis property test drives both through it).
- :class:`CapacityLedger` — per-store free-space view plus in-flight
  write reservations, so a window of concurrent stripe puts does not
  over-commit one store between the check and the put landing.
- :class:`PressureStats` / :data:`pressure_stats` — process-wide
  counters (one :class:`~repro.counters.Counters`), snapshotted and
  charted as ``pressure`` by the metrics registry.

Everything here is plain Python — no simulated events — so enabling the
capacity guard cannot perturb placement or timing while no store is under
pressure (the Fig. 2 golden bit-identity contract).
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Mapping, Sequence

from ..counters import Counters

__all__ = ["PressureStats", "pressure_stats", "CapacityLedger",
           "select_targets"]


def select_targets(chain: Sequence[str], nbytes: float, k: int,
                   usable: Callable[[str], float], *,
                   exclude: AbstractSet[str] = frozenset(),
                   ) -> tuple[list[str], int, int]:
    """Capacity-aware replica selection down an HRW chain (§III-E).

    Walks *chain* in rank order and picks the first *k* nodes whose
    ``usable(node)`` free space admits *nbytes*.  Returns
    ``(targets, spill_distance, shortfall)`` where *spill_distance* is
    the total number of ranks the picked targets sit below their ideal
    positions (0 when the top-``k`` nodes all admit) and *shortfall* is
    how many of the *k* wanted copies found no home.

    *exclude* names nodes the walk must skip — the CodingSets write path
    passes the nodes (and domain-mates) already holding sibling fragments
    of the same erasure group, so a capacity spill cannot collapse two
    fragments onto one failure domain.  Skipped ranks still count toward
    spill distance, like full nodes.

    Deterministic by construction: the outcome is a pure function of the
    chain order, the exclusion set and the free-space snapshot.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    targets: list[str] = []
    distance = 0
    for rank, name in enumerate(chain):
        if name in exclude:
            continue
        if usable(name) >= nbytes:
            distance += rank - len(targets)
            targets.append(name)
            if len(targets) >= k:
                break
    return targets, distance, k - len(targets)


class CapacityLedger:
    """Free-space view over a live server map, with in-flight reservations.

    The ledger reads each store's zero-cost
    :meth:`~repro.store.server.StoreServer.free_space` peek and subtracts
    the bytes this file system has already committed to in-flight puts
    (up to ``write_window`` stripes race between admission check and the
    put landing).  It holds the *same* mapping object as
    ``MemFSS.servers``, so scavenged victims joining or leaving are
    visible immediately.
    """

    __slots__ = ("_servers", "_inflight")

    def __init__(self, servers: Mapping[str, object]):
        self._servers = servers
        self._inflight: dict[str, float] = {}

    def _cost(self, server, nbytes: float) -> float:
        return float(nbytes) + server.kv.key_overhead

    def usable(self, name: str) -> float:
        """Payload bytes a new put on *name* could admit right now."""
        server = self._servers.get(name)
        if server is None:
            return float("-inf")
        return (server.free_space() - self._inflight.get(name, 0.0)
                - server.kv.key_overhead)

    def admits(self, name: str, nbytes: float) -> bool:
        return self.usable(name) >= nbytes

    def reserve(self, name: str, nbytes: float) -> float:
        """Commit an in-flight put; returns the reserved cost to release."""
        server = self._servers.get(name)
        cost = self._cost(server, nbytes) if server is not None \
            else float(nbytes)
        self._inflight[name] = self._inflight.get(name, 0.0) + cost
        return cost

    def release(self, name: str, cost: float) -> None:
        left = self._inflight.get(name, 0.0) - cost
        if left > 1e-9:
            self._inflight[name] = left
        else:
            self._inflight.pop(name, None)

    def inflight_bytes(self, name: str) -> float:
        return self._inflight.get(name, 0.0)


class PressureStats(Counters):
    """Process-wide capacity-pressure counters (one shared
    :class:`~repro.counters.Counters`, reset per experiment).

    Write path: ``writes_checked`` counts guarded stripe writes,
    ``spilled_writes``/``spill_distance`` the proactive chain descents,
    ``reactive_spills`` FULL responses that still slipped through the
    ledger (capacity races), ``replica_shortfall`` wanted copies that
    found no store, and ``exhausted_writes`` stripes no store could
    admit.  Recovery path: ``evac_spills``/``evac_drops`` and
    ``repair_skips`` count capacity detours during evacuation drains and
    repair sweeps.  Admission: ``admission_checks``/
    ``admission_rejections`` from the placement-aware predictor, and
    ``degraded_rows`` counts sweep rows that fell back to a typed
    "unable to run" result.
    """

    _COUNTERS = ("writes_checked", "spilled_writes", "spill_distance",
                 "reactive_spills", "replica_shortfall", "exhausted_writes",
                 "evac_spills", "evac_drops", "repair_skips",
                 "admission_checks", "admission_rejections", "degraded_rows")
    __slots__ = _COUNTERS


pressure_stats = PressureStats()
