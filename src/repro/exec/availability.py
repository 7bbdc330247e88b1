"""Availability/overhead frontier + revocation-storm soak (DESIGN.md §15).

One frontier *point* deploys MemFSS with a given redundancy posture,
writes a file population, fires a seeded **failure-domain-correlated**
revocation storm (each selected tenant seizes *all* of its leased nodes
at once — :func:`repro.faults.domain_storm`), lets the SLO-driven
:class:`~repro.fs.scavenger.RepairDaemon` sweep, and then re-reads
everything, counting what was lost and what had to be served degraded.
Three postures span the frontier:

- ``repl2`` — replication ×2: storage overhead 1.0;
- ``ec`` — XOR erasure ``(4, 1)``: overhead 0.25, domain-blind
  placement, so one seized tenant can take several fragments of the
  same group;
- ``ec_groups`` — the same code under CodingSets anti-affinity
  (``coding_sets=True``): equal overhead, but no erasure group keeps
  two fragments in one failure domain, so a whole-tenant seizure costs
  each group at most one fragment.

The *soak* mode is the zero-data-loss gate: payload-carrying files under
``ec_groups`` with a finite repair-bandwidth budget and a storm sized to
seize exactly **one** tenant domain — the loss EC(4,1) is provisioned to
survive, and anti-affinity guarantees at most one fragment per group sits
in the blast radius.  Every seed must read back every byte after the
storm, with repair traffic visibly draining through the budget pipe
(``budget_busy_s > 0``) rather than teleporting.

Both run from the CLI (:func:`repro.cli.cmd_avail`)::

    memfss avail --soak --seeds 10 --out r.json
    memfss avail --seeds 4
"""

from __future__ import annotations

from ..core.deployment import DeploymentConfig, MemFSSDeployment
from ..core.policy import PlacementPolicy
from ..faults import FaultInjector, avail_stats, domain_storm, fault_stats
from ..fs import FileNotFound
from ..fs.scavenger import RepairDaemon
from ..store import RetryPolicy
from ..units import MB

__all__ = ["MODES", "run_point", "run_frontier", "run_storm_soak"]

#: Redundancy postures spanning the frontier: name → (policy kwargs,
#: coding_sets knob, storage overhead in extra bytes per data byte).
MODES: dict[str, tuple[dict, bool, float]] = {
    "repl2": ({"replication": 2}, False, 1.0),
    "ec": ({"erasure": (4, 1)}, False, 0.25),
    "ec_groups": ({"erasure": (4, 1)}, True, 0.25),
}

#: Enough tenant domains that an EC(4,1) group (5 fragments) can spread
#: one-per-domain even when every fragment lands on victims.
_N_TENANTS = 6


def _config(mode: str, seed: int, *, scale: int = 1,
            alpha: float = 0.25, stripe_size: int = 1 * MB,
            ) -> DeploymentConfig:
    policy_kwargs, coding, _overhead = MODES[mode]
    return DeploymentConfig(
        n_own=2, n_victim=12, n_tenants=_N_TENANTS, scale=scale,
        stripe_size=stripe_size, seed=seed,
        coding_sets=coding,
        policy=PlacementPolicy.own_victim(alpha, **policy_kwargs))


def run_point(mode: str, seed: int, *, scale: int = 1, n_files: int = 12,
              file_size: float = 8 * MB, storm_fraction: float = 0.25,
              payloads: bool = False, bandwidth: float | None = None,
              repair_rounds: int = 6) -> dict:
    """One frontier point: write → storm → repair → verify.

    With *payloads* true the files carry real bytes (verified for
    corruption on the final pass — the soak setting); otherwise only
    sizes flow, which keeps ×4-scale sweeps cheap.  *bandwidth* meters
    the repair daemon (bytes/s of virtual time); None leaves repair
    unmetered.  Returns a JSON-safe dict of loss/latency/counters.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (one of {sorted(MODES)})")
    from ..metrics.registry import metrics_registry
    metrics_registry.reset()
    stripe = 64 * 1024 if payloads else 1 * MB
    size = int(file_size)
    dep = MemFSSDeployment(_config(mode, seed, scale=scale,
                                   stripe_size=stripe))
    env, fs, own = dep.env, dep.fs, dep.own[0]

    def run(gen):
        return env.run(until=env.process(gen))

    blobs: dict[str, bytes | None] = {}
    for i in range(n_files):
        path = f"/data-{i}"
        if payloads:
            blob = bytes((i * 131 + j * 7) % 256 for j in range(size))
            run(fs.write_file(own, path, payload=blob))
        else:
            blob = None
            run(fs.write_file(own, path, nbytes=float(size)))
        blobs[path] = blob

    def read_pass():
        ok, lost, t0 = 0, [], env.now
        for path, blob in sorted(blobs.items()):
            try:
                _n, back = yield from fs.read_file(own, path)
            except FileNotFound:
                lost.append(path)
                continue
            if blob is not None and back != blob:
                lost.append(path)       # corruption counts as loss
                continue
            ok += 1
        return {"ok": ok, "lost": lost,
                "mean_read_s": (env.now - t0) / max(1, len(blobs))}

    before = run(read_pass())

    # The correlated storm: each selected tenant seizes all of its nodes.
    victim_names = {n.name for n in dep.victims}
    injector = FaultInjector(
        env, domain_storm(env.now + 0.5, storm_fraction),
        servers=lambda: {name: s for name, s in fs.servers.items()
                         if name in victim_names},
        manager=dep.manager, reservations=dep.cluster.reservations,
        nodes=dep.victims, rng=dep.rng, stream="avail-storm")
    injector.start()
    env.run(until=env.now + 1.0)

    daemon = RepairDaemon(env, fs, manager=dep.manager,
                          bandwidth=bandwidth,
                          retry=RetryPolicy(attempts=2, base_delay=0.05))
    repair_t0 = env.now
    for _ in range(repair_rounds):
        run(daemon.sweep())
        if daemon.deficits == 0:
            break
    repair_s = env.now - repair_t0

    after = run(read_pass())
    avail = avail_stats.snapshot()
    return {
        "mode": mode, "seed": seed, "scale": scale,
        "storage_overhead": MODES[mode][2],
        "n_files": n_files, "file_size": float(size),
        "files_lost": len(after["lost"]), "lost_paths": after["lost"],
        "loss_frac": len(after["lost"]) / max(1, n_files),
        "pre_storm_lost": len(before["lost"]),
        "mean_read_s_before": before["mean_read_s"],
        "mean_read_s_after": after["mean_read_s"],
        "repair_s": repair_s,
        "repair_deficits": daemon.deficits,
        "stripes_lost_records": [r.to_payload() for r in daemon.lost],
        "repair_timeline": daemon.timeline,
        "budget_busy_s": (daemon.pipe.busy_time()
                          if daemon.pipe is not None else None),
        "storms": [[float(t), dom, list(names)]
                   for t, dom, names in fault_stats.storm_schedule],
        "availability": avail,
        "faults": fault_stats.snapshot(),
    }


def run_frontier(seeds, *, scales=(1,), modes=tuple(MODES),
                 n_files: int = 12, file_size: float = 8 * MB,
                 storm_fraction: float = 0.17) -> dict:
    """The replication-vs-EC-vs-EC+groups frontier over *seeds* ×
    *scales*: per cell, mean loss fraction, degraded-read latency and
    the fixed storage overhead.  Returns the JSON report plus every
    raw point.

    The default storm seizes **one** tenant domain (0.17 of 6) — the
    correlated loss XOR (4, 1) is provisioned to survive, where
    anti-affinity is a strict win: at most one fragment per group sits
    in the blast radius, while blind placement doubles fragments up.
    Beyond ``m`` simultaneous domain seizures no placement can save a
    ``(k, m)`` code, and spreading then *maximizes* the groups touched
    (the copyset trade-off) — pass a larger fraction to chart that
    crossover, but the structural gate lives in the provisioned regime.
    """
    points = [run_point(mode, seed, scale=scale, n_files=n_files,
                        file_size=file_size,
                        storm_fraction=storm_fraction)
              for scale in scales for mode in modes for seed in seeds]
    cells: dict[str, dict] = {}
    for mode in modes:
        for scale in scales:
            sub = [p for p in points
                   if p["mode"] == mode and p["scale"] == scale]
            reads = sum(p["availability"]["degraded_reads"] for p in sub)
            cells[f"{mode}@x{scale}"] = {
                "mode": mode, "scale": scale,
                "storage_overhead": MODES[mode][2],
                "seeds": len(sub),
                "mean_loss_frac": (sum(p["loss_frac"] for p in sub)
                                   / max(1, len(sub))),
                "total_files_lost": sum(p["files_lost"] for p in sub),
                "total_stripes_lost": sum(
                    p["availability"]["stripes_lost"] for p in sub),
                "degraded_reads": reads,
                "mean_degraded_read_s": (
                    sum(p["availability"]["degraded_read_s"] for p in sub)
                    / max(1, reads)),
                "mean_read_s_after": (
                    sum(p["mean_read_s_after"] for p in sub)
                    / max(1, len(sub))),
                "mean_mttr_s": (sum(p["availability"]["stripe_mttr_s"]
                                    for p in sub) / max(1, len(sub))),
            }
    return {"seeds": list(seeds), "scales": list(scales),
            "modes": list(modes), "cells": cells, "points": points}


def run_storm_soak(seeds, *, n_files: int = 8, file_size: float = 64 * 1024,
                   storm_fraction: float = 0.17,
                   bandwidth: float = 64 * MB) -> dict:
    """The zero-data-loss gate: payload files under ``ec_groups`` with a
    finite repair budget must all read back byte-identical after the
    storm, and repairs must have drained through the budget pipe.

    Raises :class:`AssertionError` on any loss, corruption or free
    (unmetered) repair — that is the CI assertion.
    """
    runs = []
    for seed in seeds:
        point = run_point("ec_groups", seed, n_files=n_files,
                          file_size=file_size, payloads=True,
                          storm_fraction=storm_fraction,
                          bandwidth=bandwidth, repair_rounds=10)
        assert point["files_lost"] == 0, (
            f"seed {seed}: lost {point['lost_paths']} despite "
            f"domain-aware groups")
        assert point["availability"]["stripes_lost"] == 0, (
            f"seed {seed}: repair daemon recorded "
            f"{point['availability']['stripes_lost']} lost stripes")
        repaired = point["faults"]["repaired_bytes"]
        if repaired > 0:
            assert point["budget_busy_s"] > 0, (
                f"seed {seed}: {repaired:.0f} B repaired but the budget "
                f"pipe never ran — repair bytes teleported")
        runs.append(point)
    return {
        "seeds": [p["seed"] for p in runs],
        "zero_loss": True,
        "bandwidth": float(bandwidth),
        "total_repaired_bytes": sum(p["faults"]["repaired_bytes"]
                                    for p in runs),
        "total_repairs": sum(p["availability"]["repairs_completed"]
                             for p in runs),
        "total_degraded_reads": sum(p["availability"]["degraded_reads"]
                                    for p in runs),
        "mean_mttr_s": (sum(p["availability"]["stripe_mttr_s"]
                            for p in runs) / max(1, len(runs))),
        "budget_busy_s": sum(p["budget_busy_s"] or 0.0 for p in runs),
        "runs": runs,
    }

