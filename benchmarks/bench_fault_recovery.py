"""Fault recovery: runtime inflation under a revocation storm.

A fixed file population is written through MemFSS and read back, twice:
once undisturbed (clean baseline) and once with a seeded
:func:`~repro.faults.revocation_storm` revoking half the scavenged
victims mid-write — double the paper's §V-C "many simultaneous
revocations" floor of 25%.  The storm run is executed twice with the
same seed to assert bit-reproducibility of the injected sequence and of
every counter it produces.

Reported (and written to ``results/fault-recovery.json``):

* clean vs. storm virtual runtime and the inflation percentage,
* MTTR — revocation to drained evacuation, via ``fault_stats``,
* data integrity (every payload must read back intact: zero losses),
* redundancy deficits after a repair-daemon sweep (must be zero).

``FAULT_SMOKE=1`` shrinks the population for the CI smoke lane; smoke
results are written under a separate key so they never overwrite the
committed full-scale artifact.
"""

from __future__ import annotations

import os
import time

from _harness import write_result
from repro.core import DeploymentConfig, MemFSSDeployment
from repro.faults import FaultInjector, fault_stats, revocation_storm
from repro.fs.scavenger import RepairDaemon
from repro.metrics import fmt_pct, render_table
from repro.units import GB, MB

SMOKE = os.environ.get("FAULT_SMOKE") == "1"
KEY = "fault-recovery-smoke" if SMOKE else "fault-recovery"

SEED = 1913            # deterministic: storm picks, jitter, placement
N_VICTIM = 8
N_FILES = 6 if SMOKE else 18
FILE_SIZE = 4 * MB
STORM_FRACTION = 0.5   # 4 of 8 victims — 2x the >=25% acceptance floor


def _config() -> DeploymentConfig:
    return DeploymentConfig(n_own=2, n_victim=N_VICTIM, alpha=0.25,
                            victim_memory=2 * GB,
                            own_store_capacity=8 * GB,
                            stripe_size=1 * MB, replication=2,
                            seed=SEED, io_retries=4)


def _payload(i: int) -> bytes:
    return (b"%08d" % i) * (FILE_SIZE // 8)


def _run_once(storm_at: float | None) -> dict:
    """One full write+read workload; optionally hit by the storm."""
    fault_stats.reset()
    dep = MemFSSDeployment(_config())
    env, fs, agent = dep.env, dep.fs, dep.own[0]
    injector = None
    if storm_at is not None:
        injector = FaultInjector(
            env, revocation_storm(at=storm_at, fraction=STORM_FRACTION),
            manager=dep.manager, reservations=dep.cluster.reservations,
            rng=dep.rng)
        injector.start()
    blobs = {f"/bench/f{i}": _payload(i) for i in range(N_FILES)}

    def driver():
        t0 = env.now
        for path, blob in blobs.items():
            yield from fs.write_file(agent, path, payload=blob)
        t_write = env.now - t0
        losses = 0
        for path, blob in blobs.items():
            _n, back = yield from fs.read_file(agent, path)
            losses += back != blob
        return t_write, env.now - t0, losses

    proc = env.process(driver())
    t_write, runtime, losses = env.run(until=proc)
    env.run()  # drain in-flight evacuations

    # One repair sweep proves full redundancy is back (deficits == 0).
    daemon = RepairDaemon(env, fs, manager=dep.manager)
    sweep = env.process(daemon.sweep())
    env.run(until=sweep)

    out = {
        "write_s": t_write,
        "runtime_s": runtime,
        "data_losses": losses,
        "redundancy_deficits": daemon.deficits,
        "counters": fault_stats.snapshot(),
        "servers": sorted(fs.servers),
    }
    if injector is not None:
        out["injected"] = [[t, kind, list(names)]
                           for t, kind, names in injector.log]
        out["victims_revoked"] = sum(
            len(names) for _t, kind, names in injector.log
            if kind == "revoke_storm")
    return out


def run_fault_recovery() -> dict:
    t0 = time.time()
    clean = _run_once(None)
    # Fire the storm halfway through the (known-deterministic) write
    # phase so evacuations race both writers and readers.
    storm_at = 0.5 * clean["write_s"]
    storm = _run_once(storm_at)
    rerun = _run_once(storm_at)
    data = {
        "config": {"n_own": 2, "n_victim": N_VICTIM, "alpha": 0.25,
                   "replication": 2, "n_files": N_FILES,
                   "file_mb": FILE_SIZE / MB,
                   "storm_fraction": STORM_FRACTION,
                   "storm_at_s": storm_at, "seed": SEED, "smoke": SMOKE},
        "clean": {k: clean[k] for k in
                  ("write_s", "runtime_s", "data_losses",
                   "redundancy_deficits")},
        "storm": storm,
        "inflation_pct": (storm["runtime_s"] / clean["runtime_s"] - 1.0)
        * 100.0,
        "mttr_s": storm["counters"]["mttr_s"],
        "reproducible": storm == rerun,
        "wall_seconds": time.time() - t0,
    }
    write_result(KEY, data)
    return data


def test_fault_recovery(benchmark):
    data = benchmark.pedantic(run_fault_recovery, rounds=1, iterations=1)
    clean, storm = data["clean"], data["storm"]
    print()
    print(render_table(
        ["run", "runtime (s)", "losses", "deficits", "revoked"],
        [["clean", f"{clean['runtime_s']:.3f}", clean["data_losses"],
          clean["redundancy_deficits"], 0],
         ["storm", f"{storm['runtime_s']:.3f}", storm["data_losses"],
          storm["redundancy_deficits"], storm["victims_revoked"]]],
        title="Fault recovery under a revocation storm "
              f"(inflation {fmt_pct(data['inflation_pct'])}, "
              f"MTTR {data['mttr_s']:.3f}s)"))
    counters = {k: v for k, v in storm["counters"].items() if v}
    print(render_table(["counter", "value"], sorted(counters.items()),
                       title="storm-run fault counters"))

    # Zero data loss and full redundancy, in both runs.
    assert clean["data_losses"] == 0 and storm["data_losses"] == 0
    assert clean["redundancy_deficits"] == 0
    assert storm["redundancy_deficits"] == 0
    # The storm really revoked >= 25% of the victims, mid-workload.
    assert storm["victims_revoked"] >= 0.25 * data["config"]["n_victim"]
    assert 0.0 < data["config"]["storm_at_s"] < storm["write_s"] * 2
    # Recovery work happened, showed up in the counters, and cost time.
    assert storm["counters"]["revocations"] == storm["victims_revoked"]
    assert storm["counters"]["evacuations"] == storm["victims_revoked"]
    assert storm["counters"]["recoveries"] >= storm["victims_revoked"]
    assert storm["counters"]["open_faults"] == 0
    assert data["mttr_s"] > 0.0
    assert data["inflation_pct"] > 0.0
    # Same seed, same storm: the whole run is bit-reproducible.
    assert data["reproducible"] is True
