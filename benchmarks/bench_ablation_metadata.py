"""Ablation — metadata placement (paper §III-D).

MemFSS keeps metadata on *own* nodes only, because "we believe the own
nodes less likely to fail or run out of memory since we control all
applications running on them".  Quantify that: spread metadata across all
nodes instead, evict one victim, and count the files whose metadata — and
therefore the files themselves — become unreachable.  With own-only
placement, eviction migrates the stripes and loses nothing.
"""

import pytest

from repro.core import DeploymentConfig, MemFSSDeployment, PlacementPolicy
from repro.fs import FileNotFound
from repro.hashing import ModuloPlacer
from repro.metrics import render_table
from repro.units import GB, MB


def run_variant(spread_metadata: bool) -> dict:
    cfg = DeploymentConfig(n_own=2, n_victim=6,
                           policy=PlacementPolicy.own_victim(0.25),
                           victim_memory=4 * GB,
                           own_store_capacity=16 * GB,
                           stripe_size=8 * MB)
    dep = MemFSSDeployment(cfg)
    env, fs = dep.env, dep.fs
    if spread_metadata:
        fs.meta_placer = ModuloPlacer(
            [n.name for n in dep.own + dep.victims])

    n_files = 48

    def write_all():
        for i in range(n_files):
            yield from fs.write_file(dep.own[0], f"/d{i}", nbytes=16 * MB)

    proc = env.process(write_all())
    env.run(until=proc)

    # Evict one victim through its lease; the watcher evacuates stripes.
    victim = dep.victims[0]
    dep.cluster.reservations.revoke_leases(victim, cause="pressure")
    env.run()

    def count_readable():
        ok = 0
        for i in range(n_files):
            try:
                yield from fs.read_file(dep.own[0], f"/d{i}")
                ok += 1
            except FileNotFound:
                continue
        return ok

    proc = env.process(count_readable())
    readable = env.run(until=proc)
    return {"n_files": n_files, "readable": readable,
            "evictions": dep.manager.evictions}


def test_ablation_metadata_placement(benchmark):
    def run_both():
        return {"own-only": run_variant(False),
                "spread": run_variant(True)}

    res = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = [[k, str(v["n_files"]), str(v["readable"]),
             str(v["n_files"] - v["readable"])]
            for k, v in res.items()]
    print()
    print(render_table(["metadata placement", "files", "readable after "
                        "eviction", "lost"], rows,
                       title="Metadata-placement ablation"))

    # Own-only metadata: eviction loses nothing (stripes are migrated).
    assert res["own-only"]["readable"] == res["own-only"]["n_files"]
    # Metadata spread onto victims: a victim eviction loses the files
    # whose metadata lived there (~1/8 of them here).
    assert res["spread"]["readable"] < res["spread"]["n_files"]
