"""Ablation — fault-tolerance redundancy (paper §III-E).

The paper's replication piggybacks on HRW's runner-up nodes; it also
argues full in-memory replication "could be a prohibitive strategy" and
points at erasure coding.  Quantify the trade: storage footprint, write
runtime, and loss tolerance for r ∈ {1, 2} replication vs. a (4, 1) XOR
parity code.
"""

import pytest

from repro.core import DeploymentConfig, MemFSSDeployment
from repro.fs import PlacementMap, storage_overhead, stripe_key
from repro.metrics import render_table
from repro.units import MB
from repro.workflows import dd_bag

from _harness import write_result

VARIANTS = (
    ("r=1", dict(replication=1)),
    ("r=2", dict(replication=2)),
    ("erasure 4+1", dict(erasure=(4, 1))),
)


def run_variants():
    rows = []
    for label, kw in VARIANTS:
        cfg = DeploymentConfig(alpha=0.25, stripe_size=16 * MB, **kw)
        dep = MemFSSDeployment(cfg)
        payload_bytes = 96 * 64 * MB
        result = dep.engine.execute(
            dd_bag(n_tasks=96, file_size=64 * MB))
        stored = dep.fs.used_bytes()
        rows.append({
            "variant": label,
            "runtime_s": result.makespan,
            "stored_over_payload": stored / payload_bytes,
        })
    data = {"rows": rows}
    write_result("ablation-redundancy", data)
    return data


def test_ablation_redundancy_cost(benchmark):
    data = benchmark.pedantic(run_variants, rounds=1, iterations=1)
    rows = {r["variant"]: r for r in data["rows"]}
    print()
    print(render_table(
        ["variant", "write runtime", "stored bytes / payload"],
        [[v, f"{r['runtime_s']:.2f} s", f"{r['stored_over_payload']:.2f}x"]
         for v, r in rows.items()],
        title="Redundancy ablation (96 x 64 MB writes)"))

    # Replication doubles the footprint; the (4,1) code costs ~25 %.
    assert rows["r=1"]["stored_over_payload"] == pytest.approx(1.0, rel=0.02)
    assert rows["r=2"]["stored_over_payload"] == pytest.approx(2.0, rel=0.02)
    assert rows["erasure 4+1"]["stored_over_payload"] == pytest.approx(
        1.0 + storage_overhead(4, 1), rel=0.05)
    # Writes get slower with redundancy, and erasure is cheaper than r=2.
    assert rows["r=2"]["runtime_s"] > rows["r=1"]["runtime_s"]
    assert rows["erasure 4+1"]["runtime_s"] < rows["r=2"]["runtime_s"]


def test_ablation_redundancy_loss_tolerance(benchmark):
    """Both r=2 and 4+1 erasure survive a single stripe-holder loss."""
    def run():
        out = {}
        for label, kw in (("r=2", dict(replication=2)),
                          ("erasure 4+1", dict(erasure=(4, 1)))):
            cfg = DeploymentConfig(n_own=2, n_victim=4, alpha=0.5,
                                   victim_memory=2 * 1024 * MB,
                                   own_store_capacity=8 * 1024 * MB,
                                   stripe_size=4 * MB, **kw)
            dep = MemFSSDeployment(cfg)
            env, fs = dep.env, dep.fs

            def flow():
                yield from fs.write_file(dep.own[0], "/f",
                                         nbytes=32 * MB)
                meta = yield from fs.stat(dep.own[0], "/f")
                policy = PlacementMap.from_meta(meta)
                key = stripe_key(meta.inode, 0)
                fs.servers[policy.place(key)].kv.delete(key)
                size, _ = yield from fs.read_file(dep.own[0], "/f")
                return size

            proc = env.process(flow())
            out[label] = env.run(until=proc)
        return out

    sizes = benchmark.pedantic(run, rounds=1, iterations=1)
    assert sizes["r=2"] == 32 * MB
    assert sizes["erasure 4+1"] == 32 * MB
