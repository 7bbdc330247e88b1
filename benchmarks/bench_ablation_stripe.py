"""Ablation — stripe size (paper §III-C).

Striping exists "such that we achieve load balance within nodes in the
same class".  Small stripes balance better but cost more requests (and
more victim-side disturbance); large stripes amortize request overhead but
skew per-node load for small files.  Sweep the stripe size under the dd
bag and report runtime, victim load balance, and request rate.
"""

import statistics

import pytest

from repro.core import DeploymentConfig, MemFSSDeployment, PlacementPolicy
from repro.metrics import render_table
from repro.units import GB, MB
from repro.workflows import dd_bag

from _harness import write_result

STRIPES = (8 * MB, 32 * MB, 128 * MB)


def run_sweep():
    rows = []
    for stripe in STRIPES:
        cfg = DeploymentConfig(policy=PlacementPolicy.own_victim(0.25),
                               stripe_size=int(stripe))
        dep = MemFSSDeployment(cfg)
        result = dep.engine.execute(dd_bag(n_tasks=192, file_size=128 * MB))
        victim_bytes = [dep.fs.servers[v.name].kv.bytes_in
                        for v in dep.victims]
        mean_b = statistics.mean(victim_bytes)
        cv = statistics.pstdev(victim_bytes) / mean_b if mean_b else 0.0
        requests = sum(dep.fs.servers[v.name].requests_served
                       for v in dep.victims)
        rows.append({
            "stripe_mb": stripe / MB,
            "runtime_s": result.makespan,
            "victim_cv": cv,
            "victim_requests": requests,
        })
    data = {"rows": rows}
    write_result("ablation-stripe", data)
    return data


def test_ablation_stripe_size(benchmark):
    data = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = data["rows"]
    print()
    print(render_table(
        ["stripe", "runtime", "victim byte-balance CV", "victim requests"],
        [[f"{r['stripe_mb']:.0f} MB", f"{r['runtime_s']:.2f} s",
          f"{r['victim_cv']:.3f}", f"{r['victim_requests']:.0f}"]
         for r in rows],
        title="Stripe-size ablation (dd bag, alpha = 25%)"))

    # Smaller stripes -> more requests, better balance.
    reqs = [r["victim_requests"] for r in rows]
    assert reqs[0] > reqs[1] > reqs[2]
    cvs = [r["victim_cv"] for r in rows]
    assert cvs[0] <= cvs[2] + 0.05
    # Runtime stays in the same ballpark (throughput is FUSE-bound).
    rts = [r["runtime_s"] for r in rows]
    assert max(rts) / min(rts) < 1.5
