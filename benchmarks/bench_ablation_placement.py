"""Ablation — placement-resolution throughput (batch planner vs. scalar).

The write/read/unlink data paths used to resolve every stripe with a
scalar two-layer HRW call: one FNV digest plus a Python loop over classes
and nodes per stripe.  The batch-first :class:`repro.fs.StripePlan`
resolves all stripes of a file in one vectorized pass, and interned
policies memoize whole plans across calls.  This bench measures
stripes-resolved/second at the Fig. 2 scale (a 2048-stripe file — the dd
bag's 2048 × 128 MB corpus resolved per file) for:

- ``scalar``      — the per-stripe loop (``policy.ranked(key, k=1)``),
- ``plan_cold``   — a fresh vectorized plan with digests computed per key
                    in Python (worst case: arbitrary keys, no digest array),
- ``plan``        — the ``plan_file`` miss path the write path actually
                    takes: a fresh plan over the memoized stripe-digest
                    array,
- ``plan_cached`` — a ``plan_file`` cache hit (the steady-state read path).

The committed ``results/ablation-placement.json`` records the speedups;
the acceptance bar is plan ≥ 10× scalar.  Placement *outcomes* are
asserted identical, so the speed is free: same seeds → same placements →
bit-identical figure outputs.
"""

import time

import numpy as np

from repro.fs import ClassSpec, PlacementMap, stripe_digest_array
from repro.fs.placement import clear_placement_caches
from repro.fs.striping import stripe_key
from repro.hashing import own_victim_weights
from repro.metrics import render_table

from _harness import write_result

N_STRIPES = 2048        # the Fig. 2 dd-bag size
INODE = 1
ALPHA = 0.25
OWN = tuple(f"own{i}" for i in range(8))
VICTIMS = tuple(f"vic{i}" for i in range(32))


def build_policy() -> PlacementMap:
    w = own_victim_weights(ALPHA)
    return PlacementMap({
        "own": ClassSpec(w["own"], OWN),
        "victim": ClassSpec(w["victim"], VICTIMS),
    })


def _best_of(fn, reps: int = 5) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_measurement() -> dict:
    clear_placement_caches()
    policy = build_policy()
    keys = [stripe_key(INODE, i) for i in range(N_STRIPES)]

    def scalar():
        return [policy.ranked(key, k=1)[0] for key in keys]

    def plan_cold():
        return list(policy.plan(keys).primaries)

    digests = np.asarray(stripe_digest_array(INODE, N_STRIPES))

    def plan_fresh():
        return list(policy.plan(keys, digests).primaries)

    warm = policy.plan_file(INODE, N_STRIPES)

    def plan_cached():
        return list(policy.plan_file(INODE, N_STRIPES).primaries)

    timings = {}
    results = {}
    for name, fn in (("scalar", scalar), ("plan_cold", plan_cold),
                     ("plan", plan_fresh),
                     ("plan_cached", plan_cached)):
        seconds, out = _best_of(fn)
        timings[name] = seconds
        results[name] = out
    # Placement equivalence is part of the measurement contract.
    assert all(results[n] == results["scalar"] for n in results), \
        "batch planner disagrees with scalar placement"
    assert list(warm.primaries) == results["scalar"]

    data = {
        "n_stripes": N_STRIPES,
        "alpha": ALPHA,
        "nodes": {"own": len(OWN), "victim": len(VICTIMS)},
        "seconds": timings,
        "stripes_per_second": {n: N_STRIPES / s
                               for n, s in timings.items()},
        "speedup_vs_scalar": {n: timings["scalar"] / s
                              for n, s in timings.items()},
    }
    write_result("ablation-placement", data)
    return data


def test_ablation_placement_throughput():
    data = run_measurement()
    rows = [[name, f"{data['seconds'][name] * 1e3:.2f} ms",
             f"{data['stripes_per_second'][name]:,.0f}",
             f"{data['speedup_vs_scalar'][name]:.1f}x"]
            for name in data["seconds"]]
    print()
    print(render_table(
        ["path", "2048-stripe resolve", "stripes/s", "vs scalar"], rows,
        title="Placement ablation: batch planner vs scalar loop"))
    # The acceptance bar: the planner path a write takes (plan_file miss)
    # resolves a 2048-stripe file >= 10x faster than the seed scalar loop.
    assert data["speedup_vs_scalar"]["plan"] >= 10.0
    assert data["speedup_vs_scalar"]["plan_cold"] >= 3.0
    assert data["speedup_vs_scalar"]["plan_cached"] >= \
        data["speedup_vs_scalar"]["plan"]


def test_ablation_placement_outcomes_identical():
    """Fresh (non-cached) check that batch == scalar at bench scale."""
    policy = build_policy()
    keys = [stripe_key(7, i) for i in range(N_STRIPES)]
    plan = policy.plan(keys)
    scalar = [policy.place(k) for k in keys]
    assert list(plan.primaries) == scalar
