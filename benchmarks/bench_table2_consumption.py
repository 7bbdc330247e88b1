"""Table II — resource-consumption reduction (paper §IV-D).

A large Montage instance whose no-GC data footprint just fits 20 DAS-5
nodes, run (a) standalone on 20 nodes (and shown to be *unable to run* on
fewer), and (b) with MemFSS scavenging from n ∈ {4, 8, 16} own nodes plus
40 − n victims.

Scale: Montage runs at width 256 with ``parallel_task_scale = 8`` so the
total parallel compute — and hence the Table II runtime curve, which is
tail + parallel/(n × slots) — is preserved while the data volume (and the
store capacities, scaled by the same 1/8) shrinks to a tractable event
count.  Victim offers are 28 GB/8 per node: the paper does not state the
victim capacity for this experiment, and ≈ 28 GB is what makes 4 own + 36
victims hold the 1 TB footprint (documented in EXPERIMENTS.md).

Shape checks:
- the footprint fits 20 standalone nodes but not 19;
- scavenging runtimes exceed the standalone runtime by ~4-35 %;
- node-hours drop by ~17-74 %, monotonically with fewer own nodes.
"""

from repro.exec import (ResultStore, consumption_scavenging_spec,
                        consumption_standalone_spec, run_consumption_points)
from repro.metrics import render_table
from repro.units import GB, MB
from repro.workflows import MONTAGE_PAPER_WIDTH

from _harness import write_result

SCALE = 8  # width 2048 -> 256; capacities shrink by the same factor
WIDTH = MONTAGE_PAPER_WIDTH // SCALE
OWN_CAPACITY = 60 * GB / SCALE   # 64 GB node minus the OS footprint
VICTIM_MEMORY = 28 * GB / SCALE
# Fine stripes keep per-node load imbalance low enough to pack the stores
# to ~90% (the real system striped at single-digit MB for the same reason).
STRIPE = 8 * MB


#: Keyword arguments of the paper's Montage instance (scenario specs
#: name the workflow builder instead of carrying a callable).
PAPER_MONTAGE = {"width": WIDTH, "parallel_task_scale": float(SCALE)}


def run_consumption():
    specs = [consumption_standalone_spec(
        "montage", PAPER_MONTAGE, n_nodes=n, store_capacity=OWN_CAPACITY,
        stripe_size=STRIPE) for n in (20, 19)]
    specs += [consumption_scavenging_spec(
        "montage", PAPER_MONTAGE, n_own=n, n_victim=40 - n,
        victim_memory=VICTIM_MEMORY, own_store_capacity=OWN_CAPACITY,
        stripe_size=STRIPE) for n in (4, 8, 16)]
    points = run_consumption_points(specs, cache=ResultStore())
    data = {"points": [{
        "label": p.label, "n_nodes": p.n_nodes, "fits": p.fits,
        "runtime_s": p.runtime_s, "node_hours": p.node_hours,
    } for p in points]}
    write_result("table2-consumption", data)
    return data


# The paper's Table II, for side-by-side printing.
PAPER_ROWS = {
    "standalone-20": (4521.0, 25.11),
    "scavenging-4": (5932.0, 6.59),
    "scavenging-8": (5213.0, 11.58),
    "scavenging-16": (4711.0, 20.93),
}


def test_table2_consumption(benchmark):
    data = benchmark.pedantic(run_consumption, rounds=1, iterations=1)
    points = {p["label"]: p for p in data["points"]}

    rows = []
    for label, p in points.items():
        if not p["fits"]:
            rows.append([label, str(p["n_nodes"]), "unable to run", "-",
                         "-", "-"])
            continue
        paper = PAPER_ROWS.get(label, (None, None))
        rows.append([
            label, str(p["n_nodes"]),
            f"{p['runtime_s']:.0f} s", f"{p['node_hours']:.2f}",
            f"{paper[0]:.0f} s" if paper[0] else "-",
            f"{paper[1]:.2f}" if paper[1] else "-",
        ])
    print()
    print(render_table(
        ["run", "own nodes", "runtime", "node-hours",
         "paper runtime", "paper node-hours"], rows,
        title="Table II: Montage resource consumption (scaled 1/8 data)"))

    # 20 nodes fit, 19 do not (the paper's 'Unable to run' row).
    assert points["standalone-20"]["fits"]
    assert not points["standalone-19"]["fits"]

    base = points["standalone-20"]
    for n in (4, 8, 16):
        p = points[f"scavenging-{n}"]
        assert p["fits"]
        ratio = p["runtime_s"] / base["runtime_s"]
        # Paper: +4 % to +31 % runtime; allow up to +45 % at this scale.
        # (At reduced width the parallel stages quantize into whole task
        # waves, so the 16-own point can land a hair *under* standalone.)
        assert 0.98 <= ratio < 1.45, (n, ratio)
        savings = 1.0 - p["node_hours"] / base["node_hours"]
        assert savings > 0.10, (n, savings)
    # Fewer own nodes -> longer runtime but bigger savings (both monotone).
    r4, r8, r16 = (points[f"scavenging-{n}"]["runtime_s"] for n in (4, 8, 16))
    h4, h8, h16 = (points[f"scavenging-{n}"]["node_hours"]
                   for n in (4, 8, 16))
    assert r4 > r8 >= r16 * 0.999
    assert h4 < h8 < h16 < base["node_hours"]
    # The headline: 17-74 % node-hour reduction band.
    assert 1.0 - h4 / base["node_hours"] > 0.60
    assert 1.0 - h16 / base["node_hours"] > 0.10
