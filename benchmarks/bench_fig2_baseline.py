"""Fig. 2 — scavenging overhead baseline (paper §IV-B).

8 own + 32 victim nodes; a bag of dd tasks × 128 MB; α ∈ {0, 25, 50, 75,
100} % of the data on own nodes.  Reduced scale: 256 tasks per bag (the
bag is FUSE-bandwidth-bound, so per-node load rates — the quantities
Figs. 2a-2e plot — are identical to the 2048-task original; only the run
is shorter).

Shape checks (paper §IV-B):
- victim CPU load never above 5 %;
- victim NIC ingest never above ~500 MB/s (16 % of the 3 GB/s IPoIB rate);
- both fall as α rises (Figs. 2a-2e);
- runtime: α = 100 % is the slowest case, α = 25 % among the fastest
  (Fig. 2f's load-balance argument).
"""

import pytest

from repro.core import FIG2_ALPHAS, baseline_sweep
from repro.exec import ResultStore
from repro.metrics import render_table
from repro.units import GB, MB

from _harness import write_result

N_TASKS = 256
FILE_SIZE = 128 * MB


def run_sweep():
    metrics = baseline_sweep(n_tasks=N_TASKS, file_size=FILE_SIZE,
                             cache=ResultStore())
    data = {
        "alphas": list(FIG2_ALPHAS),
        "rows": [{
            "alpha": m.alpha,
            "runtime_s": m.runtime_s,
            "own_cpu": m.own_cpu,
            "own_tx": m.own_tx,
            "own_rx": m.own_rx,
            "victim_cpu": m.victim_cpu,
            "victim_rx": m.victim_rx,
            "victim_rx_bytes_s": m.victim_rx_bytes_s,
        } for m in metrics],
    }
    write_result("fig2-baseline", data)
    return data


def test_fig2_baseline(benchmark):
    data = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = data["rows"]

    table = []
    for r in rows:
        ipoib_pct = r["victim_rx_bytes_s"] / (3 * GB) * 100
        table.append([
            f"{r['alpha'] * 100:.0f}%",
            f"{r['runtime_s']:.2f}",
            f"{r['own_cpu'] * 100:.1f}%",
            f"{r['own_tx'] * 100:.1f}%",
            f"{r['victim_cpu'] * 100:.2f}%",
            f"{r['victim_rx_bytes_s'] / MB:.0f} MB/s",
            f"{ipoib_pct:.1f}%",
        ])
    print()
    print(render_table(
        ["alpha (own)", "runtime", "own CPU", "own tx", "victim CPU",
         "victim ingest", "% of IPoIB"],
        table, title="Fig. 2: dd-bag baseline, 8 own + 32 victim nodes"))

    by_alpha = {r["alpha"]: r for r in rows}
    # Victim CPU bound (paper: never above 5 %).
    for r in rows:
        assert r["victim_cpu"] < 0.05, f"victim CPU too high at {r['alpha']}"
    # Victim NIC ingest bound (paper: < 500 MB/s = 16 % of IPoIB).
    for r in rows:
        assert r["victim_rx_bytes_s"] < 560 * MB
    # Monotone: more data on own nodes -> less victim load (Figs. 2a-2e).
    loads = [by_alpha[a]["victim_rx_bytes_s"] for a in data["alphas"]]
    assert all(a >= b - 1e-6 for a, b in zip(loads, loads[1:]))
    assert by_alpha[1.0]["victim_rx_bytes_s"] == pytest.approx(0.0)
    # Fig. 2f: 100 % (receiver-bound own class) is the slowest scenario;
    # 25 % is within a whisker of the fastest.
    runtimes = {a: by_alpha[a]["runtime_s"] for a in data["alphas"]}
    assert runtimes[1.0] == max(runtimes.values())
    assert runtimes[0.25] <= min(runtimes.values()) * 1.05
