"""Capacity-aware write path under pressure: the chain spill engages.

Every stripe put consults a ledger of store free space
(`repro.fs.capacity`) and spills down the stripe's HRW chain when a
target cannot admit it.  This bench runs a deliberately *pressured*
Fig. 2-shaped dd bag — victim stores too small for their share — and
records the spill counters: writes must spill (``spilled_writes > 0``)
and none may exhaust its chain (``exhausted_writes == 0``).  The
unpressured path needs no bench of its own: the Fig. 2 golden pins its
trajectory and the plan oracle test in ``tests/fs/test_pressure_spill.py``
pins every stripe to its top HRW ranks.  Results land in
``results/pressure-spill.json``.
"""

from __future__ import annotations

from _harness import write_result
from repro.core import DeploymentConfig
from repro.core.experiment import baseline_run
from repro.fs import pressure_stats
from repro.metrics import render_table
from repro.units import GB, MB

N_TASKS = 32
FILE_SIZE = 32 * MB


def run_bench() -> dict:
    """Victim stores too small for their share: the writes must spill."""
    pressure_stats.reset()
    m = baseline_run(alpha=0.10, n_tasks=N_TASKS, file_size=FILE_SIZE,
                     config=DeploymentConfig(
                         n_own=4, n_victim=8, victim_memory=48 * MB,
                         own_store_capacity=8 * GB, stripe_size=8 * MB))
    data = {
        "params": {"n_tasks": N_TASKS, "file_size": FILE_SIZE},
        "runtime_s": m.runtime_s,
        "pressured_counters": pressure_stats.snapshot(),
    }
    write_result("pressure-spill", data)
    return data


def test_pressure_spill(benchmark):
    data = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    counters = data["pressured_counters"]

    print()
    print(render_table(
        ("counter", "value"),
        [(name, f"{counters[name]:g}") for name in (
            "writes_checked", "spilled_writes", "spill_distance",
            "reactive_spills", "exhausted_writes", "replica_shortfall")],
        title="pressured dd bag (48 MB victim stores)"))

    assert counters["spilled_writes"] > 0
    assert counters["exhausted_writes"] == 0


if __name__ == "__main__":
    out = run_bench()
    print(f"pressured spills={out['pressured_counters']['spilled_writes']}")
