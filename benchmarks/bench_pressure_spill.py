"""Capacity-guard overhead: the write path must be free when unpressured.

The capacity-aware write path (`repro.fs.capacity`) consults a ledger of
store free space before every stripe put.  When no store is under
pressure that check must be invisible twice over:

* **byte-identical** — the guarded run issues the exact same put
  sequence as ``capacity_guard=False`` (runtime, NIC series and monitor
  outputs all match bit for bit; the fig2 golden test pins the same
  property at the trajectory level), and
* **cheap** — < 5 % wall-clock overhead on the Fig. 2-shaped dd bag,
  the repo's hottest write path (the shape tracked in
  ``BENCH_perf.json``).

A third, deliberately *pressured* scenario (tiny victim stores) records
the spill counters, showing the guard actually engages when space runs
out.  Results land in ``results/pressure-spill.json``.
"""

from __future__ import annotations

import time

from _harness import write_result
from repro.core import DeploymentConfig
from repro.core.experiment import baseline_run
from repro.fs import pressure_stats
from repro.metrics import render_table
from repro.units import GB, MB

N_TASKS = 48
FILE_SIZE = 32 * MB
ROUNDS = 3
OVERHEAD_BUDGET_PCT = 5.0


def _signature(m) -> dict:
    times, values = m.series["victim.rx"]
    return {
        "runtime_s": m.runtime_s,
        "own_cpu": m.own_cpu, "own_tx": m.own_tx, "own_rx": m.own_rx,
        "victim_rx": m.victim_rx,
        "victim_rx_bytes_s": m.victim_rx_bytes_s,
        "victim_rx_series": [list(map(float, times)),
                             list(map(float, values))],
    }


def _one_run(guard: bool):
    return baseline_run(alpha=0.25, n_tasks=N_TASKS, file_size=FILE_SIZE,
                        config=DeploymentConfig(capacity_guard=guard),
                        keep_series=True)


def _timed_pair() -> tuple[dict, dict, float, float]:
    """Best-of-ROUNDS wall time per mode, rounds interleaved.

    One discarded warm-up run per mode first, so process-wide caches
    (interned policies, stripe plans, allocator warm-up) don't bill
    whichever mode happens to run first.
    """
    _one_run(True)
    _one_run(False)
    best = {True: float("inf"), False: float("inf")}
    sigs = {}
    for _ in range(ROUNDS):
        for guard in (True, False):
            t0 = time.perf_counter()
            m = _one_run(guard)
            best[guard] = min(best[guard], time.perf_counter() - t0)
            sigs[guard] = _signature(m)
    return sigs[True], sigs[False], best[True], best[False]


def _pressured_counters() -> dict:
    """Victim stores too small for their share: the guard must spill."""
    pressure_stats.reset()
    baseline_run(alpha=0.10, n_tasks=32, file_size=32 * MB,
                 config=DeploymentConfig(
                     n_own=4, n_victim=8, victim_memory=48 * MB,
                     own_store_capacity=8 * GB, stripe_size=8 * MB))
    return pressure_stats.snapshot()


def run_bench() -> dict:
    guarded_sig, bare_sig, guarded_wall, bare_wall = _timed_pair()
    overhead_pct = (guarded_wall / bare_wall - 1.0) * 100.0
    pressured = _pressured_counters()
    data = {
        "params": {"n_tasks": N_TASKS, "file_size": FILE_SIZE,
                   "rounds": ROUNDS},
        "byte_identical": guarded_sig == bare_sig,
        "guarded_wall_s": guarded_wall,
        "bare_wall_s": bare_wall,
        "overhead_pct": overhead_pct,
        "signature": guarded_sig,
        "pressured_counters": pressured,
    }
    write_result("pressure-spill", data)
    return data


def test_pressure_spill_overhead(benchmark):
    data = benchmark.pedantic(run_bench, rounds=1, iterations=1)

    print()
    print(render_table(
        ("path", "wall (s)"),
        [("capacity_guard=True", f"{data['guarded_wall_s']:.3f}"),
         ("capacity_guard=False", f"{data['bare_wall_s']:.3f}"),
         ("overhead", f"{data['overhead_pct']:+.2f}%")],
        title="fig2-shaped dd bag, unpressured"))

    assert data["byte_identical"], \
        "capacity guard perturbed the unpressured put sequence"
    assert data["overhead_pct"] < OVERHEAD_BUDGET_PCT
    # The same guard must actually engage under pressure.
    assert data["pressured_counters"]["spilled_writes"] > 0
    assert data["pressured_counters"]["exhausted_writes"] == 0


if __name__ == "__main__":
    out = run_bench()
    print(f"overhead {out['overhead_pct']:+.2f}% "
          f"(identical={out['byte_identical']}); "
          f"pressured spills={out['pressured_counters']['spilled_writes']}")
