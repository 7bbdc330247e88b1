"""Tracked sweep-service bench: stealing vs static shards, store, planner.

Exercises the three legs of the sweep service in one measured run and
publishes the v2 ``BENCH_sweep.json`` trajectory:

* **Straggler-skewed sweep.**  A fig2 sweep whose round-robin static
  partition colocates the two big cells on one worker — the shape where
  a static slice wastes every fast worker's idle tail.  The sweep runs
  serial (cold store fill), statically sharded, work-stealing, and
  warm from the store; all four must be byte-identical.  Answering
  warm must beat the serial cold fill by ≥ 2.5× at any scale; the
  stealing-beats-static makespan gate (≥ 1.2×) arms only on full runs
  with ≥ 4 usable cores — starved runners record the number instead.
* **Injected crash.**  A stealing run over slowdown-suite cells plus a
  ``debug-flaky`` spec whose first attempt hard-kills its worker: the
  task must be requeued and retried, and the surviving payloads must
  still match a serial run byte-for-byte.
* **Warm-store planner** (full runs).  ``plan_capacity`` answers a job
  mix cold, then again over the warm store with **zero** simulations.
* **Eviction.**  The filled store is reopened under half its byte
  budget; the next put must evict down to the budget, and GC must find
  nothing left to collect.

Every run measures afresh — results are never replayed.  They land in
``results/sweep-service.json`` (or ``-smoke``), with the scheduler
timeline and store shape split into companion artifacts for CI upload;
full runs also write ``BENCH_sweep.json`` (version 2) at the repo root —
the service trajectory later changes regress against.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time
from pathlib import Path

from _harness import write_result
from repro.core.deployment import DeploymentConfig
from repro.exec import (ResultStore, ScenarioSpec, SweepRunner, exec_stats,
                        fig2_spec, plan_capacity, slowdown_suite_spec)
from repro.metrics import render_table
from repro.units import MB

SMOKE = os.environ.get("SWEEP_SMOKE") == "1"
KEY = "sweep-service-smoke" if SMOKE else "sweep-service"
ROOT = Path(__file__).resolve().parent.parent

JOBS = 2 if SMOKE else 4
#: The stealing-vs-static makespan gate (full runs, ≥ 4 cores only).
STEAL_GATE = 1.2
#: Warm store vs. serial cold fill, gated at every scale.
WARM_GATE = 2.5

# Cell sizes: "small" cells are quick fills, "big" cells the stragglers
# (~50× a small cell at full scale).  The big cells sit at spec indices
# ≡ JOBS-1 (mod JOBS), so a round-robin static partition hands both to
# the same worker while its siblings idle — the worst case stealing is
# built to erase.
SMALL = dict(n_tasks=64, file_size=16 * MB) if SMOKE else \
    dict(n_tasks=256, file_size=64 * MB)
BIG = dict(n_tasks=256, file_size=32 * MB) if SMOKE else \
    dict(n_tasks=2048, file_size=128 * MB)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def straggler_specs() -> list:
    """2×JOBS fig2 cells, big ones colocated under round-robin."""
    alphas = [i / (2 * JOBS - 1) for i in range(2 * JOBS)]
    return [fig2_spec(round(a, 4),
                      **(BIG if i % JOBS == JOBS - 1 else SMALL))
            for i, a in enumerate(alphas)]


def _canon(payloads) -> str:
    return json.dumps(list(payloads), sort_keys=True)


def _static_worker(assigned, conn):  # pragma: no cover - child process
    """One static shard: run a fixed slice serially, ship results back."""
    from repro.exec.runner import _execute_timed
    out = []
    for idx, spec in assigned:
        payload, wall = _execute_timed(spec)
        out.append((idx, payload, wall))
    conn.send(out)
    conn.close()


def run_static_shards(specs: list, jobs: int) -> tuple[list, float]:
    """Round-robin static partition over *jobs* spawn workers — the
    comparator the scheduler's work stealing replaces.  Returns payloads
    in spec order and the makespan (spawn included, as for stealing)."""
    ctx = multiprocessing.get_context("spawn")
    t0 = time.perf_counter()
    procs, readers = [], []
    for k in range(jobs):
        assigned = [(i, specs[i]) for i in range(len(specs))
                    if i % jobs == k]
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_static_worker, args=(assigned, writer))
        proc.start()
        writer.close()
        procs.append(proc)
        readers.append(reader)
    done: dict[int, dict] = {}
    for reader in readers:
        for idx, payload, _wall in reader.recv():
            done[idx] = payload
    for proc in procs:
        proc.join()
    wall = time.perf_counter() - t0
    return [done[i] for i in range(len(specs))], wall


def run_crash_phase() -> dict:
    """Stealing over slowdown-suite cells + one injected worker crash."""
    cfg = DeploymentConfig(n_own=2, n_victim=4)
    with tempfile.TemporaryDirectory(prefix="repro-flaky-") as tmp:
        marker = os.path.join(tmp, "crash.marker")
        specs = [slowdown_suite_spec(cfg.with_alpha(a), "hpcc", 0.5, None)
                 for a in (0.0, 0.5, 1.0)]
        specs.append(ScenarioSpec.make("debug-flaky", marker=marker,
                                       mode="exit", tag=9))
        exec_stats.reset()
        runner = SweepRunner("stealing", jobs=2, auto_fallback=False)
        stolen = runner.run(specs)
        counters = exec_stats.snapshot()
        attempts = {t["spec"]: t["attempts"] for t in runner.last_timeline}
        # Serial afterwards: the marker exists now, so the flaky spec
        # succeeds first try and the payloads must match byte-for-byte.
        serial = SweepRunner("serial").run(specs)
    return {
        "n_scenarios": len(specs),
        "byte_identical": _canon([r.payload for r in stolen])
        == _canon([r.payload for r in serial]),
        "flaky_attempts": attempts[len(specs) - 1],
        "requeues": counters["sched_requeues"],
        "worker_crashes": counters["worker_crashes"],
        "worker_restarts": counters["sched_worker_restarts"],
    }


def run_planner_phase(store: ResultStore) -> dict:
    """Cold plan, then the same plan warm from the store (0 sims)."""
    ask = dict(mix={"hpcc": 4}, bound_pct=5.0, workload="dd",
               config=DeploymentConfig(n_own=2, n_victim=4), warmup=45.0)
    exec_stats.reset()
    t0 = time.perf_counter()
    cold = plan_capacity(runner=SweepRunner(cache=store), **ask)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = plan_capacity(runner=SweepRunner(cache=store), **ask)
    warm_s = time.perf_counter() - t0
    return {
        "mix": cold["mix"], "bound_pct": cold["bound_pct"],
        "alpha_min": cold["alpha_min"], "feasible": cold["feasible"],
        "evaluations": len(cold["evaluations"]),
        "cold_simulations": cold["simulations_run"],
        "warm_simulations": warm["simulations_run"],
        "agree": cold["alpha_min"] == warm["alpha_min"],
        "wall_s": {"cold": cold_s, "warm": warm_s},
    }


def run_eviction_phase(store_root: str, specs: list, payload: dict) -> dict:
    """Reopen the filled store under half its bytes; the next put must
    evict down to the budget and leave nothing for GC."""
    full_bytes = ResultStore(root=store_root).total_bytes()
    budget = max(1, full_bytes // 2)
    store = ResultStore(root=store_root, max_bytes=budget)
    exec_stats.reset()
    store.put(specs[-1], payload)
    counters = exec_stats.snapshot()
    return {
        "bytes_before": full_bytes, "max_bytes": budget,
        "bytes_after": store.total_bytes(),
        "under_budget": store.total_bytes() <= budget,
        "evictions": counters["store_evictions"],
        "estimates_kept": store.stats()["estimates"],
        "gc": store.gc(),
    }


def run_service_bench() -> dict:
    specs = straggler_specs()
    with tempfile.TemporaryDirectory(prefix="repro-sweep-store-") as tmp:
        store = ResultStore(root=tmp)

        exec_stats.reset()
        t0 = time.perf_counter()
        serial = SweepRunner("serial", cache=store).run(specs)
        serial_s = time.perf_counter() - t0
        cold_counters = exec_stats.snapshot()

        static_payloads, static_s = run_static_shards(specs, JOBS)

        exec_stats.reset()
        t0 = time.perf_counter()
        runner = SweepRunner("stealing", jobs=JOBS, auto_fallback=False)
        stolen = runner.run(specs)
        stealing_s = time.perf_counter() - t0
        timeline = runner.last_timeline

        exec_stats.reset()
        t0 = time.perf_counter()
        warm = SweepRunner("stealing", jobs=JOBS, auto_fallback=False,
                           cache=store).run(specs)
        warm_s = time.perf_counter() - t0
        warm_counters = exec_stats.snapshot()

        crash = run_crash_phase()
        planner = None if SMOKE else run_planner_phase(store)
        eviction = run_eviction_phase(tmp, specs, serial[-1].payload)

    cell_walls = sorted(t["wall_s"] for t in timeline)
    cpu_count = _usable_cpus()
    data = {
        "version": 2,
        "smoke": SMOKE,
        "params": {"jobs": JOBS, "n_scenarios": len(specs),
                   "small": {k: v / MB if k == "file_size" else v
                             for k, v in SMALL.items()},
                   "big": {k: v / MB if k == "file_size" else v
                           for k, v in BIG.items()}},
        "cpu_count": cpu_count,
        # Whether the stealing-beats-static makespan gate applied.
        "gate_armed": (not SMOKE) and cpu_count >= 4,
        "straggler": {
            "wall_s": {"serial": serial_s, "static": static_s,
                       "stealing": stealing_s, "warm_store": warm_s},
            "stealing_vs_static": static_s / stealing_s,
            "warm_store_speedup": serial_s / warm_s,
            "skew": cell_walls[-1] / cell_walls[len(cell_walls) // 2],
            "byte_identical": (
                _canon([r.payload for r in serial])
                == _canon(static_payloads)
                == _canon([r.payload for r in stolen])
                == _canon([r.payload for r in warm])),
            "timeline": timeline,
            "cold_counters": cold_counters,
            "warm_counters": warm_counters,
        },
        "crash": crash,
        "planner": planner,
        "store": eviction,
    }
    write_result(KEY, data)
    suffix = "-smoke" if SMOKE else ""
    # Companion artifacts the CI lane uploads: the scheduler's per-task
    # timeline and the store's shape after eviction.
    write_result(f"sweep-service-timeline{suffix}",
                 {"timeline": timeline,
                  "wall_s": data["straggler"]["wall_s"],
                  "skew": data["straggler"]["skew"]})
    write_result(f"sweep-service-store{suffix}",
                 {"store": eviction, "cold_counters": cold_counters,
                  "warm_counters": warm_counters})
    # The repo-root trajectory file mirrors the full run only.
    if not SMOKE:
        (ROOT / "BENCH_sweep.json").write_text(
            json.dumps(data, indent=2, sort_keys=True))
    return data


def test_sweep_service(benchmark):
    data = benchmark.pedantic(run_service_bench, rounds=1, iterations=1)
    straggler = data["straggler"]
    walls = straggler["wall_s"]
    print()
    print(render_table(
        ["mode", "wall (s)", "vs static"],
        [["serial", f"{walls['serial']:.2f}", "-"],
         [f"static -j {data['params']['jobs']}",
          f"{walls['static']:.2f}", "1.00x"],
         [f"stealing -j {data['params']['jobs']}",
          f"{walls['stealing']:.2f}",
          f"{straggler['stealing_vs_static']:.2f}x"],
         ["warm store", f"{walls['warm_store']:.3f}",
          f"{straggler['warm_store_speedup']:.1f}x vs serial"]],
        title=f"sweep service ({'smoke' if data['smoke'] else 'full'} "
              f"scale, skew {straggler['skew']:.1f}x, "
              f"{data['cpu_count']} cpus, gate "
              f"{'armed' if data['gate_armed'] else 'off'})"))

    # Determinism end to end: serial == static == stealing == warm.
    assert straggler["byte_identical"]

    # The warm rerun answers everything from the store: zero sims.
    n = data["params"]["n_scenarios"]
    assert straggler["cold_counters"]["store_stores"] == n
    assert straggler["warm_counters"]["store_hits"] == n
    assert straggler["warm_counters"]["scenarios_run"] == 0
    assert straggler["warm_store_speedup"] >= WARM_GATE, (
        f"warm store {straggler['warm_store_speedup']:.1f}x vs serial "
        f"is below the {WARM_GATE}x gate")

    # The injected crash was retried, not dropped, and changed nothing.
    crash = data["crash"]
    assert crash["byte_identical"]
    assert crash["flaky_attempts"] == 2
    assert crash["requeues"] >= 1
    assert crash["worker_crashes"] >= 1

    # Eviction brought the store back under the halved budget.
    store = data["store"]
    assert store["under_budget"]
    assert store["evictions"] >= 1
    assert store["gc"] == {"orphan_blobs": 0, "dangling_entries": 0}

    # Full runs also answer the planner's job-mix question warm.
    if data["planner"] is not None:
        planner = data["planner"]
        assert planner["cold_simulations"] > 0
        assert planner["warm_simulations"] == 0
        assert planner["agree"]

    # Stealing must beat the static partition on makespan, but only
    # where the comparison is physical (full scale, ≥ 4 cores).
    if data["gate_armed"]:
        assert straggler["stealing_vs_static"] >= STEAL_GATE, (
            f"stealing {straggler['stealing_vs_static']:.2f}x vs static "
            f"is below the {STEAL_GATE}x gate")
