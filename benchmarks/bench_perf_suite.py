"""Tracked solver perf suite: incremental vs. the reference baseline.

Times representative scenarios under the component-aware incremental
solver (the only production mode) and, where it is tractable, the
reference solver (global synchronous progressive filling, retained as
``DeploymentConfig(solver="reference")`` as a fixed baseline):

* **fig2_baseline** — the Fig. 2-shaped dd bag (the repo's hottest shape:
  every stripe fan-out rebalances the victim NICs),
* **hpcc_under_montage** — the HPCC tenant suite with the Montage
  scavenging workload underneath (Fig. 3's contention channel),
* **fault_storm** — the §V-C revocation storm over a replicated
  population (bursts of evacuations + repairs),
* **das5x16_fig2** — the Fig. 2 shape on a ×16 DAS-5, the ROADMAP's
  1000+-node scale target, gated on a wall-time ceiling; the reference
  solver is quadratic in links here and deliberately not run,
* **das5x64_fig2** — the Fig. 2 shape on a ×64 DAS-5 (4352 nodes,
  ``n_victim=60`` so the paper's 68-node setup scales exactly).  The
  memory-lean link-state target: gated on wall time **and** peak RSS,
* **fault_storm_large** — the revocation storm at 128 nodes, the shape
  behind the old fault_storm 0.81x regression, now required to win.

Each forked measurement child also records its peak RSS
(``ru_maxrss``), published per cell and gated by ``rss_kb_<solver>``
ceilings in ``perf_budget.json``.

Each scenario must produce **byte-identical simulated outputs** in both
modes where it runs both (runtimes, NIC figures, monitor series, fault
counters); the suite asserts that, reports the solver counters from
:data:`flownet_stats`, and gates:

* incremental ≥ 10× reference on fig2_baseline, ≥ 1× on fig2_baseline
  and hpcc_under_montage, ≥ 0.9× on the storms (full scale only),
* incremental solver work ≤ reference on the storms (any scale),
* counter budgets and wall/RSS ceilings from ``perf_budget.json``
  (counter gates are exact, wall gates generous so the CI lane is
  stable on shared runners).

Every run measures afresh (nothing is replayed from an earlier run) and
publishes only after every gate passed: ``results/perf-suite.json`` (or
``-smoke``) and, for full runs, ``BENCH_perf.json`` at the repo root,
the perf trajectory later PRs regress against.  ``PERF_SMOKE=1``
shrinks every scenario for CI.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing as mp
import os
import time
from pathlib import Path

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None

from repro.core import DeploymentConfig, MemFSSDeployment
from repro.core.experiment import baseline_run
from repro.core.slowdown import BackgroundWorkload, _run_suite
from repro.faults import FaultInjector, fault_stats, revocation_storm
from repro.metrics import render_table
from repro.sim import flownet_stats
from repro.tenants import hpcc_suite
from repro.units import GB, MB
from repro.workflows import montage

SMOKE = os.environ.get("PERF_SMOKE") == "1"
KEY = "perf-suite-smoke" if SMOKE else "perf-suite"
ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
BUDGET = json.loads((Path(__file__).parent / "perf_budget.json").read_text())

SOLVERS = ("incremental", "reference")
#: PR 6's recorded das5x16_fig2 incremental wall (BENCH_perf.json at
#: commit a9a9e9a).  The vectorized fixpoint + batched HRW hashing must
#: beat it by >= 1.5x on the same full-scale shape.
PR6_DAS5X16_INCREMENTAL_WALL_S = 1.2723

# Scenario scales (reduced but shape-preserving under PERF_SMOKE).
FIG2_TASKS = 48 if SMOKE else 256
FIG2_FILE = 32 * MB if SMOKE else 1024 * MB
HPCC_SCALE = 0.15 if SMOKE else 0.4
HPCC_WARMUP = 5.0 if SMOKE else 15.0
STORM_FILES = 6 if SMOKE else 12
STORM_FILE_SIZE = 4 * MB
STORM_AT = 0.05
SEED = 1913
# ×16 DAS-5 Fig. 2 shape: same fabric either way; the task bag shrinks.
DAS5X16_TASKS = 8 if SMOKE else 128
DAS5X16_FILE = 32 * MB if SMOKE else 256 * MB
# ×64 DAS-5 Fig. 2 shape: 4352 nodes (8 own + 60 victims, x64).
DAS5X64_TASKS = 4 if SMOKE else 64
DAS5X64_FILE = 32 * MB if SMOKE else 128 * MB
# Large storm: 64 nodes (smoke) / 128 nodes (full), replicated files.
STORM_L_SCALE = 2 if SMOKE else 4
STORM_L_FILES = 8 if SMOKE else 24


def _fig2_signature(m) -> dict:
    times, values = m.series["victim.rx"]
    return {
        "runtime_s": m.runtime_s,
        "own_cpu": m.own_cpu, "own_tx": m.own_tx, "own_rx": m.own_rx,
        "victim_rx": m.victim_rx,
        "victim_rx_bytes_s": m.victim_rx_bytes_s,
        "peak_victim_rx": m.peak_victim_rx,
        "victim_rx_series": [list(map(float, times)),
                             list(map(float, values))],
    }


def _fig2(solver: str) -> dict:
    m = baseline_run(alpha=0.25, n_tasks=FIG2_TASKS, file_size=FIG2_FILE,
                     config=DeploymentConfig(solver=solver),
                     keep_series=True)
    return _fig2_signature(m)


def _das5x16_fig2(solver: str) -> dict:
    m = baseline_run(alpha=0.25, n_tasks=DAS5X16_TASKS,
                     file_size=DAS5X16_FILE,
                     config=DeploymentConfig(solver=solver, scale=16),
                     keep_series=True)
    return _fig2_signature(m)


def _das5x64_fig2(solver: str) -> dict:
    # n_victim=60: the paper's 68-node setup (8 own + 60 victims), so
    # x64 lands exactly on the 4352-node target shape.
    m = baseline_run(alpha=0.25, n_tasks=DAS5X64_TASKS,
                     file_size=DAS5X64_FILE,
                     config=DeploymentConfig(solver=solver, n_victim=60,
                                             scale=64),
                     keep_series=True)
    return _fig2_signature(m)


def _hpcc_under_montage(solver: str) -> dict:
    cfg = DeploymentConfig(alpha=0.25, stripe_size=64 * MB, solver=solver)
    dep = MemFSSDeployment(cfg)
    background = BackgroundWorkload(
        dep, lambda i: montage(width=96, compute_scale=0.02,
                               parallel_task_scale=2.0))
    background.start()
    dep.env.run(until=dep.env.now + HPCC_WARMUP)
    times = _run_suite(dep, hpcc_suite(HPCC_SCALE))
    background.stop()
    return {"runtimes_s": times}


def _storm(config: DeploymentConfig, n_files: int) -> dict:
    fault_stats.reset()
    dep = MemFSSDeployment(config)
    env, fs, agent = dep.env, dep.fs, dep.own[0]
    injector = FaultInjector(
        env, revocation_storm(at=STORM_AT, fraction=0.5),
        manager=dep.manager, reservations=dep.cluster.reservations,
        rng=dep.rng)
    injector.start()
    blob = b"\x5a" * STORM_FILE_SIZE
    paths = [f"/bench/f{i}" for i in range(n_files)]

    def driver():
        t0 = env.now
        for path in paths:
            yield from fs.write_file(agent, path, payload=blob)
        losses = 0
        for path in paths:
            _n, back = yield from fs.read_file(agent, path)
            losses += back != blob
        return env.now - t0, losses

    proc = env.process(driver())
    runtime, losses = env.run(until=proc)
    env.run()  # drain in-flight evacuations
    return {
        "runtime_s": runtime,
        "data_losses": losses,
        "fault_counters": fault_stats.snapshot(),
        "injected": [[t, kind, list(names)]
                     for t, kind, names in injector.log],
    }


def _fault_storm(solver: str) -> dict:
    return _storm(DeploymentConfig(
        n_own=2, n_victim=8, alpha=0.25, victim_memory=2 * GB,
        own_store_capacity=8 * GB, stripe_size=1 * MB, replication=2,
        seed=SEED, io_retries=4, solver=solver), STORM_FILES)


def _fault_storm_large(solver: str) -> dict:
    return _storm(DeploymentConfig(
        n_own=4, n_victim=28, scale=STORM_L_SCALE, alpha=0.25,
        victim_memory=2 * GB, own_store_capacity=16 * GB,
        stripe_size=1 * MB, replication=2, seed=SEED, io_retries=4,
        solver=solver), STORM_L_FILES)


#: name -> (runner, recorded params, solver modes to run).  The x16/x64
#: scale-ups skip the reference solver on purpose: its whole-graph dict
#: fill is quadratic in links there, and the gate is the wall/RSS
#: ceilings, not a reference speedup.
SCENARIOS = {
    "fig2_baseline": (_fig2, {"alpha": 0.25, "n_tasks": FIG2_TASKS,
                              "file_mb": FIG2_FILE / MB}, SOLVERS),
    "hpcc_under_montage": (_hpcc_under_montage,
                           {"suite_scale": HPCC_SCALE,
                            "warmup_s": HPCC_WARMUP}, SOLVERS),
    "fault_storm": (_fault_storm, {"n_files": STORM_FILES,
                                   "storm_fraction": 0.5, "seed": SEED},
                    SOLVERS),
    "das5x16_fig2": (_das5x16_fig2,
                     {"alpha": 0.25, "scale": 16, "n_nodes": 640,
                      "n_tasks": DAS5X16_TASKS,
                      "file_mb": DAS5X16_FILE / MB}, ("incremental",)),
    "das5x64_fig2": (_das5x64_fig2,
                     {"alpha": 0.25, "scale": 64, "n_victim": 60,
                      "n_nodes": 4352, "n_tasks": DAS5X64_TASKS,
                      "file_mb": DAS5X64_FILE / MB}, ("incremental",)),
    "fault_storm_large": (_fault_storm_large,
                          {"n_files": STORM_L_FILES,
                           "scale": STORM_L_SCALE,
                           "n_nodes": 32 * STORM_L_SCALE,
                           "storm_fraction": 0.5, "seed": SEED}, SOLVERS),
}


#: Scenarios measured with interleaved reps in a single child: their
#: speedup gate compares near-equal sub-second walls, where host drift
#: between separately-forked children is larger than the effect being
#: gated.  Interleaving the reps mode-for-mode cancels that drift.
#: Everything else gets a child per mode, isolating the reference
#: solver's heap churn (which at tens-of-seconds scale taxes whatever
#: is timed after it by double-digit percents, even across an explicit
#: ``gc.collect()``).
PAIRED = frozenset({"fault_storm"})


def _timed_rep(fn, solver: str) -> tuple[float, dict]:
    flownet_stats.reset()
    gc.collect()
    t = time.perf_counter()
    sig = fn(solver)
    return time.perf_counter() - t, sig


def _rss_peak_kb() -> int | None:
    """This process's peak RSS in KiB (None where resource is absent)."""
    if resource is None:  # pragma: no cover - non-POSIX fallback
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _base_payload(wall: float, signature: dict) -> dict:
    """Payload for one cell; call right after its rep (reads globals)."""
    return {
        "wall": wall,
        "signature": signature,
        "counters": flownet_stats.snapshot(),
    }


def _solver_payload(name: str, solver: str) -> dict:
    """Measure one (scenario, solver) cell: signature, counters, wall.

    Signatures and counters are deterministic, so one rep covers them.  Wall clocks are not: the speedup gates compare
    best-of-N walls, with more reps the shorter the wall (a scheduling
    hiccup or a cold first rep is a larger fraction of a small wall).
    Smoke runs gate on counters, not speedups, and take a single rep.
    """
    fn, _, _ = SCENARIOS[name]
    rss0 = _rss_peak_kb()
    wall, signature = _timed_rep(fn, solver)
    payload = _base_payload(wall, signature)
    if SMOKE:
        extra = 0
    elif wall < 5.0:
        # The first rep in a freshly forked child runs cold (method and
        # allocator caches); on short walls that skews the best-of
        # upward, so it only seeds the payload and is excluded from the
        # timing.  Long walls amortize the cold start and keep it.
        payload["wall"] = math.inf
        extra = 4 if wall < 1.0 else 3
    else:
        extra = 1
    for _ in range(extra):
        w, _sig = _timed_rep(fn, solver)
        payload["wall"] = min(payload["wall"], w)
    # Peak RSS of the forked child: the start value is the warmed-import
    # baseline inherited from the parent, the peak includes every rep of
    # this one (scenario, solver) cell — the das5x64 memory gate.
    payload["rss_at_start_kb"] = rss0
    payload["rss_peak_kb"] = _rss_peak_kb()
    return payload


def _paired_payloads(name: str) -> dict:
    """Measure every solver mode of one scenario, reps interleaved.

    The first round doubles as the cold-start warmup: it seeds each
    payload (signature, counters) but its walls are excluded
    from the best-of timing, mirroring :func:`_solver_payload`.
    """
    fn, _, solvers = SCENARIOS[name]
    rss0 = _rss_peak_kb()
    payloads: dict[str, dict] = {}
    for rnd in range(1 if SMOKE else 6):
        for solver in solvers:
            wall, sig = _timed_rep(fn, solver)
            if solver not in payloads:
                payloads[solver] = _base_payload(wall, sig)
                if not SMOKE:
                    payloads[solver]["wall"] = math.inf
            else:
                payloads[solver]["wall"] = min(
                    payloads[solver]["wall"], wall)
    # One child runs every mode interleaved, so the peak is shared: each
    # cell records the same whole-child figure (upper bound per mode).
    rss1 = _rss_peak_kb()
    for payload in payloads.values():
        payload["rss_at_start_kb"] = rss0
        payload["rss_peak_kb"] = rss1
    return payloads


def _in_child(worker, what: str):
    """Run *worker* in a forked child so each measurement starts from
    the same clean allocator heap; falls back to in-process measurement
    on platforms without fork.  The fork inherits warmed imports."""
    if "fork" not in mp.get_all_start_methods():  # pragma: no cover
        return worker()
    ctx = mp.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def child() -> None:
        try:
            send.send(worker())
        finally:
            send.close()

    proc = ctx.Process(target=child)
    proc.start()
    send.close()
    try:
        payload = recv.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"perf child for {what} died "
                           f"(exit {proc.exitcode})") from None
    proc.join()
    return payload


def _measure_scenario(name: str, solvers: tuple) -> dict:
    """{solver: payload} for one scenario, per the PAIRED policy."""
    if name in PAIRED:
        return _in_child(lambda: _paired_payloads(name), name)
    return {s: _in_child(lambda s=s: _solver_payload(name, s),
                         f"{name}/{s}")
            for s in solvers}


def _publish(data: dict) -> None:
    """Write the suite results; the repo-root trajectory file mirrors
    *full* runs only (the smoke lane writes just its results file)."""
    RESULTS.mkdir(exist_ok=True)
    text = json.dumps(data, indent=2, sort_keys=True)
    (RESULTS / f"{KEY}.json").write_text(text)
    if not data["smoke"]:
        (ROOT / "BENCH_perf.json").write_text(text)


def run_perf_suite() -> dict:
    """Measure every scenario afresh; publishes nothing (see the test)."""
    t0 = time.time()
    data: dict = {"smoke": SMOKE, "scenarios": {}}
    for name, (fn, params, solvers) in SCENARIOS.items():
        got_all = _measure_scenario(name, solvers)
        signatures = {s: got_all[s]["signature"] for s in solvers}
        walls = {s: got_all[s]["wall"] for s in solvers}
        base = solvers[0]
        entry = {
            "params": params,
            "solvers": list(solvers),
            "byte_identical": all(signatures[s] == signatures[base]
                                  for s in solvers),
            "signature": signatures[base],
            "wall_s": walls,
            "rss_peak_kb": {s: got_all[s]["rss_peak_kb"] for s in solvers
                            if got_all[s].get("rss_peak_kb") is not None},
            "solver_counters": {s: got_all[s]["counters"] for s in solvers},
        }
        if "reference" in walls:
            entry["speedup"] = walls["reference"] / walls["incremental"]
        if name == "das5x16_fig2":
            entry["speedup_vs_pr6"] = (PR6_DAS5X16_INCREMENTAL_WALL_S
                                       / walls["incremental"])
        data["scenarios"][name] = entry
    data["wall_seconds"] = time.time() - t0
    return data


def test_perf_suite(benchmark):
    data = benchmark.pedantic(run_perf_suite, rounds=1, iterations=1)
    scenarios = data["scenarios"]
    print()
    print(render_table(
        ["scenario", "incremental (s)", "reference (s)", "speedup",
         "identical", "solves", "flows touched"],
        [[name,
          f"{s['wall_s']['incremental']:.2f}",
          (f"{s['wall_s']['reference']:.2f}"
           if "reference" in s["wall_s"] else "-"),
          f"{s['speedup']:.2f}x" if "speedup" in s else "-",
          str(s["byte_identical"]),
          s["solver_counters"]["incremental"]["solves"],
          s["solver_counters"]["incremental"]["flows_touched"]]
         for name, s in scenarios.items()],
        title="Solver perf suite "
              f"({'smoke' if data['smoke'] else 'full'} scale)"))

    # Byte-identical simulated physics in both solver modes, everywhere.
    for name, s in scenarios.items():
        assert s["byte_identical"], name

    # Speedup gates (full scale only; smoke runs are too small to
    # amortize anything and are gated on counters instead): the
    # incremental solver must beat the reference solver >= 10x on fig2
    # and may not lose to it anywhere the reference runs.  The storm
    # scenarios carry an explicit measurement-noise floor: their solver
    # work is single-digit milliseconds of a wall this host resolves to
    # ~5-8% at best, so a strict 1.0x there would gate on scheduler
    # jitter, not on the solvers — the deterministic work gates below
    # are the real no-regression proof (the seed's fault_storm hole was
    # a 25% wall regression, which the 0.9 floor still catches).
    if not data["smoke"]:
        assert scenarios["fig2_baseline"]["speedup"] >= 10.0
        # The vectorized fixpoint (+ batched HRW hashing) must beat the
        # PR 6 trajectory on the x16 scale-up by >= 1.5x.
        assert scenarios["das5x16_fig2"]["speedup_vs_pr6"] >= 1.5, (
            f"das5x16_fig2 incremental "
            f"{scenarios['das5x16_fig2']['wall_s']['incremental']:.3f}s "
            f"is < 1.5x faster than PR 6's "
            f"{PR6_DAS5X16_INCREMENTAL_WALL_S}s")
        for name in ("fig2_baseline", "hpcc_under_montage"):
            assert scenarios[name]["speedup"] >= 1.0, (
                f"{name}: incremental {scenarios[name]['speedup']:.2f}x "
                "< 1.0x vs reference")
        for name in ("fault_storm", "fault_storm_large"):
            assert scenarios[name]["speedup"] >= 0.9, (
                f"{name}: incremental {scenarios[name]['speedup']:.2f}x "
                "< 0.9x vs reference (beyond measurement noise)")

    # Deterministic no-regression gates for the storm shapes, valid at
    # any scale: the incremental solver must do no more solver work than
    # the per-mutation reference.  Coalescing guarantees fewer solves
    # and component fills touch a subset of the whole graph, so every
    # counter is <= by construction.
    for name in ("fault_storm", "fault_storm_large"):
        got = scenarios[name]["solver_counters"]
        for counter in ("solves", "full_solves", "rounds",
                        "flows_touched"):
            assert got["incremental"][counter] <= got["reference"][counter], (
                f"{name}: incremental did more solver work than reference "
                f"({counter}: {got['incremental'][counter]} > "
                f"{got['reference'][counter]})")

    # Budget gates: counter ceilings on the incremental solver's work,
    # plus `wall_s_<solver>` wall-clock and `rss_kb_<solver>` peak-RSS
    # ceilings (the x16/x64 "completes on one machine in time and in
    # memory" gates — generous, so shared runners pass).  RSS gates are
    # skipped where the platform cannot measure ru_maxrss.
    budget = BUDGET["smoke" if data["smoke"] else "full"]
    for name, limits in budget.items():
        s = scenarios[name]
        got = s["solver_counters"]["incremental"]
        for counter, ceiling in limits.items():
            if counter.startswith("wall_s_"):
                solver = counter[len("wall_s_"):]
                assert s["wall_s"][solver] <= ceiling, (
                    f"{name}.{counter}: {s['wall_s'][solver]:.2f}s "
                    f"> budget {ceiling}s")
            elif counter.startswith("rss_kb_"):
                solver = counter[len("rss_kb_"):]
                peak = s.get("rss_peak_kb", {}).get(solver)
                assert peak is None or peak <= ceiling, (
                    f"{name}.{counter}: {peak} KiB > budget "
                    f"{ceiling} KiB")
            else:
                assert got[counter] <= ceiling, (
                    f"{name}.{counter}: {got[counter]} > budget {ceiling}")

    # The storm scenarios still recover: no data loss, no open faults.
    for name in ("fault_storm", "fault_storm_large"):
        storm = scenarios[name]["signature"]
        assert storm["data_losses"] == 0
        assert storm["fault_counters"]["open_faults"] == 0

    # Every gate passed: only now does the run become the trajectory.
    _publish(data)
