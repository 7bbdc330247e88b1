"""Solver counter gates on six small scenario shapes.

Each shape runs in-process under the incremental solver and, where it is
tractable, under the reference solver (``DeploymentConfig(solver=
"reference")``).  Every gate is exact and reads no clock:

- counter ceilings on the incremental solver's work (:data:`flownet_stats`);
- byte-identical simulated outputs in both solver modes;
- on the revocation storms, incremental solver work <= reference, and the
  run recovers (no data loss, no open faults).

Speed is measured end to end by ``e2ebench/``, not here.
"""

from functools import lru_cache

import pytest

from repro.core import DeploymentConfig, MemFSSDeployment, PlacementPolicy
from repro.core.experiment import baseline_run
from repro.core.slowdown import BackgroundWorkload, _run_suite
from repro.faults import FaultInjector, fault_stats, revocation_storm
from repro.sim import flownet_stats
from repro.tenants import hpcc_suite
from repro.units import GB, MB
from repro.workflows import montage

SEED = 1913

#: Ceilings on the incremental solver's counters, per shape.
BUDGETS = {
    "fig2_baseline": {"solves": 30, "rounds": 100, "flows_touched": 600},
    "hpcc_under_montage": {"solves": 5700, "flows_touched": 65000},
    "fault_storm": {"solves": 400, "flows_touched": 250},
    "das5x16_fig2": {"solves": 12, "rounds": 48, "flows_touched": 64},
    "das5x64_fig2": {"solves": 12, "rounds": 32, "flows_touched": 48},
    "fault_storm_large": {"solves": 2500, "flows_touched": 1500},
}
STORMS = ("fault_storm", "fault_storm_large")


def _fig2(n_tasks, config):
    m = baseline_run(alpha=0.25, n_tasks=n_tasks, file_size=32 * MB,
                     config=config, keep_series=True)
    times, values = m.series["victim.rx"]
    return {
        "runtime_s": m.runtime_s,
        "own_cpu": m.own_cpu, "own_tx": m.own_tx, "own_rx": m.own_rx,
        "victim_rx": m.victim_rx, "victim_rx_bytes_s": m.victim_rx_bytes_s,
        "peak_victim_rx": m.peak_victim_rx,
        "victim_rx_series": [list(map(float, times)), list(map(float, values))],
    }


def _hpcc_under_montage(solver):
    dep = MemFSSDeployment(DeploymentConfig(
        policy=PlacementPolicy.own_victim(0.25), stripe_size=64 * MB,
        solver=solver))
    background = BackgroundWorkload(
        dep, lambda i: montage(width=96, compute_scale=0.02,
                               parallel_task_scale=2.0))
    background.start()
    dep.env.run(until=dep.env.now + 5.0)
    times = _run_suite(dep, hpcc_suite(0.15))
    background.stop()
    return {"runtimes_s": times}


def _storm(n_files, solver, **shape):
    fault_stats.reset()
    dep = MemFSSDeployment(DeploymentConfig(
        victim_memory=2 * GB, stripe_size=1 * MB, seed=SEED, io_retries=4,
        solver=solver, policy=PlacementPolicy.own_victim(0.25, replication=2),
        **shape))
    env, fs, agent = dep.env, dep.fs, dep.own[0]
    injector = FaultInjector(
        env, revocation_storm(at=0.05, fraction=0.5), manager=dep.manager,
        reservations=dep.cluster.reservations, rng=dep.rng)
    injector.start()
    blob = b"\x5a" * (4 * MB)
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
    return {"runtime_s": runtime, "data_losses": losses,
            "fault_counters": fault_stats.snapshot(),
            "injected": [[t, kind, list(names)] for t, kind, names in injector.log]}


#: name -> (runner taking the solver mode, solver modes to run).  The x16
#: and x64 fabrics skip the reference solver: its whole-graph fill is
#: quadratic in links there.
SHAPES = {
    "fig2_baseline": (lambda s: _fig2(48, DeploymentConfig(solver=s)),
                      ("incremental", "reference")),
    "hpcc_under_montage": (_hpcc_under_montage, ("incremental", "reference")),
    "fault_storm": (lambda s: _storm(6, s, n_own=2, n_victim=8,
                                     own_store_capacity=8 * GB),
                    ("incremental", "reference")),
    "das5x16_fig2": (lambda s: _fig2(8, DeploymentConfig(solver=s, scale=16)),
                     ("incremental",)),
    # n_victim=60: the paper's 8 own + 60 victims, x64 = 4352 nodes.
    "das5x64_fig2": (lambda s: _fig2(4, DeploymentConfig(
        solver=s, n_victim=60, scale=64)), ("incremental",)),
    "fault_storm_large": (lambda s: _storm(8, s, n_own=4, n_victim=28, scale=2,
                                           own_store_capacity=16 * GB),
                          ("incremental", "reference")),
}


@lru_cache(maxsize=None)
def _run(name, solver):
    """(signature, solver counters) of one cell; each cell runs once."""
    flownet_stats.reset()
    signature = SHAPES[name][0](solver)
    return signature, flownet_stats.snapshot()


@pytest.mark.parametrize("name", BUDGETS)
def test_incremental_counters_within_budget(name):
    _sig, got = _run(name, "incremental")
    for counter, ceiling in BUDGETS[name].items():
        assert got[counter] <= ceiling, (name, counter, got[counter])


@pytest.mark.parametrize("name", [n for n, (_f, s) in SHAPES.items()
                                  if "reference" in s])
def test_solvers_give_identical_outputs(name):
    assert _run(name, "incremental")[0] == _run(name, "reference")[0]


@pytest.mark.parametrize("name", STORMS)
def test_storm_solver_work_and_recovery(name):
    sig, inc = _run(name, "incremental")
    ref = _run(name, "reference")[1]
    for counter in ("solves", "full_solves", "rounds", "flows_touched"):
        assert inc[counter] <= ref[counter], (name, counter)
    assert sig["data_losses"] == 0
    assert sig["fault_counters"]["open_faults"] == 0
