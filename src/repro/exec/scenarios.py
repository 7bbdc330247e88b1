"""Scenario executors: the registry mapping spec *kind* → simulation.

Every executor is a pure function of its :class:`ScenarioSpec` returning
a JSON-safe payload dict, so it can run in a spawned worker process and
its result can round-trip through the result store byte-identically.
Workloads and tenant suites are referenced *by name* through the
registries below (callables don't pickle across the spawn boundary).

Three experiment kinds cover the figure suite:

* ``fig2`` — one baseline α scenario (:func:`~repro.core.baseline_run`),
* ``slowdown-suite`` — one tenant suite run, optionally under a named
  scavenging workload (the Fig. 3-5 / Fig. 6 fan-out unit),
* ``consumption`` — one Table II row (standalone or scavenging).

Plus ``debug-crash``, a test hook that fails (or hard-kills its worker)
so crash propagation stays covered.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Callable

from ..core.consumption import ConsumptionPoint, run_scavenging, run_standalone
from ..core.degraded import DegradedResult
from ..core.deployment import DeploymentConfig, MemFSSDeployment
from ..core.experiment import FIG2_ALPHAS, BaselineMetrics, baseline_run
from ..core.slowdown import BackgroundWorkload, SlowdownResult, _run_suite
from ..tenants import hibench_hadoop_suite, hibench_spark_suite, hpcc_suite
from ..units import MB
from ..workflows import blast, dd_bag, montage
from .spec import ScenarioSpec

__all__ = ["EXECUTORS", "scenario", "run_scenario",
           "SUITE_BUILDERS", "WORKLOAD_BUILDERS", "PRESET_WORKLOADS",
           "fig2_spec", "fig2_sweep_specs", "metrics_from_payload",
           "slowdown_suite_spec", "slowdown_sweep", "slowdown_results",
           "consumption_standalone_spec", "consumption_scavenging_spec",
           "consumption_specs", "run_consumption_points",
           "point_from_payload"]

#: Tenant suites by name: ``builder(n_victims, scale)``.
SUITE_BUILDERS: dict[str, Callable[[int, float], list]] = {
    "hpcc": lambda n, scale: hpcc_suite(scale),
    "hibench-hadoop": lambda n, scale: hibench_hadoop_suite(n, scale),
    "hibench-spark": lambda n, scale: hibench_spark_suite(n, scale),
}

#: Scavenging workflows by name: ``builder(**kwargs)`` → Workflow.
WORKLOAD_BUILDERS: dict[str, Callable[..., Any]] = {
    "montage": montage,
    "blast": blast,
    "dd": dd_bag,
}

#: The paper's three MemFSS workloads at the benches' steady-state scale
#: (name → (builder, kwargs)); CLI/benches pass these through specs.
PRESET_WORKLOADS: dict[str, tuple[str, dict]] = {
    "Montage": ("montage", {"width": 96, "compute_scale": 0.02,
                            "parallel_task_scale": 2.0}),
    "BLAST": ("blast", {"n_searches": 256, "split_seconds": 10.0,
                        "search_seconds": 60.0}),
    "dd": ("dd", {"n_tasks": 64, "file_size": 256 * MB}),
}


# -- registry ------------------------------------------------------------------
EXECUTORS: dict[str, Callable[[ScenarioSpec], dict]] = {}


def scenario(kind: str):
    """Register an executor for scenario *kind*."""
    def register(fn: Callable[[ScenarioSpec], dict]):
        EXECUTORS[kind] = fn
        return fn
    return register


def run_scenario(spec: ScenarioSpec) -> dict:
    """Execute one scenario; the single entry point of every backend."""
    try:
        executor = EXECUTORS[spec.kind]
    except KeyError:
        raise LookupError(
            f"unknown scenario kind {spec.kind!r}; registered: "
            f"{sorted(EXECUTORS)}") from None
    return executor(spec)


# -- fig2 ----------------------------------------------------------------------
@scenario("fig2")
def _run_fig2(spec: ScenarioSpec) -> dict:
    p = spec.param_dict()
    metrics = baseline_run(
        alpha=p.get("alpha", 0.25),
        n_tasks=int(p.get("n_tasks", 2048)),
        file_size=float(p.get("file_size", 128 * MB)),
        config=spec.deployment_config(),
        monitor_interval=float(p.get("monitor_interval", 1.0)),
        keep_series=bool(p.get("keep_series", False)))
    payload = dataclasses.asdict(metrics)
    payload["series"] = {name: [list(map(float, times)),
                                list(map(float, values))]
                         for name, (times, values) in metrics.series.items()}
    return payload


def metrics_from_payload(payload: dict) -> BaselineMetrics:
    """Rehydrate a ``fig2`` payload (series stay plain lists)."""
    fields = dict(payload)
    fields["series"] = {name: (times, values)
                        for name, (times, values)
                        in payload.get("series", {}).items()}
    return BaselineMetrics(**fields)


def fig2_spec(alpha: float, n_tasks: int = 2048,
              file_size: float = 128 * MB,
              config: DeploymentConfig | None = None,
              monitor_interval: float = 1.0, keep_series: bool = False,
              seed: int | None = None) -> ScenarioSpec:
    return ScenarioSpec.make(
        "fig2", config=config, seed=seed, alpha=alpha, n_tasks=n_tasks,
        file_size=float(file_size), monitor_interval=monitor_interval,
        keep_series=keep_series)


def fig2_sweep_specs(n_tasks: int = 2048, file_size: float = 128 * MB,
                     config: DeploymentConfig | None = None,
                     alphas: tuple[float, ...] = FIG2_ALPHAS,
                     monitor_interval: float = 1.0,
                     keep_series: bool = False) -> list[ScenarioSpec]:
    """The Fig. 2 sweep, one spec per α."""
    return [fig2_spec(a, n_tasks=n_tasks, file_size=file_size,
                      config=config, monitor_interval=monitor_interval,
                      keep_series=keep_series)
            for a in alphas]


# -- slowdown suites (Figs. 3-5) -----------------------------------------------
@scenario("slowdown-suite")
def _run_slowdown_suite(spec: ScenarioSpec) -> dict:
    p = spec.param_dict()
    suite = p["suite"]
    if suite not in SUITE_BUILDERS:
        raise LookupError(f"unknown tenant suite {suite!r}; "
                          f"choose from {sorted(SUITE_BUILDERS)}")
    dep = MemFSSDeployment(spec.deployment_config())
    background = None
    workload = p.get("workload")
    if workload is not None:
        builder_name, kwargs = workload, p.get("workload_kwargs") or {}
        if builder_name in PRESET_WORKLOADS and not kwargs:
            builder_name, kwargs = PRESET_WORKLOADS[builder_name]
        if builder_name not in WORKLOAD_BUILDERS:
            raise LookupError(f"unknown workload {workload!r}; choose "
                              f"from {sorted(WORKLOAD_BUILDERS)} or "
                              f"{sorted(PRESET_WORKLOADS)}")
        builder = WORKLOAD_BUILDERS[builder_name]
        background = BackgroundWorkload(dep,
                                        lambda i: builder(**kwargs))
        background.start()
        dep.env.run(until=dep.env.now + float(p.get("warmup", 30.0)))
    times = _run_suite(dep, SUITE_BUILDERS[suite](
        len(dep.victims), float(p.get("suite_scale", 1.0))))
    if background is not None:
        background.stop()
    return {"runtimes_s": times}


def slowdown_suite_spec(config: DeploymentConfig, suite: str,
                        suite_scale: float = 1.0,
                        workload: str | None = None,
                        workload_kwargs: dict | None = None,
                        warmup: float = 30.0,
                        seed: int | None = None) -> ScenarioSpec:
    return ScenarioSpec.make(
        "slowdown-suite", config=config, seed=seed, suite=suite,
        suite_scale=suite_scale, workload=workload,
        workload_kwargs=workload_kwargs, warmup=warmup)


def slowdown_sweep(config: DeploymentConfig, suite: str,
                   suite_scale: float = 1.0,
                   workloads: tuple[str, ...] = ("Montage", "BLAST", "dd"),
                   workload_kwargs: dict | None = None,
                   warmup: float = 30.0, jobs: int = 1,
                   cache=None) -> dict[str | None, dict[str, float]]:
    """Baseline + one loaded run per workload, fanned out together.

    Returns ``{None: baseline_times, workload: loaded_times, ...}``; use
    :class:`~repro.core.slowdown.SlowdownResult` to turn pairs into
    slowdown percentages.  This is the Fig. 3-5 unit the CLI and the
    bench harness share.  ``jobs > 1`` fans the runs out over the
    work-stealing backend, byte-identically; *cache* is an optional
    :class:`~repro.exec.store.ResultStore`.
    """
    from .runner import SweepRunner
    specs = [slowdown_suite_spec(config, suite, suite_scale, None,
                                 warmup=warmup)]
    specs += [slowdown_suite_spec(config, suite, suite_scale, wl,
                                  workload_kwargs=workload_kwargs,
                                  warmup=warmup)
              for wl in workloads]
    results = SweepRunner(jobs=jobs, cache=cache).run(specs)
    out: dict[str | None, dict[str, float]] = {
        None: results[0].payload["runtimes_s"]}
    for wl, res in zip(workloads, results[1:]):
        out[wl] = res.payload["runtimes_s"]
    return out


def slowdown_results(sweep: dict[str | None, dict[str, float]],
                     workload: str) -> list[SlowdownResult]:
    """Per-benchmark :class:`SlowdownResult` rows for one workload."""
    baseline, loaded = sweep[None], sweep[workload]
    return [SlowdownResult(benchmark=name, baseline_s=baseline[name],
                           loaded_s=loaded[name]) for name in baseline]


# -- consumption (Table II / Fig. 7) -------------------------------------------
def _build_workflow(p: dict):
    name = p.get("workflow", "montage")
    if name not in WORKLOAD_BUILDERS:
        raise LookupError(f"unknown workflow {name!r}; choose from "
                          f"{sorted(WORKLOAD_BUILDERS)}")
    return WORKLOAD_BUILDERS[name](**(p.get("workflow_kwargs") or {}))


@scenario("consumption")
def _run_consumption(spec: ScenarioSpec) -> dict:
    p = spec.param_dict()
    seed = spec.seed if spec.seed is not None else int(p.get("seed", 0))
    workflow = _build_workflow(p)
    if p.get("mode", "standalone") == "standalone":
        point = run_standalone(
            workflow, n_nodes=int(p["n_nodes"]),
            store_capacity=float(p["store_capacity"]),
            stripe_size=int(p.get("stripe_size", 32 * MB)), seed=seed)
    else:
        point = run_scavenging(
            workflow, n_own=int(p["n_own"]), n_victim=int(p["n_victim"]),
            victim_memory=float(p["victim_memory"]),
            own_store_capacity=float(p["own_store_capacity"]),
            alpha=p.get("alpha"),
            stripe_size=int(p.get("stripe_size", 32 * MB)), seed=seed)
    return dataclasses.asdict(point)


def point_from_payload(payload: dict) -> ConsumptionPoint:
    fields = dict(payload)
    degraded = fields.get("degraded")
    if degraded is not None and not isinstance(degraded, DegradedResult):
        # asdict() flattened it to {"reason": ..., "detail": ...}.
        fields["degraded"] = DegradedResult.from_payload(degraded)
    return ConsumptionPoint(**fields)


def consumption_standalone_spec(workflow: str, workflow_kwargs: dict,
                                n_nodes: int, store_capacity: float,
                                stripe_size: int = 32 * MB,
                                seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec.make(
        "consumption", mode="standalone", workflow=workflow,
        workflow_kwargs=workflow_kwargs, n_nodes=n_nodes,
        store_capacity=float(store_capacity), stripe_size=stripe_size,
        seed=seed)


def consumption_scavenging_spec(workflow: str, workflow_kwargs: dict,
                                n_own: int, n_victim: int,
                                victim_memory: float,
                                own_store_capacity: float,
                                alpha: float | None = None,
                                stripe_size: int = 32 * MB,
                                seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec.make(
        "consumption", mode="scavenging", workflow=workflow,
        workflow_kwargs=workflow_kwargs, n_own=n_own, n_victim=n_victim,
        victim_memory=float(victim_memory),
        own_store_capacity=float(own_store_capacity), alpha=alpha,
        stripe_size=stripe_size, seed=seed)


def consumption_specs(workflow: str, workflow_kwargs: dict,
                      standalone_nodes: tuple[int, ...],
                      scavenging_own: tuple[int, ...], total_nodes: int,
                      victim_memory: float, own_store_capacity: float,
                      ) -> list[ScenarioSpec]:
    """The Table II sweep: standalone rows, then scavenging rows with
    victims making up the rest of *total_nodes*."""
    specs = [consumption_standalone_spec(
        workflow, workflow_kwargs, n_nodes=n,
        store_capacity=own_store_capacity) for n in standalone_nodes]
    specs += [consumption_scavenging_spec(
        workflow, workflow_kwargs, n_own=n, n_victim=total_nodes - n,
        victim_memory=victim_memory,
        own_store_capacity=own_store_capacity) for n in scavenging_own]
    return specs


def run_consumption_points(specs: list[ScenarioSpec], jobs: int = 1,
                           cache=None) -> list[ConsumptionPoint]:
    from .runner import SweepRunner
    runner = SweepRunner(jobs=jobs, cache=cache)
    return [point_from_payload(r.payload) for r in runner.run(specs)]


# -- chaos soak ----------------------------------------------------------------
@scenario("chaos-soak")
def _run_chaos_soak(spec: ScenarioSpec) -> dict:
    # Registered here (this module is imported by every backend worker);
    # the harness itself stays a lazy import.
    from .soak import run_soak
    return run_soak(spec)


# -- lease market (market-fig2) ------------------------------------------------
@scenario("market-fig2")
def _run_market(spec: ScenarioSpec) -> dict:
    # Lazy: repro.market imports the scavenger stack; workers only pay
    # for it when a market scenario actually runs.
    from ..market.scenario import run_market
    return run_market(spec)


# -- crash hook ----------------------------------------------------------------
class _PickleHostileError(Exception):
    """Init signature that naive exception pickling cannot rebuild.

    Mirrors errors like a pre-fix ``StoreError``: sent raw across a
    worker's result pipe it could not be rebuilt, masking the cause.
    """

    def __init__(self, code: int, detail: str):
        super().__init__(f"{code}: {detail}")


@scenario("debug-crash")
def _debug_crash(spec: ScenarioSpec) -> dict:
    """Test hook: raise, or kill the worker outright (``hard=True``)."""
    if spec.param("hard", False):
        os._exit(3)
    if spec.param("pickle_hostile", False):
        raise _PickleHostileError(13, "debug-crash scenario failed")
    raise RuntimeError("debug-crash scenario failed (as requested)")


@scenario("debug-flaky")
def _debug_flaky(spec: ScenarioSpec) -> dict:
    """Test hook: misbehave exactly once, then succeed on retry.

    The first execution (no *marker* file yet) drops the marker and
    then, per *mode*, hard-kills its worker (``exit``), sleeps past any
    reasonable task deadline (``hang``), or raises (``raise``).  Every
    later execution returns a fixed payload — which is what the
    scheduler's crash-retry path needs: a deterministic result the
    retried spec must still produce byte-identically.  Only for tests
    and the CI crash-injection lane; never cache a flaky spec.
    """
    import time as _time
    marker = spec.param("marker")
    if marker and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("tripped\n")
        mode = spec.param("mode", "exit")
        if mode == "exit":
            os._exit(3)
        elif mode == "hang":
            _time.sleep(float(spec.param("hang_s", 600.0)))
        else:
            raise RuntimeError("debug-flaky first attempt (as requested)")
    return {"ok": True, "tag": spec.param("tag", 0)}
