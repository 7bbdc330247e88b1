"""Slowdown measurement: paired tenant runs with and without scavenging.

The paper's Figs. 3-5 report, per tenant benchmark, the runtime ratio
between a run while MemFSS scavenges the tenant's nodes and an undisturbed
run.  Here both runs use identical seeds and fresh deployments so the only
difference is the scavenging traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..tenants import PhasedWorkload, TenantRun, run_tenant
from ..workflows import Workflow
from .deployment import DeploymentConfig, MemFSSDeployment

__all__ = ["SlowdownResult", "measure_slowdowns", "average_slowdown",
           "BackgroundWorkload"]


@dataclass
class SlowdownResult:
    """Per-benchmark baseline/loaded runtimes and the slowdown percent."""

    benchmark: str
    baseline_s: float
    loaded_s: float

    @property
    def slowdown_pct(self) -> float:
        if self.baseline_s <= 0:
            return 0.0
        return (self.loaded_s / self.baseline_s - 1.0) * 100.0


def average_slowdown(results: list[SlowdownResult]) -> float:
    """Mean slowdown percentage across benchmarks (Fig. 6)."""
    if not results:
        return 0.0
    return sum(r.slowdown_pct for r in results) / len(results)


class BackgroundWorkload:
    """Loops a MemFSS workflow on the own nodes for the experiment's
    duration.

    Mirrors the mid-execution state of the paper's co-location runs:
    first a **resident set** is written so the victim stores hold a
    steady multi-GB footprint (a long-running workflow's live
    intermediate data — the memory-capacity channel behind DFSIO-read's
    page-cache and Spark's GC effects), then the workflow loops, its
    outputs unlinked between iterations so the transient traffic stays
    steady without ever exceeding capacity.
    """

    RESIDENT_PREFIX = "/resident"

    def __init__(self, deployment: MemFSSDeployment,
                 workflow_factory: Callable[[int], Workflow],
                 resident_bytes: float | None = None,
                 slots_per_node: int = 8):
        self.deployment = deployment
        self.workflow_factory = workflow_factory
        if resident_bytes is None:
            # 80% of the offer: a steady multi-GB footprint; the loop
            # below tolerates transient overflows of the remaining
            # headroom (victim placement is balanced, not perfect).
            cfg = deployment.config
            resident_bytes = 0.8 * cfg.n_victim * cfg.victim_memory
        self.resident_bytes = resident_bytes
        # A background loop needs steady traffic, not task concurrency;
        # fewer slots keep the event count (and wall time) down without
        # changing the FUSE-bound throughput.
        from ..workflows import WorkflowEngine
        self.engine = WorkflowEngine(deployment.env, deployment.fs,
                                     slots_per_node=slots_per_node)
        self.iterations = 0
        self._stop = False
        self._proc = None

    def start(self) -> None:
        self._prefill()
        env = self.deployment.env
        self._proc = env.process(self._loop(), name="background-workflow")

    def stop(self) -> None:
        self._stop = True

    def _prefill(self) -> None:
        """Instantly install the resident set on the victim stores.

        This is experiment *setup* — the state a long-running workflow
        would have accumulated before the tenant measurement starts — so
        it costs no simulated time (and no wall time to speak of).
        """
        if self.resident_bytes <= 0 or not self.deployment.victims:
            return
        fs = self.deployment.fs
        per_victim = self.resident_bytes / len(self.deployment.victims)
        for v in self.deployment.victims:
            server = fs.servers.get(v.name)
            if server is None:
                continue
            fill = min(per_victim,
                       server.kv.free_bytes - server.kv.key_overhead)
            if fill <= 0:
                continue
            server.kv.put(("resident", v.name), nbytes=fill)
            server._sync_memory()

    def _loop(self):
        from ..store import StoreError, StoreErrorCode
        eng = self.engine
        fs = self.deployment.fs
        agent = fs.own_nodes[0]
        while not self._stop:
            wf = self.workflow_factory(self.iterations)
            try:
                yield from eng.stage_in(wf)
                yield from eng.run(wf)
            except StoreError as exc:
                # Mis-addressed requests would loop forever here; anything
                # capacity- or availability-shaped (a store filled up on
                # nearly-full victims, a victim died mid-iteration) is the
                # expected churn of background load: the real system
                # backpressures; we clean this iteration's files and
                # carry on.
                if exc.code in (StoreErrorCode.AUTH,
                                StoreErrorCode.BAD_REQUEST):
                    raise
            self.iterations += 1
            # Clear the iteration's files (the resident set stays).
            paths = yield from fs.list_all_files(agent)
            for path in paths:
                if self._stop:
                    break
                if path.startswith(self.RESIDENT_PREFIX):
                    continue
                try:
                    yield from fs.unlink(agent, path)
                except Exception:
                    continue


def _run_suite(deployment: MemFSSDeployment,
               suite: list[PhasedWorkload]) -> dict[str, float]:
    """Run the benchmarks back-to-back on the victim nodes; return
    per-benchmark runtimes."""
    env = deployment.env
    times: dict[str, float] = {}

    def driver():
        for wl in suite:
            run: TenantRun = yield from run_tenant(
                env, wl, deployment.victims, deployment.cluster.fabric,
                deployment.probe, owner=f"tenant:{wl.name}")
            times[wl.name] = run.runtime

    proc = env.process(driver(), name="tenant-suite")
    env.run(until=proc)
    return times


def measure_slowdowns(config: DeploymentConfig,
                      suite_factory: Callable[[int], list[PhasedWorkload]],
                      workflow_factory: Callable[[int], Workflow] | None,
                      warmup: float = 60.0) -> list[SlowdownResult]:
    """Fig. 3/4/5 harness.

    Two fresh deployments with identical *config*: the baseline runs the
    tenant suite with the scavenging stores idle; the loaded run loops
    *workflow_factory* on the own nodes throughout, given *warmup*
    simulated seconds to reach steady state before the suite starts (the
    real experiments also measure against an already-running workflow).
    Returns one :class:`SlowdownResult` per benchmark.
    """
    # Baseline: same deployment shape, no MemFSS traffic.
    base = MemFSSDeployment(config)
    base_times = _run_suite(base, suite_factory(len(base.victims)))

    loaded = MemFSSDeployment(config)
    background = None
    if workflow_factory is not None:
        background = BackgroundWorkload(loaded, workflow_factory)
        background.start()
        loaded.env.run(until=loaded.env.now + warmup)
    loaded_times = _run_suite(loaded, suite_factory(len(loaded.victims)))
    if background is not None:
        background.stop()

    return [SlowdownResult(benchmark=name,
                           baseline_s=base_times[name],
                           loaded_s=loaded_times[name])
            for name in base_times]
