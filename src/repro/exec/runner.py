"""Sweep execution: the serial and work-stealing backends.

``serial`` executes scenarios in-process in spec order; ``stealing``
fans them out over spawn workers pulling from a shared priority queue
(:class:`~repro.exec.scheduler.WorkStealingScheduler`).  Results always
come back in **spec order** regardless of completion order, and a
failed scenario surfaces as a typed :class:`ScenarioError` naming the
spec, never a hung sweep.
"""

from __future__ import annotations

import logging
import os
import time
import traceback
from dataclasses import dataclass

from .scenarios import run_scenario
from .spec import ScenarioSpec
from .stats import exec_stats
from .store import ResultStore

__all__ = ["SweepRunner", "ScenarioResult", "ScenarioError"]

BACKENDS = ("serial", "stealing")

_log = logging.getLogger(__name__)


class ScenarioError(RuntimeError):
    """One scenario of a sweep failed (executor raise or worker death)."""

    def __init__(self, spec: ScenarioSpec, message: str):
        super().__init__(f"scenario {spec.label()!r} failed: {message}")
        self.spec = spec
        self.message = message

    def __reduce__(self):
        # args hold the formatted string, which default exception
        # pickling would feed back into __init__ as *spec*.
        return (type(self), (self.spec, self.message))


@dataclass
class ScenarioResult:
    """One scenario's JSON-safe payload plus execution provenance."""

    spec: ScenarioSpec
    payload: dict
    cached: bool = False
    wall_s: float = 0.0


class _WorkerFailure(Exception):
    """Picklable carrier for an executor raise inside a worker.

    Exceptions whose ``args`` don't match their ``__init__`` signature
    (or that hold unpicklable state) cannot be rebuilt on the parent's
    side of a worker pipe, losing the real cause.  The worker therefore
    never lets the original exception cross the boundary: it sends its
    rendered form instead.
    """

    def __init__(self, description: str):
        super().__init__(description)


def _execute_timed(spec: ScenarioSpec) -> tuple[dict, float]:
    """Top-level so spawn workers can pickle it by reference."""
    t0 = time.perf_counter()
    try:
        payload = run_scenario(spec)
    except Exception as exc:
        tb = "".join(traceback.format_exception(exc)).rstrip()
        raise _WorkerFailure(f"{exc!r}\n{tb}") from None
    return payload, time.perf_counter() - t0


def _failure_message(exc: Exception) -> str:
    return str(exc) if isinstance(exc, _WorkerFailure) else repr(exc)


class SweepRunner:
    """Runs independent scenarios, optionally in parallel and cached.

    ``backend="serial"`` executes in-process in spec order;
    ``backend="stealing"`` fans out over *jobs* long-lived spawn workers
    pulling from a shared priority queue
    (:class:`~repro.exec.scheduler.WorkStealingScheduler`) with
    heartbeats and crash retries.  Unnamed, the backend follows from
    *jobs*: ``stealing`` above one job, ``serial`` otherwise.  With a
    :class:`ResultStore` as *cache*, stored scenarios are answered
    without executing anything, fresh payloads are stored on the way
    out, and the store's runtime estimates drive the stealing queue's
    longest-expected-first order.  Both backends produce byte-identical
    payloads, so store entries are backend-agnostic.

    With *auto_fallback* (the default), a stealing sweep on a
    single-CPU host silently degrades to the serial backend: spawning
    workers there can only add interpreter-startup overhead, and
    payloads are byte-identical either way.  Requesting more jobs than
    CPUs is likewise clamped to the CPU count.  Crash-semantics tests
    that *need* real worker processes pass ``auto_fallback=False``.
    """

    def __init__(self, backend: str | None = None, jobs: int | None = None,
                 cache: ResultStore | None = None,
                 auto_fallback: bool = True, policy=None):
        if backend is None:
            backend = "stealing" if (jobs or 1) > 1 else "serial"
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"choose from {BACKENDS}")
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.backend = backend
        self.jobs = jobs
        self.cache = cache
        self.auto_fallback = auto_fallback
        #: Optional :class:`~repro.exec.scheduler.SchedulerPolicy` for
        #: the stealing backend (heartbeat/deadline/retry posture).
        self.policy = policy
        #: The last stealing run's per-task completion timeline
        #: (benchmark artifact); empty for the serial backend.
        self.last_timeline: list[dict] = []

    def _effective_backend(self) -> str:
        if (self.backend == "stealing" and self.auto_fallback
                and (os.cpu_count() or 1) <= 1):
            exec_stats.serial_fallbacks += 1
            _log.info(
                "SweepRunner: single-CPU host; running the sweep on the "
                "serial backend (worker fan-out would only add spawn "
                "overhead; results are byte-identical)")
            return "serial"
        return self.backend

    def run(self, specs: list[ScenarioSpec]) -> list[ScenarioResult]:
        """Execute *specs*; results come back in spec order."""
        specs = list(specs)
        backend = self._effective_backend()
        if backend == "stealing":
            exec_stats.sweeps_stealing += 1
        else:
            exec_stats.sweeps_serial += 1
        results: list[ScenarioResult | None] = [None] * len(specs)
        pending: list[int] = []
        for i, spec in enumerate(specs):
            payload = (self.cache.get(spec)
                       if self.cache is not None else None)
            if payload is not None:
                results[i] = ScenarioResult(spec, payload, cached=True)
            else:
                pending.append(i)
        if pending:
            if backend == "stealing" and len(pending) > 1:
                self._run_stealing(specs, pending, results)
            else:
                self._run_serial(specs, pending, results)
            if self.cache is not None:
                for i in pending:
                    self.cache.put(specs[i], results[i].payload,
                                   wall_s=results[i].wall_s)
        return results  # type: ignore[return-value]

    # -- backends -----------------------------------------------------------------
    def _run_serial(self, specs, pending, results) -> None:
        for i in pending:
            try:
                payload, wall = _execute_timed(specs[i])
            except Exception as exc:
                exec_stats.worker_crashes += 1
                raise ScenarioError(specs[i],
                                    _failure_message(exc)) from exc
            exec_stats.scenarios_run += 1
            results[i] = ScenarioResult(specs[i], payload, wall_s=wall)

    def _run_stealing(self, specs, pending, results) -> None:
        from .scheduler import WorkStealingScheduler

        cpus = os.cpu_count() or 1
        jobs = min(self.jobs or cpus, len(pending))
        if self.auto_fallback and jobs > cpus:
            # Oversubscribed: clamp instead of thrashing the host.
            jobs = cpus
        scheduler = WorkStealingScheduler(
            jobs=jobs, policy=self.policy,
            estimator=self.cache.estimate if self.cache is not None
            else None)
        done = scheduler.run(specs, pending)
        self.last_timeline = scheduler.last_timeline
        for i in pending:
            payload, wall = done[i]
            exec_stats.scenarios_run += 1
            results[i] = ScenarioResult(specs[i], payload, wall_s=wall)
