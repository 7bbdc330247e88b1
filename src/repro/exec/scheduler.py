"""Work-stealing sweep scheduler: shared queue, liveness, retries.

The parallel backend of :class:`~repro.exec.runner.SweepRunner`: an
explicit shared work queue and long-lived spawn workers, so the parent
has a liveness signal for every worker and a worker death costs one
retried task, not the whole sweep:

* **Work stealing.**  Every worker pulls the next undone spec from one
  shared queue the moment it goes idle, so a straggler cell (a long-α
  fig2 point, a ×64 fabric) never gates the makespan the way a static
  per-worker slice does — fast workers drain the queue instead of
  idling through the straggler's tail.
* **Deterministic priority.**  The queue is loaded longest-expected-
  first: measured wall times from the result store's estimates (keyed
  by spec fingerprint sans salt) when warm, the spec's
  :meth:`~repro.exec.spec.ScenarioSpec.cost_hint` when cold, ties
  broken by spec order.  Ordering is a pure function of the specs and
  the estimate table, so schedules are reproducible.
* **Liveness + deadline/retry.**  Each worker reports over its own
  pipe; the parent polls ``Process.is_alive()`` (a dead worker's pipe
  also reads EOF) and, with a *deadline_s* policy, terminates workers
  whose current task has overrun it.  A spec whose worker died or was killed is requeued
  (up to *max_retries*) and re-executed — deterministic payloads make
  the retry byte-identical — while a spec that *raises* surfaces
  immediately as the same typed :class:`~repro.exec.runner
  .ScenarioError` the serial backend raises.  The upward channel is a
  raw ``Pipe``, not a ``multiprocessing.Queue``, deliberately: queue
  puts go through a feeder thread that a hard worker death
  (``os._exit``, OOM kill) never flushes, which would lose the
  task-start message and with it the knowledge that the dead worker
  had claimed a task — the task would leak and the sweep would hang.
  ``Connection.send`` writes into the kernel pipe synchronously, so
  every message sent before a death is delivered before EOF.
* **Out-of-order completion, in-order results.**  Results stream back
  as workers finish and are re-sequenced to spec order by the caller
  (:meth:`SweepRunner.run` keeps its positional results list), so a
  stealing sweep's output is byte-identical to the serial backend at
  any worker count.

Counters land on :data:`~repro.exec.stats.exec_stats` (``sched_*``) and
the per-task timeline of the last run is kept on
:attr:`WorkStealingScheduler.last_timeline` for benchmark artifacts.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection

from .spec import ScenarioSpec
from .stats import exec_stats

__all__ = ["WorkStealingScheduler", "SchedulerPolicy"]

#: Message kinds on the worker pipes: (kind, worker_id, spec_idx, data).
_START, _OK, _ERR, _BYE = "start", "ok", "err", "bye"


@dataclass(frozen=True)
class SchedulerPolicy:
    """Liveness and retry posture of one scheduler.

    *deadline_s* bounds one task's wall time — a worker overrunning it
    is terminated and its task requeued (None disables deadline kills,
    leaving only death detection); *max_retries* bounds how often one
    spec may be requeued after its worker died before the sweep fails;
    *poll_s* is the parent's result-queue poll period; *join_s* how
    long shutdown waits for a worker before terminating it.

    Independent of per-spec retries, one *run* tolerates at most
    ``max_retries * jobs + jobs`` worker replacements in total: an
    environment where freshly spawned workers die before taking any
    task (a broken spawn entry point, an OOM-killed pool) would
    otherwise respawn forever, making no progress.
    """

    deadline_s: float | None = None
    max_retries: int = 2
    poll_s: float = 0.05
    join_s: float = 5.0

    def max_restarts(self, jobs: int) -> int:
        """The run-wide worker-replacement budget (see class docs)."""
        return (self.max_retries + 1) * jobs


def _worker_main(worker_id: int, task_q, conn) -> None:  # pragma: no cover
    """Worker loop (runs in a spawned process; coverage never sees it).

    Pulls ``(spec_idx, spec)`` tasks until the ``None`` sentinel and
    reports upward over its private pipe — synchronously, so a message
    sent is a message the parent will receive even if this process dies
    the next instruction (the feeder-thread loss the module docstring
    describes).  Executor raises are rendered to strings before crossing
    the boundary (the ``_WorkerFailure`` lesson: exceptions with exotic
    ``__init__`` signatures must never travel raw).
    """
    from .runner import _execute_timed, _failure_message

    try:
        while True:
            task = task_q.get()
            if task is None:
                break
            idx, spec = task
            conn.send((_START, worker_id, idx, None))
            try:
                payload, wall = _execute_timed(spec)
            except Exception as exc:
                conn.send((_ERR, worker_id, idx, _failure_message(exc)))
            else:
                conn.send((_OK, worker_id, idx, (payload, wall)))
    finally:
        try:
            conn.send((_BYE, worker_id, None, None))
        except (OSError, ValueError):
            pass
        conn.close()


class WorkStealingScheduler:
    """Runs scenario specs over *jobs* spawn workers pulling from a
    shared queue; see the module docstring for the contract.

    *estimator*, when given, maps a spec to expected wall seconds (or
    None) — typically ``ResultStore.estimate``.  Results come back as
    ``{spec_idx: (payload, wall_s)}``; the caller re-sequences.
    """

    def __init__(self, jobs: int = 2,
                 policy: SchedulerPolicy | None = None,
                 estimator=None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.policy = policy or SchedulerPolicy()
        self.estimator = estimator
        #: Per-completion records of the last run (benchmark artifact):
        #: dicts of spec index, worker id, wall seconds, attempt count.
        self.last_timeline: list[dict] = []

    # -- priority -----------------------------------------------------------------
    def priority_order(self, specs: list[ScenarioSpec],
                       pending: list[int]) -> list[int]:
        """*pending* reordered longest-expected-first, deterministic.

        Measured estimates rank strictly above cost hints (a measured
        short cell must not be outranked by a hint-flattered one), ties
        break on spec index, so the schedule is a pure function of the
        specs and the estimate table.
        """
        def key(i: int):
            est = self.estimator(specs[i]) if self.estimator else None
            if est is not None:
                return (0, -float(est), i)
            return (1, -specs[i].cost_hint(), i)
        return sorted(pending, key=key)

    # -- execution ----------------------------------------------------------------
    def run(self, specs: list[ScenarioSpec],
            pending: list[int] | None = None) -> dict[int, tuple]:
        """Execute ``specs[i]`` for every pending index *i*.

        Raises :class:`~repro.exec.runner.ScenarioError` when a spec's
        executor raises, or when a spec exhausts its retries after
        worker deaths.  Otherwise returns every pending index mapped to
        its ``(payload, wall_s)``.
        """
        from .runner import ScenarioError

        if pending is None:
            pending = list(range(len(specs)))
        self.last_timeline = []
        if not pending:
            return {}
        order = self.priority_order(specs, pending)
        pol = self.policy
        ctx = multiprocessing.get_context("spawn")
        task_q = ctx.Queue()
        for i in order:
            task_q.put((i, specs[i]))

        workers: dict[int, multiprocessing.Process] = {}
        conns: dict[int, mp_connection.Connection] = {}
        owner: dict[mp_connection.Connection, int] = {}
        in_flight: dict[int, int] = {}      # worker id -> spec idx
        started_at: dict[int, float] = {}   # worker id -> monotonic
        retries: dict[int, int] = {}
        outstanding = set(pending)
        done: dict[int, tuple] = {}
        next_wid = 0
        restarts = 0
        restart_budget = pol.max_restarts(min(self.jobs, len(order)))

        def spawn() -> None:
            nonlocal next_wid
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(next_wid, task_q, writer),
                daemon=True)
            proc.start()
            # Close the parent's copy of the write end: once the worker
            # dies, its pipe then reads EOF instead of blocking forever.
            writer.close()
            workers[next_wid] = proc
            conns[next_wid] = reader
            owner[reader] = next_wid
            exec_stats.sched_workers_spawned += 1
            next_wid += 1

        def requeue(idx: int, why: str) -> None:
            """Put a crashed/killed worker's task back, or give up."""
            retries[idx] = retries.get(idx, 0) + 1
            if retries[idx] > pol.max_retries:
                raise ScenarioError(
                    specs[idx],
                    f"{why} ({retries[idx]} attempts, retries exhausted)")
            exec_stats.sched_requeues += 1
            task_q.put((idx, specs[idx]))

        def drop_conn(wid: int) -> None:
            reader = conns.pop(wid, None)
            if reader is not None:
                owner.pop(reader, None)
                reader.close()

        def reap(wid: int, why: str) -> None:
            """Remove worker *wid*; requeue its task; spawn replacement."""
            nonlocal restarts
            proc = workers.pop(wid)
            if proc.is_alive():
                proc.terminate()
            proc.join(pol.join_s)
            drop_conn(wid)
            started_at.pop(wid, None)
            idx = in_flight.pop(wid, None)
            exec_stats.sched_worker_restarts += 1
            restarts += 1
            if idx is not None and idx in outstanding:
                requeue(idx, why)
            if restarts > restart_budget:
                # Workers keep dying — spawning yet another one cannot
                # make progress (broken entry point, OOM-killed pool).
                raise RuntimeError(
                    f"scheduler gave up: {restarts} worker replacements "
                    f"exceeded the budget of {restart_budget} "
                    f"(last death: {why})")
            if outstanding:
                spawn()

        def pump(timeout: float) -> bool:
            """Handle one ready worker message; False when none ready.

            A pipe at EOF (worker gone, all its messages consumed) also
            counts as ready: the connection is retired here and the
            liveness scan below delivers the death verdict.
            """
            ready = mp_connection.wait(list(conns.values()), timeout)
            if not ready:
                return False
            reader = ready[0]
            wid = owner[reader]
            try:
                kind, _, idx, data = reader.recv()
            except (EOFError, OSError):
                drop_conn(wid)
                return True
            if kind == _START:
                in_flight[wid] = idx
                started_at[wid] = time.monotonic()
            elif kind == _OK:
                in_flight.pop(wid, None)
                started_at.pop(wid, None)
                if idx in outstanding:
                    payload, wall = data
                    done[idx] = (payload, wall)
                    outstanding.discard(idx)
                    self.last_timeline.append({
                        "spec": idx, "worker": wid, "wall_s": wall,
                        "attempts": retries.get(idx, 0) + 1})
            elif kind == _ERR:
                # An executor raise is deterministic: retrying it would
                # fail identically, so fail the sweep fast.
                exec_stats.worker_crashes += 1
                raise ScenarioError(specs[idx], data)
            return True

        for _ in range(min(self.jobs, len(order))):
            spawn()
        try:
            while outstanding:
                pump(pol.poll_s)
                # Drain everything already queued before any liveness
                # verdicts: a dead worker's final start/ok messages may
                # still be in flight, and reaping it as "idle" while its
                # start message waits in the queue would lose the task.
                while pump(0):
                    pass
                for w in list(workers):
                    proc = workers[w]
                    if not proc.is_alive():
                        if w in in_flight:
                            exec_stats.worker_crashes += 1
                            reap(w, "worker process died running it")
                        elif outstanding:
                            reap(w, "worker process died idle")
                    elif (pol.deadline_s is not None and w in started_at
                          and time.monotonic() - started_at[w]
                          > pol.deadline_s):
                        exec_stats.worker_crashes += 1
                        reap(w, f"task deadline {pol.deadline_s}s blown")
        finally:
            self._shutdown(workers, task_q, conns)
        return done

    def _shutdown(self, workers, task_q, conns) -> None:
        """Stop workers (sentinel, bounded join, then terminate)."""
        for _ in workers:
            try:
                task_q.put(None)
            except (OSError, ValueError):  # pragma: no cover
                break
        deadline = time.monotonic() + self.policy.join_s
        for proc in workers.values():
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(self.policy.join_s)
        for reader in conns.values():
            reader.close()
        # Drain so the task queue's feeder thread never blocks exit.
        try:
            while True:
                task_q.get_nowait()
        except (queue_mod.Empty, OSError, ValueError):
            pass
        task_q.close()
        task_q.cancel_join_thread()
