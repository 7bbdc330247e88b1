"""WorkStealingScheduler: priority, byte-identity, retries, deadlines.

Spawn workers are slow to start (~1 s each on this container), so the
live tests keep worker counts and spec lists small; the determinism
contract itself (stealing == serial byte-for-byte) is what matters, not
scale.  ``auto_fallback=False`` everywhere: the CI box may have one CPU
and the runner would otherwise downgrade stealing to serial.
"""

import json

import pytest

from repro.exec import (ResultStore, ScenarioError, ScenarioSpec,
                        SchedulerPolicy, SweepRunner,
                        WorkStealingScheduler, exec_stats, fig2_spec)
from repro.units import MB

TINY = dict(n_tasks=4, file_size=4 * MB)


def _payloads(results):
    return json.dumps([r.payload for r in results], sort_keys=True)


class TestPriorityOrder:
    def test_cold_queue_orders_by_cost_hint(self):
        specs = [ScenarioSpec.make("fig2", n_tasks=2, file_size=1 * MB),
                 ScenarioSpec.make("fig2", n_tasks=64, file_size=1 * MB),
                 ScenarioSpec.make("fig2", n_tasks=8, file_size=1 * MB)]
        order = WorkStealingScheduler().priority_order(specs, [0, 1, 2])
        assert order == [1, 2, 0]

    def test_hint_ties_keep_spec_order(self):
        specs = [ScenarioSpec.make("fig2", tag=i) for i in range(4)]
        order = WorkStealingScheduler().priority_order(specs, [0, 1, 2, 3])
        assert order == [0, 1, 2, 3]

    def test_measured_estimates_outrank_hints(self):
        specs = [ScenarioSpec.make("fig2", n_tasks=2),     # measured: slow
                 ScenarioSpec.make("fig2", n_tasks=4096)]  # hinted: huge
        estimates = {specs[0].spec_key(): 9.0}

        def estimator(spec):
            return estimates.get(spec.spec_key())

        sched = WorkStealingScheduler(estimator=estimator)
        # The measured-slow spec leads even though its hint is tiny: a
        # real wall time beats a hint-flattered guess.
        assert sched.priority_order(specs, [0, 1]) == [0, 1]

    def test_order_is_deterministic(self, store_dir):
        store = ResultStore(salt="v1")
        specs = [fig2_spec(a, **TINY) for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
        store.record_estimate(specs[3], 7.0)
        sched = WorkStealingScheduler(estimator=store.estimate)
        first = sched.priority_order(specs, list(range(5)))
        assert first[0] == 3
        assert first == sched.priority_order(specs, list(range(5)))

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkStealingScheduler(jobs=0)


class TestStealingBackend:
    def test_matches_serial_byte_for_byte(self):
        specs = [fig2_spec(a, **TINY, keep_series=True)
                 for a in (0.0, 0.5, 1.0)]
        serial = SweepRunner("serial").run(specs)
        stealing = SweepRunner("stealing", jobs=2,
                               auto_fallback=False).run(specs)
        assert _payloads(serial) == _payloads(stealing)
        assert [r.spec for r in stealing] == specs
        assert exec_stats.sweeps_stealing == 1
        assert exec_stats.sched_workers_spawned == 2
        assert exec_stats.sched_heartbeats > 0

    def test_timeline_records_every_completion(self):
        specs = [fig2_spec(a, **TINY) for a in (0.0, 1.0)]
        runner = SweepRunner("stealing", jobs=2, auto_fallback=False)
        runner.run(specs)
        assert sorted(t["spec"] for t in runner.last_timeline) == [0, 1]
        assert all(t["attempts"] == 1 and t["wall_s"] > 0
                   for t in runner.last_timeline)

    def test_single_pending_spec_stays_in_process(self):
        runner = SweepRunner("stealing", jobs=4, auto_fallback=False)
        results = runner.run([fig2_spec(0.5, **TINY)])
        assert results[0].payload["alpha"] == 0.5
        assert exec_stats.sched_workers_spawned == 0

    def test_executor_raise_fails_fast_and_typed(self):
        specs = [ScenarioSpec.make("debug-crash"),
                 ScenarioSpec.make("debug-crash", tag=1)]
        with pytest.raises(ScenarioError, match="debug-crash"):
            SweepRunner("stealing", jobs=2, auto_fallback=False).run(specs)
        assert exec_stats.worker_crashes == 1

    def test_pickle_hostile_exception_keeps_its_cause(self):
        # An executor exception that cannot cross the worker pipe raw
        # (args/__init__ mismatch) must still surface with its real
        # message, not dissolve into a worker-death retry.
        specs = [ScenarioSpec.make("debug-crash", pickle_hostile=True),
                 ScenarioSpec.make("debug-crash", pickle_hostile=True,
                                   tag=1)]
        with pytest.raises(ScenarioError,
                           match="13: debug-crash scenario failed") as err:
            SweepRunner("stealing", jobs=2, auto_fallback=False).run(specs)
        assert "retries exhausted" not in str(err.value)
        assert exec_stats.sched_requeues == 0


class TestCrashRecovery:
    def test_worker_death_is_retried_to_success(self, tmp_path):
        marker = tmp_path / "flaky.marker"
        specs = [ScenarioSpec.make("debug-flaky", marker=str(marker),
                                   mode="exit", tag=7),
                 ScenarioSpec.make("debug-flaky", tag=8)]
        results = SweepRunner("stealing", jobs=2,
                              auto_fallback=False).run(specs)
        assert marker.exists()  # the first attempt really tripped
        assert [r.payload["tag"] for r in results] == [7, 8]
        assert exec_stats.sched_requeues == 1
        assert exec_stats.sched_worker_restarts >= 1
        assert exec_stats.worker_crashes == 1

    def test_retries_exhausted_surfaces_typed(self):
        spec = ScenarioSpec.make("debug-crash", hard=True)
        sched = WorkStealingScheduler(
            jobs=1, policy=SchedulerPolicy(max_retries=1))
        with pytest.raises(ScenarioError, match="retries exhausted"):
            sched.run([spec])
        assert exec_stats.sched_requeues == 1  # one retry, then give up

    def test_deadline_kill_requeues_and_succeeds(self, tmp_path):
        marker = tmp_path / "hang.marker"
        spec = ScenarioSpec.make("debug-flaky", marker=str(marker),
                                 mode="hang", hang_s=600.0, tag=3)
        sched = WorkStealingScheduler(
            jobs=1, policy=SchedulerPolicy(deadline_s=2.0))
        done = sched.run([spec])
        assert done[0][0] == {"ok": True, "tag": 3}
        assert exec_stats.sched_requeues == 1
        assert sched.last_timeline[0]["attempts"] == 2


class TestRestartBudget:
    def test_budget_scales_with_retries_and_jobs(self):
        assert SchedulerPolicy(max_retries=2).max_restarts(2) == 6
        assert SchedulerPolicy(max_retries=0).max_restarts(4) == 4

    def test_empty_pending_is_a_noop(self):
        assert WorkStealingScheduler(jobs=2).run([], []) == {}
        assert exec_stats.sched_workers_spawned == 0
