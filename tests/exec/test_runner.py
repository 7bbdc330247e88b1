"""SweepRunner: backends, ordering, store integration, crash surfacing."""

import json

import pytest

from repro.exec import (ResultStore, ScenarioError, ScenarioSpec,
                        SchedulerPolicy, SweepRunner, exec_stats, fig2_spec)
from repro.units import MB

TINY = dict(n_tasks=4, file_size=4 * MB)


def _payloads(results):
    return json.dumps([r.payload for r in results], sort_keys=True)


class TestSerialBackend:
    def test_runs_in_spec_order(self):
        specs = [fig2_spec(a, **TINY) for a in (0.5, 0.0, 1.0)]
        results = SweepRunner("serial").run(specs)
        assert [r.spec for r in results] == specs
        assert [r.payload["alpha"] for r in results] == [0.5, 0.0, 1.0]
        assert all(not r.cached and r.wall_s > 0 for r in results)
        assert exec_stats.scenarios_run == 3
        assert exec_stats.sweeps_serial == 1

    def test_unknown_kind_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="unknown scenario kind"):
            SweepRunner("serial").run([ScenarioSpec.make("nonesuch")])
        assert exec_stats.worker_crashes == 1

    def test_executor_raise_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="debug-crash"):
            SweepRunner("serial").run([ScenarioSpec.make("debug-crash")])

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner("threads")
        with pytest.raises(ValueError):
            SweepRunner("process")  # the one fan-out backend is stealing
        with pytest.raises(ValueError):
            SweepRunner("stealing", jobs=0)

    def test_backend_follows_jobs(self):
        assert SweepRunner().backend == "serial"
        assert SweepRunner(jobs=1).backend == "serial"
        assert SweepRunner(jobs=2).backend == "stealing"

    def test_scenario_error_pickles(self):
        import pickle

        err = pickle.loads(pickle.dumps(
            ScenarioError(fig2_spec(0.5, **TINY), "boom")))
        assert err.message == "boom"
        assert err.spec.param("alpha") == 0.5
        assert "failed: boom" in str(err)


class TestProcessBackend:
    """Worker-process execution as callers reach it: ``jobs > 1`` with
    no backend named (the stealing scheduler's spawn workers)."""

    def test_matches_serial_byte_for_byte(self):
        specs = [fig2_spec(a, **TINY, keep_series=True)
                 for a in (0.0, 0.5, 1.0)]
        serial = SweepRunner().run(specs)
        runner = SweepRunner(jobs=2, auto_fallback=False)
        parallel = runner.run(specs)
        assert runner.backend == "stealing"
        assert _payloads(serial) == _payloads(parallel)
        assert [r.spec for r in parallel] == specs
        assert exec_stats.sched_workers_spawned == 2

    def test_soft_crash_surfaces_typed(self):
        specs = [fig2_spec(0.5, **TINY),
                 ScenarioSpec.make("debug-crash")]
        with pytest.raises(ScenarioError, match="debug-crash"):
            SweepRunner(jobs=2, auto_fallback=False).run(specs)
        assert exec_stats.worker_crashes == 1
        assert exec_stats.sched_requeues == 0  # a raise is never retried

    def test_worker_death_surfaces_typed(self):
        # hard=True makes the worker os._exit(3); with no retries left
        # the runner must surface it as ScenarioError, not hang.
        specs = [ScenarioSpec.make("debug-crash", hard=True),
                 ScenarioSpec.make("debug-crash", hard=True, tag=1)]
        runner = SweepRunner(jobs=2, auto_fallback=False,
                             policy=SchedulerPolicy(max_retries=0))
        with pytest.raises(ScenarioError, match="worker process died"):
            runner.run(specs)
        assert exec_stats.worker_crashes == 1

    def test_single_pending_scenario_stays_in_process(self):
        # Degenerate fan-out of one: not worth a worker process.
        results = SweepRunner(jobs=4, auto_fallback=False).run(
            [fig2_spec(0.5, **TINY)])
        assert results[0].payload["alpha"] == 0.5
        assert exec_stats.scenarios_run == 1
        assert exec_stats.sched_workers_spawned == 0


class TestAutoFallback:
    def test_single_cpu_falls_back_to_serial(self, monkeypatch, caplog):
        monkeypatch.setattr("repro.exec.runner.os.cpu_count", lambda: 1)
        specs = [fig2_spec(a, **TINY) for a in (0.0, 1.0)]
        with caplog.at_level("INFO", logger="repro.exec.runner"):
            results = SweepRunner("stealing", jobs=2).run(specs)
        assert [r.payload["alpha"] for r in results] == [0.0, 1.0]
        assert exec_stats.serial_fallbacks == 1
        assert exec_stats.sweeps_serial == 1
        assert exec_stats.sweeps_stealing == 0
        assert exec_stats.sched_workers_spawned == 0
        notes = [r for r in caplog.records if "serial backend" in r.message]
        assert len(notes) == 1

    def test_fallback_matches_process_byte_for_byte(self, monkeypatch):
        # Worker processes (stealing) vs the single-CPU serial fallback.
        specs = [fig2_spec(a, **TINY, keep_series=True) for a in (0.0, 1.0)]
        stealing = SweepRunner("stealing", jobs=2,
                               auto_fallback=False).run(specs)
        monkeypatch.setattr("repro.exec.runner.os.cpu_count", lambda: 1)
        fallback = SweepRunner("stealing", jobs=2).run(specs)
        assert _payloads(stealing) == _payloads(fallback)

    def test_multi_cpu_keeps_the_stealing_backend(self, monkeypatch):
        monkeypatch.setattr("repro.exec.runner.os.cpu_count", lambda: 4)
        specs = [fig2_spec(a, **TINY) for a in (0.0, 1.0)]
        results = SweepRunner("stealing", jobs=2).run(specs)
        assert [r.payload["alpha"] for r in results] == [0.0, 1.0]
        assert exec_stats.serial_fallbacks == 0
        assert exec_stats.sweeps_stealing == 1

    def test_oversubscribed_jobs_clamped_to_cpu_count(self, monkeypatch):
        import repro.exec.scheduler as sched_mod

        monkeypatch.setattr("repro.exec.runner.os.cpu_count", lambda: 2)
        seen = {}
        real_init = sched_mod.WorkStealingScheduler.__init__

        def spy_init(self, jobs=2, **kwargs):
            seen["jobs"] = jobs
            real_init(self, jobs=jobs, **kwargs)

        monkeypatch.setattr(sched_mod.WorkStealingScheduler, "__init__",
                            spy_init)
        specs = [fig2_spec(a, **TINY) for a in (0.0, 0.5, 1.0)]
        SweepRunner("stealing", jobs=8).run(specs)
        assert seen["jobs"] == 2
        assert exec_stats.sched_workers_spawned == 2

    def test_opt_out_keeps_real_workers(self, monkeypatch):
        monkeypatch.setattr("repro.exec.runner.os.cpu_count", lambda: 1)
        runner = SweepRunner("stealing", jobs=2, auto_fallback=False)
        assert runner._effective_backend() == "stealing"
        assert exec_stats.serial_fallbacks == 0


class TestCacheIntegration:
    def test_warm_run_executes_nothing(self, store_dir):
        specs = [fig2_spec(a, **TINY) for a in (0.0, 0.5, 1.0)]
        store = ResultStore(salt="v1")
        cold = SweepRunner("serial", cache=store).run(specs)
        assert exec_stats.scenarios_run == 3
        assert exec_stats.store_stores == 3
        warm = SweepRunner("serial", cache=store).run(specs)
        assert exec_stats.scenarios_run == 3  # unchanged: zero new sims
        assert exec_stats.store_hits == 3
        assert all(r.cached for r in warm)
        assert _payloads(cold) == _payloads(warm)

    def test_stealing_backend_reads_and_feeds_the_store(self, store_dir):
        specs = [fig2_spec(a, **TINY) for a in (0.0, 0.5, 1.0)]
        store = ResultStore(salt="v1")
        cold = SweepRunner("stealing", jobs=2, cache=store,
                           auto_fallback=False).run(specs)
        warm = SweepRunner("serial", cache=store).run(specs)
        assert all(r.cached for r in warm)
        assert _payloads(cold) == _payloads(warm)

    def test_partial_warmth_runs_only_the_new_specs(self, store_dir):
        store = ResultStore(salt="v1")
        SweepRunner("serial", cache=store).run([fig2_spec(0.0, **TINY)])
        exec_stats.reset()
        specs = [fig2_spec(0.0, **TINY), fig2_spec(1.0, **TINY)]
        results = SweepRunner("serial", cache=store).run(specs)
        assert [r.cached for r in results] == [True, False]
        assert exec_stats.scenarios_run == 1
