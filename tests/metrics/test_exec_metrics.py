"""Executor counters, read directly and through the metrics registry."""

from repro.exec import ResultStore, SweepRunner, exec_stats, fig2_spec
from repro.metrics import metrics_registry
from repro.sim import Environment, Monitor
from repro.units import MB


class TestExecCounters:
    def test_snapshot_tracks_a_sweep(self, tmp_path):
        exec_stats.reset()
        store = ResultStore(root=tmp_path, salt="v1")
        specs = [fig2_spec(a, n_tasks=4, file_size=4 * MB)
                 for a in (0.0, 1.0)]
        SweepRunner("serial", cache=store).run(specs)
        SweepRunner("serial", cache=store).run(specs)
        counters = exec_stats.snapshot()
        assert counters["scenarios_run"] == 2
        assert counters["store_misses"] == 2
        assert counters["store_hits"] == 2
        assert counters["sweeps_serial"] == 2

    def test_probes_sample_every_counter(self):
        exec_stats.reset()
        env = Environment()
        mon = Monitor(env, interval=1.0)
        series = metrics_registry.attach(mon, "exec")
        assert set(series) == {f"exec.{f}" for f in exec_stats._COUNTERS}
        exec_stats.store_hits += 3

        def driver():
            yield env.timeout(1.0)

        mon.start()
        proc = env.process(driver())
        env.run(until=proc)
        mon.stop()
        env.run()
        assert mon.series["exec.store_hits"].last() == 3.0
