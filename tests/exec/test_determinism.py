"""The determinism contract: worker processes == serial, byte for byte.

The multi-process runs go through the work-stealing backend.
Byte-identity is asserted on the canonical JSON of the payloads — the
exact representation the result store keeps — for the Fig. 2 sweep and
an HPCC slowdown suite (baseline + a scavenging workload), both at
reduced scale.
"""

import json

import pytest

from repro.core import DeploymentConfig
from repro.core.experiment import baseline_sweep
from repro.exec import (SweepRunner, fig2_sweep_specs, slowdown_suite_spec)
from repro.units import MB

TINY_CFG = DeploymentConfig(n_own=2, n_victim=6, alpha=0.25)


def _canon(results):
    return json.dumps([r.payload for r in results], sort_keys=True)


class TestFig2Determinism:
    def test_process_equals_serial(self):
        specs = fig2_sweep_specs(n_tasks=8, file_size=16 * MB,
                                 keep_series=True)
        serial = SweepRunner("serial").run(specs)
        parallel = SweepRunner("stealing", jobs=2).run(specs)
        assert _canon(serial) == _canon(parallel)

    def test_sweep_matches_direct_runs(self):
        # The executor path must not perturb the simulation itself.
        from repro.core.experiment import baseline_run
        specs = fig2_sweep_specs(n_tasks=8, file_size=16 * MB)
        results = SweepRunner("serial").run(specs)
        for res in results:
            direct = baseline_run(res.payload["alpha"], n_tasks=8,
                                  file_size=16 * MB)
            assert res.payload["runtime_s"] == direct.runtime_s
            assert res.payload["victim_rx"] == direct.victim_rx


class TestSlowdownDeterminism:
    @pytest.mark.parametrize("workload", [None, "dd"])
    def test_process_equals_serial(self, workload):
        kwargs = {"n_tasks": 4, "file_size": 16 * MB}
        specs = [slowdown_suite_spec(
            TINY_CFG, "hpcc", suite_scale=0.05, workload=workload,
            workload_kwargs=kwargs if workload else None, warmup=3.0)]
        # Two independent scenarios so the worker pool has fan-out.
        specs = specs + [slowdown_suite_spec(
            TINY_CFG, "hpcc", suite_scale=0.1, workload=workload,
            workload_kwargs=kwargs if workload else None, warmup=3.0)]
        serial = SweepRunner("serial").run(specs)
        parallel = SweepRunner("stealing", jobs=2).run(specs)
        assert _canon(serial) == _canon(parallel)
        for res in serial:
            times = res.payload["runtimes_s"]
            assert times and all(t > 0 for t in times.values())


class TestBaselineSweepForwarding:
    def test_monitor_interval_and_keep_series_reach_the_run(self):
        metrics = baseline_sweep(n_tasks=4, file_size=8 * MB,
                                 alphas=(0.5,), monitor_interval=0.25,
                                 keep_series=True)
        series = metrics[0].series
        assert "victim.rx" in series
        times, values = series["victim.rx"]
        assert len(times) == len(values) > 0
        # 0.25 s sampling: consecutive stamps advance by the interval.
        if len(times) > 1:
            assert times[1] - times[0] == pytest.approx(0.25)

    def test_series_dropped_by_default(self):
        metrics = baseline_sweep(n_tasks=4, file_size=8 * MB,
                                 alphas=(0.5,))
        assert metrics[0].series == {}
