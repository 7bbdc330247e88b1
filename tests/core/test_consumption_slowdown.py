"""Tests for the consumption (Table II) and slowdown (Figs. 3-6) harnesses."""

import pytest

from repro.core import (DeploymentConfig, PlacementPolicy, average_slowdown,
                        footprint_of, normalized, run_scavenging,
                        run_standalone)
from repro.core.slowdown import SlowdownResult, measure_slowdowns
from repro.tenants import ComputePhase, PhasedWorkload, SleepPhase
from repro.units import GB, MB
from repro.workflows import Workflow, dd_bag, montage


class TestFootprint:
    def test_dd_bag_footprint(self):
        wf = dd_bag(n_tasks=10, file_size=10 * MB)
        fp = footprint_of(wf, key_overhead=0.0)
        assert fp == pytest.approx(100 * MB)

    def test_includes_staged_inputs(self):
        wf = montage(width=4)
        fp = footprint_of(wf)
        assert fp > wf.total_output_bytes


class TestConsumption:
    def small_bag(self):
        return dd_bag(n_tasks=16, file_size=64 * MB, compute_seconds=1.0)

    def test_standalone_fits_and_runs(self):
        point = run_standalone(self.small_bag(), n_nodes=2,
                               store_capacity=4 * GB)
        assert point.fits
        assert point.runtime_s > 0
        assert point.node_hours == pytest.approx(
            2 * point.runtime_s / 3600.0)

    def test_standalone_too_small_reports_unable(self):
        point = run_standalone(self.small_bag(), n_nodes=1,
                               store_capacity=512 * MB)
        assert not point.fits

    def test_scavenging_runs_and_counts_only_own_nodes(self):
        point = run_scavenging(self.small_bag(), n_own=1, n_victim=3,
                               victim_memory=2 * GB,
                               own_store_capacity=4 * GB)
        assert point.fits
        assert point.n_nodes == 1
        assert point.node_hours == pytest.approx(point.runtime_s / 3600.0)

    def test_scavenging_capacity_check(self):
        point = run_scavenging(self.small_bag(), n_own=1, n_victim=1,
                               victim_memory=128 * MB,
                               own_store_capacity=512 * MB)
        assert not point.fits

    def test_normalized_rows(self):
        base = run_standalone(self.small_bag(), n_nodes=2,
                              store_capacity=4 * GB)
        scav = run_scavenging(self.small_bag(), n_own=1, n_victim=3,
                              victim_memory=2 * GB,
                              own_store_capacity=4 * GB)
        rows = normalized([base, scav], base)
        assert rows[0]["norm_runtime"] == pytest.approx(1.0)
        assert rows[0]["norm_node_hours"] == pytest.approx(1.0)
        # Fewer reserved nodes -> node-hour savings.
        assert rows[1]["norm_node_hours"] < 1.0

    def test_scavenging_saves_node_hours_like_table2(self):
        """The Table II shape at small scale: runtime grows some, but
        node-hours shrink a lot."""
        wf = self.small_bag()
        base = run_standalone(wf, n_nodes=4, store_capacity=4 * GB)
        scav = run_scavenging(self.small_bag(), n_own=2, n_victim=2,
                              victim_memory=2 * GB,
                              own_store_capacity=4 * GB)
        assert scav.node_hours < base.node_hours


class TestSlowdownHarness:
    def test_compute_only_suite_sees_tiny_slowdown(self):
        cfg = DeploymentConfig(n_own=2, n_victim=4,
                               policy=PlacementPolicy.own_victim(0.25),
                               victim_memory=2 * GB,
                               own_store_capacity=8 * GB,
                               stripe_size=8 * MB)
        suite = lambda n: [PhasedWorkload(
            "calc", [ComputePhase(core_seconds=32 * 5.0, cores=32)])]
        results = measure_slowdowns(
            cfg, suite, lambda i: dd_bag(n_tasks=16, file_size=32 * MB),
            warmup=5.0)
        assert len(results) == 1
        # Compute barely contends with the store's <= 1 core.
        assert abs(results[0].slowdown_pct) < 8.0

    def test_slowdown_result_math(self):
        r = SlowdownResult("x", baseline_s=10.0, loaded_s=11.5)
        assert r.slowdown_pct == pytest.approx(15.0)
        assert SlowdownResult("z", 0.0, 5.0).slowdown_pct == 0.0

    def test_average_slowdown(self):
        rs = [SlowdownResult("a", 10, 11), SlowdownResult("b", 10, 13)]
        assert average_slowdown(rs) == pytest.approx(20.0)
        assert average_slowdown([]) == 0.0
