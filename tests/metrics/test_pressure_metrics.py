"""Tests for the capacity-pressure counters and fill-ratio gauges."""

import pytest

from repro.core import DeploymentConfig, MemFSSDeployment
from repro.fs import pressure_stats
from repro.metrics import (attach_fill_probes, class_fill_ratios,
                           metrics_registry)
from repro.sim import Environment
from repro.sim.monitor import Monitor
from repro.units import GB, MB


@pytest.fixture(autouse=True)
def _reset_stats():
    pressure_stats.reset()
    yield
    pressure_stats.reset()


def test_counters_snapshot():
    pressure_stats.spilled_writes += 2
    pressure_stats.spill_distance += 5
    snap = pressure_stats.snapshot()
    assert snap["spilled_writes"] == 2
    assert snap["spill_distance"] == 5
    assert snap["writes_checked"] == 0


def test_monitor_probes_sample_counters():
    env = Environment()
    mon = Monitor(env, interval=0.1)
    series = metrics_registry.attach(mon, "pressure")
    mon.start()

    def driver():
        yield env.timeout(0.15)
        pressure_stats.spilled_writes += 4
        pressure_stats.spill_distance += 6
        yield env.timeout(0.2)
        mon.stop()

    proc = env.process(driver())
    env.run(until=proc)
    env.run()
    assert series["pressure.spilled_writes"].last() == 4.0
    assert series["pressure.spilled_writes"].values[0] == 0.0
    assert series["pressure.spill_distance"].last() == 6.0


def test_fill_probes_track_per_class_fill():
    dep = MemFSSDeployment(DeploymentConfig(
        n_own=2, n_victim=3, victim_memory=1 * GB,
        own_store_capacity=2 * GB, stripe_size=8 * MB))
    ratios = class_fill_ratios(dep.fs)
    assert set(ratios) == {"own", "victim"}
    assert all(r == 0.0 for r in ratios.values())

    def writer():
        yield from dep.fs.write_file(dep.own[0], "/blob",
                                     nbytes=64 * MB)

    proc = dep.env.process(writer())
    dep.env.run(until=proc)
    after = class_fill_ratios(dep.fs)
    assert any(r > 0.0 for r in after.values())
    assert all(0.0 <= r <= 1.0 for r in after.values())

    mon = Monitor(dep.env, interval=0.1)
    series = attach_fill_probes(mon, dep.fs)
    assert set(series) == {"fill.own", "fill.victim"}


def test_fill_ratio_skips_dead_stores():
    dep = MemFSSDeployment(DeploymentConfig(
        n_own=2, n_victim=2, victim_memory=1 * GB,
        own_store_capacity=2 * GB))
    victim = dep.victims[0].name
    dep.manager.handle_crash(victim)
    ratios = class_fill_ratios(dep.fs)
    assert 0.0 <= ratios["victim"] <= 1.0
