"""Tests for the availability counters (DESIGN.md §15)."""

import pytest

from repro.faults import avail_stats
from repro.metrics import metrics_registry
from repro.sim import Environment
from repro.sim.monitor import Monitor


@pytest.fixture(autouse=True)
def _reset_stats():
    avail_stats.reset()
    yield
    avail_stats.reset()


def test_counters_snapshot():
    avail_stats.degraded_reads += 3
    avail_stats.record_degraded_read(0.5)
    avail_stats.stripes_lost += 1
    snap = avail_stats.snapshot()
    assert snap["degraded_reads"] == 4
    assert snap["degraded_read_s"] == pytest.approx(0.5)
    assert snap["stripes_lost"] == 1
    assert snap["repairs_completed"] == 0
    assert snap["open_windows"] == 0


def test_mttr_ledger_in_snapshot():
    assert avail_stats.open_window(("/f", ("stripe", 1, 0)), 1.0)
    # Re-opening the same window is not a new degradation.
    assert not avail_stats.open_window(("/f", ("stripe", 1, 0)), 2.0)
    assert avail_stats.snapshot()["open_windows"] == 1
    avail_stats.close_window(("/f", ("stripe", 1, 0)), 4.0)
    snap = avail_stats.snapshot()
    assert snap["open_windows"] == 0
    assert snap["stripes_degraded"] == 1
    assert snap["unavailable_s"] == pytest.approx(3.0)
    assert avail_stats.mttr() == pytest.approx(3.0)


def test_monitor_probes_sample_counters():
    env = Environment()
    mon = Monitor(env, interval=0.1)
    series = metrics_registry.attach(mon, "availability")
    assert "availability.stripe_mttr_s" in series
    mon.start()

    def driver():
        yield env.timeout(0.15)
        avail_stats.degraded_reads += 2
        avail_stats.repair_backlog_bytes = 640.0
        avail_stats.open_window(("/f", ("stripe", 7, 0)), env.now)
        yield env.timeout(0.2)
        mon.stop()

    proc = env.process(driver())
    env.run(until=proc)
    env.run()
    assert series["availability.degraded_reads"].values[0] == 0.0
    assert series["availability.degraded_reads"].last() == 2.0
    assert series["availability.repair_backlog_bytes"].last() == 640.0
    assert series["availability.open_windows"].last() == 1.0


def test_registry_resets_availability():
    avail_stats.degraded_reads += 2
    avail_stats.open_window(("/f", ("stripe", 1, 0)), 0.0)
    metrics_registry.reset()
    assert avail_stats.degraded_reads == 0
    assert avail_stats.open_windows == 0
