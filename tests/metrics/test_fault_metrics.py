"""Tests for the fault/recovery counters and their monitor series."""

import pytest

from repro.faults import fault_stats
from repro.metrics import metrics_registry
from repro.sim import Environment
from repro.sim.monitor import Monitor


@pytest.fixture(autouse=True)
def _reset_stats():
    fault_stats.reset()
    yield
    fault_stats.reset()


def test_counters_snapshot_includes_mttr_and_open_faults():
    fault_stats.record_fault("node3", 1.0)
    fault_stats.record_recovery("node3", 3.5)
    snap = fault_stats.snapshot()
    assert snap["faults_injected"] == 1
    assert snap["recoveries"] == 1
    assert snap["mttr_s"] == pytest.approx(2.5)
    assert snap["open_faults"] == 0


def test_open_fault_pairing_uses_earliest_injection():
    fault_stats.record_fault("n", 1.0)
    fault_stats.record_fault("n", 2.0)   # same site, still one outage
    assert fault_stats.faults_injected == 2
    fault_stats.record_recovery("n", 4.0)
    assert fault_stats.repair_times == [3.0]
    # Recovering an unknown site is a no-op.
    fault_stats.record_recovery("ghost", 5.0)
    assert fault_stats.recoveries == 1


def test_resolve_open_closes_everything():
    fault_stats.record_fault("a", 0.0)
    fault_stats.record_fault("b", 1.0)
    assert set(fault_stats.open_faults) == {"a", "b"}
    assert fault_stats.resolve_open(2.0) == 2
    assert fault_stats.open_faults == ()
    assert sorted(fault_stats.repair_times) == [1.0, 2.0]


def test_monitor_probes_sample_counters():
    env = Environment()
    mon = Monitor(env, interval=0.1)
    series = metrics_registry.attach(mon, "faults")
    mon.start()

    def driver():
        yield env.timeout(0.15)
        fault_stats.retries += 3
        fault_stats.record_fault("x", env.now)
        yield env.timeout(0.2)
        mon.stop()

    proc = env.process(driver())
    env.run(until=proc)
    env.run()
    assert series["faults.retries"].last() == 3.0
    assert series["faults.open_faults"].last() == 1.0
    assert series["faults.retries"].values[0] == 0.0
