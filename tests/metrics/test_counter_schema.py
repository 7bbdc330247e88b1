"""The counter schema every registered ``*_stats`` object exposes.

Soak, availability and market payloads embed these snapshots, and JSON
writes ``1`` and ``1.0`` differently, so a renamed key or an
``int`` <-> ``float`` flip silently changes payload digests.  The table
below pins both.
"""

import pytest

from repro.exec.stats import exec_stats
from repro.faults import avail_stats, fault_stats
from repro.fs import pressure_stats
from repro.fs.placement import planner_stats
from repro.market.stats import market_stats
from repro.metrics import metrics_registry
from repro.sim import Environment, Monitor, flownet_stats

_FAULT_COUNTERS = (
    "faults_injected", "crashes", "link_degradations", "partitions",
    "revocations", "pressure_waves", "domain_storms", "retries",
    "hedged_reads", "timeouts", "degraded_reads", "unavailable_errors",
    "recoveries", "evacuations", "repair_scans", "stripes_repaired")
_AVAIL_COUNTERS = (
    "degraded_reads", "reconstructions", "fragments_lost",
    "stripes_degraded", "stripes_lost", "placement_violations",
    "set_spills", "repairs_completed", "repair_retries", "repair_skips")

#: name -> {key: Python type of the value after integer increments}.
SCHEMA = {
    "exec": dict.fromkeys((
        "scenarios_run", "worker_crashes", "sweeps_serial",
        "sweeps_stealing", "serial_fallbacks", "store_hits",
        "store_misses", "store_invalidations", "store_stores",
        "store_evictions", "store_gc_orphans",
        "store_bytes", "sched_workers_spawned", "sched_worker_restarts",
        "sched_requeues"), int),
    "solver": dict.fromkeys((
        "solves", "full_solves", "rounds", "flows_touched",
        "links_touched", "batch_coalesced", "stalemates"), int),
    "faults": dict.fromkeys(_FAULT_COUNTERS + (
        "repaired_bytes", "open_faults", "mttr_s", "storm_events"), float),
    "availability": dict.fromkeys(_AVAIL_COUNTERS + (
        "degraded_read_s", "reconstruction_s", "reconstructed_bytes",
        "repair_backlog_bytes", "open_windows", "unavailable_s",
        "stripe_mttr_s"), float),
    "market": dict.fromkeys((
        "epochs", "retunes", "idle_epochs", "offers_published",
        "leases_granted", "leases_noticed", "leases_revoked",
        "demands_submitted", "stripes_migrated", "bytes_migrated",
        "bytes_freed", "files_deferred"), int),
    "pressure": dict.fromkeys((
        "writes_checked", "spilled_writes", "spill_distance",
        "reactive_spills", "replica_shortfall", "exhausted_writes",
        "evac_spills", "evac_drops", "repair_skips", "admission_checks",
        "admission_rejections", "degraded_rows"), int),
    "planner": dict.fromkeys((
        "policy_hits", "policy_misses", "plan_hits", "plan_misses",
        "stripes_resolved"), int),
}

STATS = {"exec": exec_stats, "solver": flownet_stats,
         "faults": fault_stats, "availability": avail_stats,
         "market": market_stats, "pressure": pressure_stats,
         "planner": planner_stats}


@pytest.fixture(autouse=True)
def _clean_counters():
    metrics_registry.reset()
    metrics_registry.reset(group="executor")
    yield
    metrics_registry.reset()
    metrics_registry.reset(group="executor")


def _bump(stats, times=2):
    for _ in range(times):
        for name in stats._COUNTERS:
            setattr(stats, name, getattr(stats, name) + 1)


def test_registry_covers_exactly_the_schema():
    assert set(metrics_registry.snapshot()) == set(SCHEMA)
    assert set(metrics_registry.snapshot("executor")) == {"exec"}


def _fill_fault_extras():
    fault_stats.record_fault("a", 1.0)
    fault_stats.record_fault("b", 1.0)
    fault_stats.record_recovery("a", 3.0)
    fault_stats.repaired_bytes += 512.0
    fault_stats.storm_schedule.append((1.0, "rack0", ("a", "b")))


def _fill_availability_extras():
    avail_stats.record_degraded_read(0.5)
    avail_stats.record_reconstruction(0.25, 1024.0)
    avail_stats.repair_backlog_bytes = 640.0
    avail_stats.open_window("s1", 1.0)
    avail_stats.open_window("s2", 1.0)
    avail_stats.close_window("s1", 4.0)


#: State beyond plain counters, so a reset must clear it too.
EXTRAS = {"faults": _fill_fault_extras,
          "availability": _fill_availability_extras}


@pytest.mark.parametrize("name", sorted(SCHEMA))
def test_reset_zeroes_every_value(name):
    _bump(STATS[name])
    EXTRAS.get(name, lambda: None)()
    assert all(metrics_registry.snapshot()[name].values())
    metrics_registry.reset(group="executor" if name == "exec"
                           else "scenario")
    snap = metrics_registry.snapshot()[name]
    assert all(value == 0 for value in snap.values()), snap


@pytest.mark.parametrize("name", sorted(SCHEMA))
def test_keys_and_value_types(name):
    _bump(STATS[name])
    snap = metrics_registry.snapshot()[name]
    assert list(snap) == list(SCHEMA[name])
    assert {k: type(v) for k, v in snap.items()} == SCHEMA[name]
    assert all(snap[k] == 2 for k in STATS[name]._COUNTERS)


@pytest.mark.parametrize("name", sorted(SCHEMA))
def test_attach_charts_one_series_per_key(name):
    stats = STATS[name]
    env = Environment()
    mon = Monitor(env, interval=1.0)
    series = metrics_registry.attach(mon, name)
    assert list(series) == [f"{name}.{key}" for key in SCHEMA[name]]
    mon.start()

    def driver():
        yield env.timeout(1.5)
        _bump(stats, times=3)
        yield env.timeout(1.0)
        mon.stop()

    env.run(until=env.process(driver()))
    snap = metrics_registry.snapshot()[name]
    for key, value in snap.items():
        ts = series[f"{name}.{key}"]
        assert ts.values[0] == 0.0
        assert ts.last() == float(value)
