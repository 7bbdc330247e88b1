"""Solver counters: snapshots and Monitor series."""

from repro.metrics import metrics_registry
from repro.sim import Environment, FlowNetwork, Monitor, flownet_stats


def _busy_net(env):
    net = FlowNetwork(env)
    tx = [net.add_link(f"tx{i}", 100.0) for i in range(3)]
    rx = [net.add_link(f"rx{i}", 100.0) for i in range(3)]
    for i in range(3):
        net.transfer([tx[i], rx[(i + 1) % 3]], 250.0, label=f"f{i}")
    return net


def test_counters_snapshot_accumulates():
    flownet_stats.reset()
    env = Environment()
    _busy_net(env)
    env.run()
    counters = flownet_stats.snapshot()
    assert counters["solves"] >= 1
    assert counters["rounds"] >= 1
    assert counters["flows_touched"] >= 3
    assert counters["batch_coalesced"] >= 2  # same-instant transfers
    assert counters["stalemates"] == 0
    assert set(counters) == {"solves", "full_solves", "rounds",
                             "flows_touched", "links_touched",
                             "batch_coalesced", "stalemates"}


def test_monitor_probes_sample_counters():
    flownet_stats.reset()
    env = Environment()
    mon = Monitor(env, interval=1.0)
    series = metrics_registry.attach(mon, "solver")
    assert set(series) == {f"solver.{f}" for f in
                           ("solves", "full_solves", "rounds",
                            "flows_touched", "links_touched",
                            "batch_coalesced", "stalemates")}
    mon.start()
    _busy_net(env)
    env.run(until=3.0)
    mon.stop()
    times, values = mon.series["solver.solves"].as_arrays()
    assert len(times) >= 2
    assert values[-1] >= 1.0
    assert values[-1] == float(flownet_stats.solves)


def test_reset_clears_counters():
    env = Environment()
    _busy_net(env)
    env.run()
    assert flownet_stats.snapshot()["solves"] >= 1
    flownet_stats.reset()
    assert all(v == 0 for v in flownet_stats.snapshot().values())
