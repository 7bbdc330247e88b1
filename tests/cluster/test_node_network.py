"""Tests for nodes, memory accounting, and the fabric."""

import pytest

from repro.cluster import DAS5, Fabric, Node, OutOfMemory, build_das5
from repro.sim import Environment
from repro.sim.flownet import Link
from repro.units import GB


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def node(env):
    return Node(env, "n0", DAS5)


class TestMachineSpec:
    def test_das5_constants(self):
        assert DAS5.cores == 32
        assert DAS5.memory == 64 * GB
        assert DAS5.nic_bandwidth == 6 * GB   # native verbs
        assert DAS5.ipoib_bandwidth == 3 * GB  # TCP-over-IB ceiling

    def test_validation(self):
        from dataclasses import replace
        with pytest.raises(ValueError):
            replace(DAS5, cores=0)
        with pytest.raises(ValueError):
            replace(DAS5, os_reserved=DAS5.memory)


class TestNodeMemory:
    def test_initial_free_excludes_os(self, node):
        assert node.memory_free == 60 * GB
        assert node.memory_allocated == 4 * GB

    def test_allocate_and_free(self, node):
        node.allocate_memory("tenant", 10 * GB)
        assert node.memory_owned_by("tenant") == 10 * GB
        assert node.memory_free == 50 * GB
        freed = node.free_memory("tenant", 4 * GB)
        assert freed == 4 * GB
        assert node.memory_owned_by("tenant") == 6 * GB

    def test_free_everything(self, node):
        node.allocate_memory("x", 5 * GB)
        assert node.free_memory("x") == 5 * GB
        assert node.memory_owned_by("x") == 0

    def test_free_more_than_held_clamps(self, node):
        node.allocate_memory("x", 2 * GB)
        assert node.free_memory("x", 100 * GB) == 2 * GB

    def test_overallocation_raises(self, node):
        with pytest.raises(OutOfMemory):
            node.allocate_memory("greedy", 61 * GB)

    def test_cumulative_allocations(self, node):
        node.allocate_memory("a", 10 * GB)
        node.allocate_memory("a", 10 * GB)
        assert node.memory_owned_by("a") == 20 * GB

    def test_page_cache_is_free_memory(self, node):
        assert node.page_cache_bytes == node.memory_free
        node.allocate_memory("tenant", 48 * GB)
        assert node.page_cache_bytes == 12 * GB

    def test_negative_amounts_rejected(self, node):
        with pytest.raises(ValueError):
            node.allocate_memory("a", -1)
        node.allocate_memory("a", 1 * GB)
        with pytest.raises(ValueError):
            node.free_memory("a", -1)

    def test_memory_utilization(self, node):
        node.allocate_memory("t", 28 * GB)
        assert node.memory_utilization == pytest.approx(0.5)


class TestFabric:
    def test_transfer_runs_at_nic_speed(self, env):
        cluster = build_das5(env, n_nodes=2)
        a, b = cluster.nodes
        f = cluster.fabric.transfer(a, b, 6 * GB)
        env.run(until=f.done)
        assert env.now == pytest.approx(1.0)
        # Every hop is the network's own Link handle, and a flow keeps
        # the tuple it crossed.
        net = cluster.fabric.net
        path = cluster.fabric.path(a, b, "tcp")
        assert [l.name for l in path] == [
            f"{a.name}.itx", f"{a.name}.tx", f"{b.name}.rx", f"{b.name}.irx"]
        assert all(isinstance(l, Link) and l is net.link(l.name)
                   for l in path)
        g = cluster.fabric.transfer(a, b, GB, transport="tcp")
        assert g.links == path

    def test_incast_shares_receiver_nic(self, env):
        cluster = build_das5(env, n_nodes=5)
        dst = cluster.nodes[0]
        flows = [cluster.fabric.transfer(src, dst, 6 * GB)
                 for src in cluster.nodes[1:]]
        env.run(until=env.all_of([f.done for f in flows]))
        assert env.now == pytest.approx(4.0)

    def test_local_transfer_uses_loopback_not_nic(self, env):
        cluster = build_das5(env, n_nodes=2)
        a = cluster.nodes[0]
        f = cluster.fabric.transfer(a, a, 48 * GB)
        assert a.nic_tx_utilization == 0.0
        env.run(until=f.done)
        assert env.now == pytest.approx(1.0)  # memory-bandwidth speed

    def test_latency_zero_local_positive_remote(self, env):
        cluster = build_das5(env, n_nodes=2)
        a, b = cluster.nodes
        assert cluster.fabric.latency(a, a) == 0.0
        assert cluster.fabric.latency(a, b) == pytest.approx(2e-6)

    def test_duplicate_attach_rejected(self, env):
        fabric = Fabric(env)
        n = Node(env, "x", DAS5)
        fabric.attach(n)
        with pytest.raises(ValueError):
            fabric.attach(n)

    def test_unattached_node_rejected(self, env):
        cluster = build_das5(env, n_nodes=1)
        stray = Node(env, "stray", DAS5)
        with pytest.raises(ValueError):
            cluster.fabric.transfer(cluster.nodes[0], stray, 1.0)

    def test_utilization_probes(self, env):
        cluster = build_das5(env, n_nodes=2)
        a, b = cluster.nodes
        cluster.fabric.transfer(a, b, None)  # persistent, saturates NIC
        assert a.nic_tx_utilization == pytest.approx(1.0)
        assert b.nic_rx_utilization == pytest.approx(1.0)
        assert b.nic_tx_utilization == 0.0


class TestBuildDas5:
    def test_node_count_and_names(self):
        cluster = build_das5(n_nodes=3)
        assert [n.name for n in cluster.nodes] == ["node000", "node001",
                                                   "node002"]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            build_das5(n_nodes=0)

    def test_monitor_has_probes_for_all_nodes(self):
        cluster = build_das5(n_nodes=2)
        mon = cluster.monitor()
        assert "node000.cpu" in mon.series
        assert "node001.rx" in mon.series
