"""Capacity-aware write path: HRW chain spill under store pressure.

Covers the ledger/select_targets mechanics, end-to-end spill behavior
(data lands and reads back when individual stores fill up), honest
exhaustion (structured FULL instead of a bare traceback), unpressured
writes landing exactly on their top HRW ranks, and the batch/scalar
placement-equivalence property that makes spill deterministic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_das5
from repro.fs import (CapacityLedger, ClassSpec, MemFSS, PlacementMap,
                      pressure_stats, select_targets)
from repro.hashing import own_victim_weights
from repro.store import StoreError, StoreErrorCode, StoreServer
from repro.units import GB


@pytest.fixture(autouse=True)
def _reset_pressure():
    pressure_stats.reset()
    yield
    pressure_stats.reset()


def build_rig(cap_own=4096.0, cap_victim=4096.0, n_own=2, n_victim=3,
              alpha=0.5, stripe_size=64, replication=1, write_window=4):
    cluster = build_das5(n_nodes=n_own + n_victim)
    env = cluster.env
    own = list(cluster.nodes[:n_own])
    victims = list(cluster.nodes[n_own:])
    servers = {}
    for node in own:
        servers[node.name] = StoreServer(env, node, cluster.fabric,
                                         capacity=cap_own,
                                         name=f"own@{node.name}")
    for node in victims:
        servers[node.name] = StoreServer(env, node, cluster.fabric,
                                         capacity=cap_victim,
                                         name=f"vic@{node.name}")
    weights = own_victim_weights(alpha)
    policy = PlacementMap({
        "own": ClassSpec(weights["own"], tuple(n.name for n in own)),
        "victim": ClassSpec(weights["victim"],
                            tuple(n.name for n in victims))})
    fs = MemFSS(env, cluster.fabric, own, servers, policy,
                stripe_size=stripe_size, replication=replication,
                write_window=write_window)
    return cluster, fs, own


def run(cluster, gen):
    proc = cluster.env.process(gen)
    return cluster.env.run(until=proc)


class TestSelectTargets:
    CHAIN = ("a", "b", "c", "d")

    def test_picks_in_rank_order(self):
        usable = {"a": 100.0, "b": 100.0, "c": 100.0, "d": 100.0}
        targets, distance, short = select_targets(
            self.CHAIN, 50.0, 2, lambda n: usable[n])
        assert targets == ["a", "b"]
        assert distance == 0 and short == 0

    def test_skips_full_stores_and_counts_distance(self):
        usable = {"a": 10.0, "b": 100.0, "c": 10.0, "d": 100.0}
        targets, distance, short = select_targets(
            self.CHAIN, 50.0, 2, lambda n: usable[n])
        assert targets == ["b", "d"]
        # b is 1 below its ideal slot, d is 2 below its.
        assert distance == 3 and short == 0

    def test_shortfall_when_chain_exhausted(self):
        usable = {"a": 10.0, "b": 100.0, "c": 10.0, "d": 10.0}
        targets, distance, short = select_targets(
            self.CHAIN, 50.0, 3, lambda n: usable[n])
        assert targets == ["b"]
        assert short == 2

    def test_deterministic(self):
        usable = {"a": 10.0, "b": 60.0, "c": 55.0, "d": 0.0}
        first = select_targets(self.CHAIN, 50.0, 2, lambda n: usable[n])
        again = select_targets(self.CHAIN, 50.0, 2, lambda n: usable[n])
        assert first == again


class TestCapacityLedger:
    def test_usable_subtracts_inflight_and_overhead(self):
        cluster, fs, own = build_rig()
        (name, server), = list(fs.servers.items())[:1]
        base = ledger_usable = fs.ledger.usable(name)
        assert base == pytest.approx(server.free_space()
                                     - server.kv.key_overhead)
        cost = fs.ledger.reserve(name, 100.0)
        assert cost == pytest.approx(100.0 + server.kv.key_overhead)
        assert fs.ledger.usable(name) == pytest.approx(ledger_usable - cost)
        fs.ledger.release(name, cost)
        assert fs.ledger.usable(name) == pytest.approx(base)
        assert fs.ledger.inflight_bytes(name) == 0.0

    def test_unknown_store_never_admits(self):
        cluster, fs, own = build_rig()
        assert not fs.ledger.admits("no-such-store", 1.0)


class TestSpillEndToEnd:
    # Own stores hold metadata comfortably; the victim stores are tiny,
    # so victim-class stripes overflow onto own nodes through the chain.
    BIG_OWN = 256 * 1024.0
    TINY_VIC = 2048.0

    def test_spill_keeps_writes_landing_and_readable(self):
        cluster, fs, own = build_rig(cap_own=self.BIG_OWN,
                                     cap_victim=self.TINY_VIC)
        blobs = {}
        for i in range(20):
            blob = bytes((3 * i + j) % 256 for j in range(4096))
            run(cluster, fs.write_file(own[0], f"/f{i}", payload=blob))
            blobs[f"/f{i}"] = blob
        assert pressure_stats.spilled_writes > 0
        assert pressure_stats.spill_distance >= pressure_stats.spilled_writes
        assert pressure_stats.exhausted_writes == 0
        for path, blob in blobs.items():
            _n, back = run(cluster, fs.read_file(own[0], path))
            assert back == blob, path

    def test_exhaustion_is_structured_full(self):
        # A stripe bigger than any store: the whole chain refuses, so the
        # guarded path raises a structured FULL before touching a server.
        cluster, fs, own = build_rig(cap_own=2048.0, cap_victim=2048.0,
                                     stripe_size=4096)
        with pytest.raises(StoreError) as ei:
            run(cluster, fs.write_file(own[0], "/big",
                                       payload=bytes(4096)))
        assert ei.value.code is StoreErrorCode.FULL
        assert ei.value.details["requested_bytes"] == 4096.0
        assert ei.value.details["chain"]
        assert pressure_stats.exhausted_writes == 1

    def test_fill_to_the_brim_still_full_not_traceback(self):
        # Even when metadata itself runs out of room, the failure surfaces
        # as a typed FULL with structured details — never a bare crash.
        cluster, fs, own = build_rig(cap_own=16 * 1024.0,
                                     cap_victim=self.TINY_VIC)
        with pytest.raises(StoreError) as ei:
            for i in range(40):
                run(cluster, fs.write_file(own[0], f"/f{i}",
                                           payload=bytes(4096)))
        assert ei.value.code is StoreErrorCode.FULL
        assert "requested_bytes" in ei.value.details
        assert pressure_stats.spilled_writes > 0

    @pytest.mark.parametrize("replication", [1, 2])
    def test_unpressured_placement_is_identical(self, replication):
        # With room everywhere no stripe spills: every stripe key sits on
        # exactly the top-k nodes of its HRW chain, and nowhere else.
        cluster, fs, own = build_rig(cap_own=10 * GB, cap_victim=10 * GB,
                                     replication=replication)
        for i in range(10):
            run(cluster, fs.write_file(own[0], f"/f{i}",
                                       payload=bytes(256)))
        holders: dict = {}
        for name, server in fs.servers.items():
            for key in server.kv.keys():
                if isinstance(key, tuple) and key[0] == "stripe":
                    holders.setdefault(key, set()).add(name)
        assert len(holders) == 10 * 256 // 64
        for key, nodes in holders.items():
            assert nodes == set(fs.policy.ranked(key, replication)), key
        assert pressure_stats.spilled_writes == 0

    def test_replicated_spill_keeps_replica_count(self):
        cluster, fs, own = build_rig(cap_own=self.BIG_OWN,
                                     cap_victim=self.TINY_VIC,
                                     replication=2, n_victim=4)
        for i in range(12):
            run(cluster, fs.write_file(own[0], f"/f{i}",
                                       payload=bytes(4096)))
        assert pressure_stats.replica_shortfall == 0
        for i in range(12):
            _n, back = run(cluster, fs.read_file(own[0], f"/f{i}"))
            assert back == bytes(4096)


class TestBatchScalarEquivalence:
    """Spill placement is a pure function of (plan chain, capacity map);
    the batch and scalar placement paths must agree on the chain."""

    POLICY = PlacementMap({
        "own": ClassSpec(2.0, ("n0", "n1", "n2")),
        "victim": ClassSpec(1.0, ("n3", "n4", "n5", "n6"))})

    @settings(max_examples=60, deadline=None)
    @given(inode=st.integers(0, 10_000), n=st.integers(1, 8))
    def test_chain_matches_ranked(self, inode, n):
        plan = self.POLICY.plan_file(inode, n)
        for idx in range(len(plan.keys)):
            assert plan.chain(idx) == self.POLICY.ranked(plan.keys[idx])

    @settings(max_examples=60, deadline=None)
    @given(inode=st.integers(0, 10_000), n=st.integers(1, 4),
           k=st.integers(1, 3), data=st.data())
    def test_spill_identical_on_both_paths(self, inode, n, k, data):
        plan = self.POLICY.plan_file(inode, n)
        nodes = self.POLICY.all_nodes
        budgets = data.draw(st.fixed_dictionaries(
            {name: st.floats(0.0, 200.0, allow_nan=False)
             for name in nodes}))
        nbytes = data.draw(st.floats(1.0, 150.0, allow_nan=False))
        for idx in range(len(plan.keys)):
            batch = select_targets(plan.chain(idx), nbytes, k,
                                   lambda t: budgets[t])
            scalar = select_targets(self.POLICY.ranked(plan.keys[idx]),
                                    nbytes, k, lambda t: budgets[t])
            assert batch == scalar
            targets, distance, short = batch
            assert len(targets) + short == k
            assert all(budgets[t] >= nbytes for t in targets)
