"""Fault-path tests for the scavenger: reads racing evacuation,
concurrent revocations, crash handling and the repair daemon."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_das5
from repro.faults import fault_stats
from repro.fs import (ClassSpec, FileNotFound, MemFSS, PlacementMap,
                      ScavengingManager, pressure_stats)
from repro.fs.scavenger import RepairDaemon
from repro.fs.striping import stripe_key
from repro.hashing import own_victim_weights
from repro.store import StoreServer
from repro.units import GB


@pytest.fixture(autouse=True)
def _reset_stats():
    fault_stats.reset()
    pressure_stats.reset()
    yield
    fault_stats.reset()
    pressure_stats.reset()


def build_rig(alpha=0.25, n_own=2, n_victim=4, per_node_memory=2 * GB,
              replication=1, erasure=None):
    """Own-only FS first; victims joined through the ScavengingManager."""
    cluster = build_das5(n_nodes=n_own + n_victim)
    env = cluster.env
    res = cluster.reservations
    own = list(res.reserve("memfss-user", n_own).nodes)
    servers = {n.name: StoreServer(env, n, cluster.fabric, capacity=10 * GB)
               for n in own}
    weights = own_victim_weights(alpha)
    policy = PlacementMap(
        {"own": ClassSpec(weights["own"], tuple(n.name for n in own))})
    fs = MemFSS(env, cluster.fabric, own, servers, policy, stripe_size=64,
                replication=replication, erasure=erasure)
    tenant = res.reserve("tenant", n_victim)
    for node in tenant.nodes:
        res.register_offer(node, per_node_memory, owner="tenant")
    mgr = ScavengingManager(env, fs, res)
    mgr.scavenge(tenant.nodes, per_node_memory, weights["victim"])
    return cluster, fs, mgr, own, list(tenant.nodes)


def run(cluster, gen):
    proc = cluster.env.process(gen)
    return cluster.env.run(until=proc)


def write_blobs(cluster, fs, own, count=12, size=640):
    blobs = {f"/f{i}": bytes((i * 31 + j) % 256 for j in range(size))
             for i in range(count)}
    for path, blob in blobs.items():
        run(cluster, fs.write_file(own[0], path, payload=blob))
    return blobs


def stripe_plans(cluster, fs, own):
    """path -> the stripe plan of that file's recorded membership."""
    return {path: fs._plan_for(run(cluster, fs.stat(own[0], path)))
            for path in run(cluster, fs.list_all_files(own[0]))}


def holders(fs, key):
    """Live stores that physically hold *key*."""
    return [n for n, s in fs.servers.items() if s.kv.contains(key)]


def readable(cluster, fs, own, blobs):
    """The paths that read back byte-identical."""
    ok = set()
    for path, blob in blobs.items():
        try:
            _n, back = run(cluster, fs.read_file(own[0], path))
        except FileNotFound:
            continue
        if back == blob:
            ok.add(path)
    return ok


class TestReadDuringEvacuation:
    def test_reads_succeed_mid_evacuation(self):
        cluster, fs, mgr, own, victims = build_rig(alpha=0.25)
        blobs = write_blobs(cluster, fs, own)
        target = victims[0]

        def driver():
            # Fire the revocation, then read every file while the watcher
            # is draining the node: the chain walk (lazy movement, §V-C)
            # must serve each stripe from wherever it currently lives.
            cluster.reservations.revoke_leases(target, cause="pressure")
            out = {}
            for path in blobs:
                _n, back = yield from fs.read_file(own[0], path)
                out[path] = back
            return out

        out = run(cluster, driver())
        assert out == blobs
        cluster.env.run()  # let the evacuation finish
        assert target.name not in fs.servers
        # And everything is still intact afterwards.
        for path, blob in blobs.items():
            _n, back = run(cluster, fs.read_file(own[0], path))
            assert back == blob, path


class TestConcurrentRevocations:
    def test_simultaneous_revocations_do_not_double_migrate(self):
        cluster, fs, mgr, own, victims = build_rig(alpha=0.0, n_victim=4)
        blobs = write_blobs(cluster, fs, own, count=16)
        a, b = victims[0], victims[1]
        revoked = {a.name, b.name}
        cluster.reservations.revoke_leases(a, cause="pressure")
        cluster.reservations.revoke_leases(b, cause="pressure")
        cluster.env.run()
        assert a.name not in fs.servers and b.name not in fs.servers
        assert mgr.evictions == 2
        # No stripe may migrate twice, and none onto a dying node.
        keys = [k for k, _src, _dst in mgr.moved_keys]
        assert len(keys) == len(set(keys))
        for _key, _src, dst in mgr.moved_keys:
            assert dst not in revoked
        for path, blob in blobs.items():
            _n, back = run(cluster, fs.read_file(own[0], path))
            assert back == blob, path

    def test_policy_leaves_both_nodes_before_drain_completes(self):
        cluster, fs, mgr, own, victims = build_rig(alpha=0.0)
        write_blobs(cluster, fs, own, count=8)
        a, b = victims[0], victims[1]

        def driver():
            cluster.reservations.revoke_leases(a, cause="pressure")
            cluster.reservations.revoke_leases(b, cause="pressure")
            yield cluster.env.timeout(0.0)
            # Both revocations left the placement immediately, even
            # though at most one drain can hold the lock right now.
            return fs.policy.all_nodes

        nodes = run(cluster, driver())
        assert a.name not in nodes and b.name not in nodes
        cluster.env.run()


class TestCrashAndRepair:
    def test_crash_removes_node_without_migration(self):
        cluster, fs, mgr, own, victims = build_rig(alpha=0.0)
        write_blobs(cluster, fs, own, count=8)
        target = victims[0]
        fs.servers[target.name].crash()
        mgr.handle_crash(target.name)
        cluster.env.run()
        assert target.name not in fs.servers
        assert target.name not in fs.policy.all_nodes
        assert mgr.moved_keys == []  # nothing to drain: the data is gone

    def test_repair_daemon_restores_replication(self):
        cluster, fs, mgr, own, victims = build_rig(alpha=0.25,
                                                   replication=2)
        blobs = write_blobs(cluster, fs, own, count=10)
        target = victims[0]
        fs.servers[target.name].crash()
        mgr.handle_crash(target.name)
        daemon = RepairDaemon(cluster.env, fs, manager=mgr)
        repaired = run(cluster, daemon.sweep())
        assert daemon.deficits == 0
        assert fault_stats.repair_scans == 1
        if repaired:
            assert fault_stats.stripes_repaired == repaired
            assert fault_stats.repaired_bytes > 0
        # Redundancy is really back: lose one more node and still read.
        second = victims[1]
        fs.servers[second.name].crash()
        mgr.handle_crash(second.name)
        for path, blob in blobs.items():
            _n, back = run(cluster, fs.read_file(own[0], path))
            assert back == blob, path

    @staticmethod
    def _single_loss_victim(cluster, fs, own, victims):
        """A victim whose crash loses at most one block per parity group.

        HRW has no group anti-affinity, so a group's data stripe and its
        parity can land on one node; XOR (m=1) cannot survive losing
        both.  The placement is deterministic, so pick a safe victim.
        """
        from repro.fs.erasure import group_layout, parity_key

        ok = {v.name: True for v in victims}
        for path in run(cluster, fs.list_all_files(own[0])):
            meta = run(cluster, fs.stat(own[0], path))
            policy = PlacementMap.from_meta(meta)
            plan = policy.plan_file(meta.inode, meta.n_stripes,
                                    erasure=meta.erasure)
            k, m = meta.erasure
            for gi, (first, count) in enumerate(
                    group_layout(meta.n_stripes, k)):
                prim = [plan.primary(i)
                        for i in range(first, first + count)]
                prim += [plan.primary(plan.index_of(
                    parity_key(meta.inode, gi, j))) for j in range(m)]
                for name in set(prim):
                    if prim.count(name) > 1 and name in ok:
                        ok[name] = False
        for v in victims:
            if ok[v.name]:
                return v
        pytest.skip("every victim co-locates a full parity group")

    def test_repair_daemon_reconstructs_erasure_coded_stripes(self):
        cluster, fs, mgr, own, victims = build_rig(alpha=0.25, n_victim=6,
                                                   erasure=(2, 1))
        blobs = write_blobs(cluster, fs, own, count=6)
        target = self._single_loss_victim(cluster, fs, own, victims)
        fs.servers[target.name].crash()
        mgr.handle_crash(target.name)
        daemon = RepairDaemon(cluster.env, fs, manager=mgr)
        run(cluster, daemon.sweep())
        assert daemon.deficits == 0
        for path, blob in blobs.items():
            _n, back = run(cluster, fs.read_file(own[0], path))
            assert back == blob, path

    def test_repair_rewrites_stale_membership(self):
        cluster, fs, mgr, own, victims = build_rig(alpha=0.25,
                                                   replication=2)
        write_blobs(cluster, fs, own, count=6)
        target = victims[0]
        fs.servers[target.name].crash()
        mgr.handle_crash(target.name)
        daemon = RepairDaemon(cluster.env, fs, manager=mgr)
        run(cluster, daemon.sweep())
        paths = run(cluster, fs.list_all_files(own[0]))
        for path in paths:
            meta = run(cluster, fs.stat(own[0], path))
            for members in meta.class_members.values():
                assert target.name not in members

    def test_repair_daemon_start_stop(self):
        cluster, fs, mgr, own, victims = build_rig(alpha=0.25,
                                                   replication=2)
        write_blobs(cluster, fs, own, count=4)
        daemon = RepairDaemon(cluster.env, fs, manager=mgr, interval=0.05)
        daemon.start()

        def driver():
            yield cluster.env.timeout(0.2)
            daemon.stop()

        run(cluster, driver())
        cluster.env.run()
        assert fault_stats.repair_scans >= 1

    def test_clean_sweep_resolves_open_faults(self):
        cluster, fs, mgr, own, victims = build_rig(alpha=0.25,
                                                   replication=2)
        write_blobs(cluster, fs, own, count=4)
        target = victims[0]
        fault_stats.record_fault(target.name, cluster.env.now)
        fs.servers[target.name].crash()
        mgr.handle_crash(target.name)
        daemon = RepairDaemon(cluster.env, fs, manager=mgr)
        run(cluster, daemon.sweep())
        assert fault_stats.open_faults == ()
        assert fault_stats.recoveries == 1
        assert fault_stats.mttr() >= 0.0


class TestSpilledCopies:
    """Capacity-guarded writes spill copies below rank k of the chain;
    every mover must find, move and retire them like planned copies."""

    def test_evacuation_moves_capacity_spilled_stripes(self):
        cluster, fs, mgr, own, victims = build_rig(alpha=0.25)
        fs.servers[victims[0].name].kv.capacity = 4000
        blobs = write_blobs(cluster, fs, own, count=40)
        assert pressure_stats.spilled_writes > 0
        gone = victims[1]
        # The revoked node holds copies it is not the planned home of.
        assert any(gone.name in holders(fs, key)
                   and plan.primary(idx) != gone.name
                   for plan in stripe_plans(cluster, fs, own).values()
                   for idx, key in enumerate(plan.keys))
        cluster.reservations.revoke_leases(gone, cause="pressure")
        cluster.env.run()
        assert gone.name not in fs.servers
        assert readable(cluster, fs, own, blobs) == set(blobs)

    def test_evacuation_keeps_every_replica(self):
        cluster, fs, mgr, own, victims = build_rig(alpha=0.25, n_victim=5,
                                                   replication=2)
        write_blobs(cluster, fs, own, count=20)
        cluster.reservations.revoke_leases(victims[0], cause="pressure")
        cluster.env.run()
        assert mgr.moved_keys
        # No repair sweep: the drain alone keeps both copies of every
        # stripe, the moved one on the node the top-2 chain gained.
        for plan in stripe_plans(cluster, fs, own).values():
            for key in plan.keys:
                assert len(holders(fs, key)) == 2, key

    def test_retune_retires_spilled_copies(self):
        cluster, fs, mgr, own, victims = build_rig(alpha=0.25)
        fs.servers[victims[0].name].kv.capacity = 3000
        blobs = write_blobs(cluster, fs, own, count=30)
        assert pressure_stats.spilled_writes > 0
        summary = run(cluster, mgr.rebalance(
            fs.policy.reweighted(own_victim_weights(0.9))))
        assert summary["moved_stripes"] > 0
        assert summary["freed_bytes"] == summary["moved_bytes"]
        for plan in stripe_plans(cluster, fs, own).values():
            for key in plan.keys:
                assert len(holders(fs, key)) == 1, key
        assert readable(cluster, fs, own, blobs) == set(blobs)


#: One step of the interleaving: (kind, victim index or alpha).
_STEP = st.one_of(
    st.tuples(st.sampled_from(["crash", "revoke"]), st.integers(0, 3)),
    st.tuples(st.just("rebalance"), st.sampled_from([0.0, 0.5, 0.9])))


class TestMoverNeverDeletesTheLastCopy:
    @settings(max_examples=12, deadline=None)
    @given(replication=st.sampled_from([1, 2]),
           capacities=st.lists(st.sampled_from([1500, 3000, 2 * GB]),
                               min_size=4, max_size=4),
           steps=st.lists(_STEP, min_size=1, max_size=4))
    def test_crash_revocation_and_retune_interleavings(
            self, replication, capacities, steps):
        fault_stats.reset()
        pressure_stats.reset()
        cluster, fs, mgr, own, victims = build_rig(
            alpha=0.25, replication=replication)
        for node, cap in zip(victims, capacities):
            fs.servers[node.name].kv.capacity = cap
        blobs = write_blobs(cluster, fs, own, count=12)
        ok = readable(cluster, fs, own, blobs)
        for kind, arg in steps:
            if kind == "rebalance":
                run(cluster, mgr.rebalance(
                    fs.policy.reweighted(own_victim_weights(arg))))
                after = readable(cluster, fs, own, blobs)
                assert ok <= after, f"retune lost {sorted(ok - after)}"
                continue
            node = victims[arg]
            if node.name not in fs.servers:
                continue
            if kind == "revoke":
                cluster.reservations.revoke_leases(node, cause="pressure")
                cluster.env.run()
                after = readable(cluster, fs, own, blobs)
                assert ok <= after, f"drain lost {sorted(ok - after)}"
                continue
            # A crash may only take files with a stripe whose every copy
            # sat on the crashed node.
            doomed = {path for path, plan
                      in stripe_plans(cluster, fs, own).items()
                      if any(holders(fs, k) == [node.name]
                             for k in plan.keys)}
            fs.servers[node.name].crash()
            mgr.handle_crash(node.name)
            after = readable(cluster, fs, own, blobs)
            assert ok - after <= doomed, sorted(ok - after - doomed)
            ok = after
