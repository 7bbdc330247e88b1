"""End-to-end integration tests across all subsystems."""

import pytest

from repro.cluster import MemoryPressureMonitor
from repro.core import DeploymentConfig, MemFSSDeployment, PlacementPolicy
from repro.store import StoreError
from repro.units import GB, MB
from repro.workflows import blast, dd_bag, montage


def small_config(alpha=0.25, **kw):
    base = dict(n_own=2, n_victim=4, victim_memory=2 * GB,
                own_store_capacity=8 * GB, stripe_size=8 * MB)
    base.update(kw)
    return DeploymentConfig(policy=PlacementPolicy.own_victim(alpha), **base)


class TestWorkflowsOnDeployment:
    def test_montage_completes(self):
        dep = MemFSSDeployment(small_config())
        wf = montage(width=8, compute_scale=0.01)
        result = dep.engine.execute(wf)
        assert len(result.tasks) == len(wf)
        # The sequential tail dominates even at tiny scale.
        spans = {s: result.stage_span(s) for s in wf.stages()}
        assert spans["mBgModel"][1] > spans["mProjectPP"][1]

    def test_blast_completes_with_streaming_io(self):
        dep = MemFSSDeployment(small_config())
        wf = blast(n_searches=8, db_bytes=256 * MB, chunk_bytes=32 * MB,
                   search_seconds=5.0, split_seconds=2.0)
        result = dep.engine.execute(wf)
        assert len(result.tasks) == 10  # split + 8 searches + merge
        search = result.tasks["search-0000"]
        assert search.read_bytes == pytest.approx(32 * MB)

    def test_dd_bag_fills_victims_proportionally(self):
        dep = MemFSSDeployment(small_config(alpha=0.25))
        dep.engine.execute(dd_bag(n_tasks=32, file_size=16 * MB))
        own_bytes = sum(dep.fs.servers[n.name].kv.used_bytes
                        for n in dep.own)
        vic_bytes = sum(dep.fs.servers[n.name].kv.used_bytes
                        for n in dep.victims)
        frac = own_bytes / (own_bytes + vic_bytes)
        assert frac == pytest.approx(0.25, abs=0.12)

    def test_store_capacity_exhaustion_raises(self):
        dep = MemFSSDeployment(small_config(
            victim_memory=256 * MB, own_store_capacity=256 * MB))
        with pytest.raises(StoreError) as err:
            dep.engine.execute(dd_bag(n_tasks=64, file_size=64 * MB))
        assert err.value.code == "full"


class TestEvictionDuringWorkflow:
    def test_pressure_eviction_mid_run_preserves_results(self):
        dep = MemFSSDeployment(small_config())
        env = dep.env
        victim = dep.victims[0]
        monitor = MemoryPressureMonitor(env, victim,
                                        dep.cluster.reservations,
                                        threshold=8 * GB, interval=0.5)

        def burst():
            yield env.timeout(0.5)
            victim.allocate_memory("tenant", 52 * GB)

        env.process(burst())
        # Tasks compute for a while so the bag is still mid-flight when
        # the burst lands and the monitor reacts.
        result = dep.engine.execute(dd_bag(n_tasks=48, file_size=16 * MB,
                                           compute_seconds=2.0))
        # Keep the monitor sampling while the evacuation drains, then stop.
        env.run(until=env.now + 120)
        monitor.stop()
        assert len(result.tasks) == 48
        assert victim.name not in dep.fs.servers
        assert dep.manager.evictions == 1

        # Every written file is still readable after the eviction.
        def verify():
            ok = 0
            for i in range(48):
                size, _ = yield from dep.fs.read_file(
                    dep.own[0], f"/dd/out-{i:05d}")
                ok += size == 16 * MB
            return ok

        proc = env.process(verify())
        assert env.run(until=proc) == 48

    def test_two_evictions(self):
        dep = MemFSSDeployment(small_config(n_victim=5))
        env = dep.env
        dep.engine.execute(dd_bag(n_tasks=24, file_size=16 * MB))
        for victim in dep.victims[:2]:
            proc = env.process(dep.manager.withdraw(victim))
            env.run(until=proc)
        assert dep.manager.evictions == 2
        assert len(dep.fs.policy.nodes_of("victim")) == 3

        def verify():
            sizes = []
            for i in range(24):
                size, _ = yield from dep.fs.read_file(
                    dep.own[0], f"/dd/out-{i:05d}")
                sizes.append(size)
            return sizes

        proc = env.process(verify())
        assert all(s == 16 * MB for s in env.run(until=proc))


class TestDeterminism:
    def test_full_experiment_deterministic(self):
        def once():
            dep = MemFSSDeployment(small_config())
            res = dep.engine.execute(dd_bag(n_tasks=24, file_size=16 * MB))
            vic = dep.victim_class_utilization()
            return (res.makespan, vic["cpu"], vic["rx"])

        assert once() == once()
