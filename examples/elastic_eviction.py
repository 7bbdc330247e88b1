#!/usr/bin/env python
"""Eviction under memory pressure: the monitord path (§III-A).

A tenant's memory demand spikes on one victim node while MemFSS holds
data there.  The per-node memory-pressure monitor revokes the scavenge
lease, the scavenging manager migrates the node's stripes to the next
nodes in their HRW rank chains, and every file remains readable — the
"free its memory and remove itself from that node" protocol, end to end.

Run:  python examples/elastic_eviction.py
"""

from repro.cluster import MemoryPressureMonitor
from repro.core import DeploymentConfig, MemFSSDeployment, PlacementPolicy
from repro.units import GB, MB, fmt_bytes


def main() -> None:
    config = DeploymentConfig(n_own=2, n_victim=6,
                              policy=PlacementPolicy.own_victim(0.25),
                              victim_memory=4 * GB,
                              own_store_capacity=16 * GB,
                              stripe_size=8 * MB)
    dep = MemFSSDeployment(config)
    env, fs = dep.env, dep.fs

    # Watch one victim for memory pressure (sub-8 GB free triggers).
    victim = dep.victims[0]
    monitor = MemoryPressureMonitor(env, victim, dep.cluster.reservations,
                                    threshold=8 * GB, interval=1.0)

    def scenario():
        # Fill the file system with 48 files.
        for i in range(48):
            yield from fs.write_file(dep.own[0], f"/data/f{i}",
                                     nbytes=32 * MB)
        held = fs.servers[victim.name].kv.used_bytes
        print(f"t={env.now:6.1f}s  wrote 48 files; {victim.name} holds "
              f"{fmt_bytes(held)}")

        # The tenant's job on the victim suddenly needs its memory back.
        yield env.timeout(5)
        victim.allocate_memory("tenant-burst", 53 * GB)
        print(f"t={env.now:6.1f}s  tenant burst: {victim.name} free memory "
              f"drops to {fmt_bytes(victim.memory_free)}")

        # monitord notices within a second and revokes the lease; the
        # scavenger's watcher migrates the stripes.  Give it time.
        while victim.name in fs.servers:
            yield env.timeout(1)
        print(f"t={env.now:6.1f}s  {victim.name} evacuated "
              f"({fmt_bytes(dep.manager.migrated_bytes)} migrated, "
              f"{dep.manager.evictions} eviction)")

        # Every file is still there.
        ok = 0
        for i in range(48):
            size, _ = yield from fs.read_file(dep.own[0], f"/data/f{i}")
            ok += size == 32 * MB
        print(f"t={env.now:6.1f}s  re-read all files: {ok}/48 intact")
        monitor.stop()

    env.run(until=env.process(scenario()))
    print(f"\nplacement now: {fs.policy}")


if __name__ == "__main__":
    main()
