#!/usr/bin/env python
"""Quickstart: deploy MemFSS, write and read files, inspect utilization.

Builds the paper's setup (8 own + 32 victim DAS-5 nodes, 25 % of data on
own nodes), mounts the file system on an own node, does some POSIX-style
I/O, and runs a small dd bag through the workflow engine.

Run:  python examples/quickstart.py
"""

from repro.core import DeploymentConfig, MemFSSDeployment, PlacementPolicy
from repro.fs import MountPoint
from repro.units import MB, fmt_bytes, fmt_rate
from repro.workflows import dd_bag


def main() -> None:
    # 1. Deploy: cluster + reservations + stores + weighted placement.
    config = DeploymentConfig(n_own=8, n_victim=32,
                              policy=PlacementPolicy.own_victim(0.25))
    dep = MemFSSDeployment(config)
    env = dep.env
    print(f"deployed: {len(dep.own)} own + {len(dep.victims)} victim nodes,"
          f" total FS capacity {fmt_bytes(dep.fs.total_capacity())}")

    # 2. POSIX-ish I/O through a FUSE-like mount (generators driven by
    #    the simulation environment).
    mount = MountPoint(dep.fs, dep.own[0])

    def session():
        yield from mount.mkdir("/demo")
        handle = yield from mount.open("/demo/hello.dat", "w")
        yield from handle.write(b"memory scavenging!" * 1024)
        meta = yield from handle.close()
        print(f"wrote /demo/hello.dat: {meta.size} bytes in "
              f"{meta.n_stripes} stripe(s)")

        size, payload = yield from mount.read_file("/demo/hello.dat")
        assert payload.startswith(b"memory scavenging!")
        listing = yield from mount.listdir("/demo")
        print(f"read back {size} bytes; /demo contains {listing}")

        # Where did the stripes go?  The placement is deterministic.
        meta = yield from mount.stat("/demo/hello.dat")
        print(f"placement snapshot classes: {list(meta.class_weights)}")

    env.run(until=env.process(session()))

    # 3. Run a bag of dd tasks on the own nodes (the Fig. 2 workload).
    result = dep.engine.execute(dd_bag(n_tasks=64, file_size=128 * MB))
    print(f"\ndd bag: 64 x 128 MB in {result.makespan:.2f} simulated "
          f"seconds")
    vic = dep.victim_class_utilization()
    own = dep.own_class_utilization()
    nic = dep.victims[0].spec.nic_bandwidth
    print(f"victim class: CPU {vic['cpu'] * 100:.2f}%, "
          f"ingest {fmt_rate(vic['rx'] * nic)}")
    print(f"own class:    CPU {own['cpu'] * 100:.2f}%, "
          f"egress {fmt_rate(own['tx'] * nic)}")


if __name__ == "__main__":
    main()
