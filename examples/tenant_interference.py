#!/usr/bin/env python
"""How much does scavenging hurt the victims?  (The Fig. 3 question.)

Runs STREAM, the MPI latency benchmark, and TeraSort on the victim nodes,
first undisturbed, then while the own nodes loop the dd bag through
MemFSS at two data splits.  Prints the slowdown table.

Run:  python examples/tenant_interference.py
"""

from repro.core import DeploymentConfig, MemFSSDeployment, PlacementPolicy
from repro.core.slowdown import BackgroundWorkload, _run_suite
from repro.metrics import render_table
from repro.tenants import hibench_hadoop, hpcc_benchmark
from repro.units import MB
from repro.workflows import dd_bag


def suite(n_victims: int):
    return [hpcc_benchmark("STREAM", scale=0.5),
            hpcc_benchmark("latency", scale=0.5),
            hibench_hadoop("TeraSort", n_nodes=n_victims, scale=0.3)]


def measure(alpha: float):
    config = DeploymentConfig(policy=PlacementPolicy.own_victim(alpha))
    base = MemFSSDeployment(config)
    baseline = _run_suite(base, suite(len(base.victims)))

    loaded_dep = MemFSSDeployment(config)
    background = BackgroundWorkload(
        loaded_dep, lambda i: dd_bag(n_tasks=128, file_size=128 * MB))
    background.start()
    loaded_dep.env.run(until=loaded_dep.env.now + 45.0)
    loaded = _run_suite(loaded_dep, suite(len(loaded_dep.victims)))
    background.stop()
    return baseline, loaded


def main() -> None:
    rows = []
    for alpha in (0.25, 0.50):
        baseline, loaded = measure(alpha)
        for bench in baseline:
            pct = (loaded[bench] / baseline[bench] - 1) * 100
            rows.append([f"{alpha * 100:.0f}%", bench,
                         f"{baseline[bench]:.1f} s",
                         f"{loaded[bench]:.1f} s", f"{pct:+.1f}%"])
    print(render_table(
        ["alpha", "victim benchmark", "alone", "scavenged", "slowdown"],
        rows, title="Tenant slowdown under the dd bag (Fig. 3/4 style)"))
    print("\nNote the paper's pattern: memory-bandwidth- and shuffle-bound")
    print("benchmarks feel the scavenger; and 50% (less victim traffic)")
    print("is milder than 25%.")


if __name__ == "__main__":
    main()
