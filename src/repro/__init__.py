"""repro — a reproduction of "Towards Resource Disaggregation — Memory
Scavenging for Scientific Workloads" (Uta, Oprescu, Kielmann; CLUSTER 2016).

The package implements MemFSS, the paper's scavenging in-memory
distributed file system, together with every substrate its evaluation
needs: a discrete-event cluster simulator with max-min-fair fluid
resources, a Redis-like store, the weighted two-layer HRW placement, a
scientific-workflow engine, and phase-based tenant benchmark models
(HPCC, HiBench on Hadoop and Spark).

Quickstart::

    from repro.core import (DeploymentConfig, MemFSSDeployment,
                            PlacementPolicy)
    from repro.workflows import dd_bag

    dep = MemFSSDeployment(DeploymentConfig(
        n_own=8, n_victim=32, policy=PlacementPolicy.own_victim(0.25)))
    result = dep.engine.execute(dd_bag(n_tasks=256))
    print(result.makespan, dep.victim_class_utilization())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

__version__ = "1.0.0"

from . import units
from .core import DeploymentConfig, MemFSSDeployment

__all__ = ["DeploymentConfig", "MemFSSDeployment", "units", "__version__"]
