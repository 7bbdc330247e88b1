"""Parallel scenario execution for the figure suite.

Every paper figure is a sweep of *independent* simulations (Fig. 2 runs
five α scenarios, Figs. 3-5 run a tenant suite under each scavenging
workload, Table II sweeps node counts).  This package turns one such
simulation into a declarative, picklable :class:`ScenarioSpec` and fans
sweeps out through a :class:`SweepRunner` with a ``serial`` and a
``stealing`` backend (a :class:`WorkStealingScheduler` with heartbeats,
deadlines and crash retries), backed by the content-addressed
:class:`ResultStore` — an index, LRU+TTL eviction under a byte budget,
orphan GC and runtime estimates, salted by :func:`code_version` — so a
warm re-run never recomputes an unchanged scenario and a code change
never serves a stale one.  On top of the warm corpus,
:func:`plan_capacity` answers what-if capacity questions (job mix +
slowdown bound → minimum α) by binary search over stored cells.

Determinism contract: a scenario's payload is a pure function of its spec
(all randomness flows from the spec's seed through
:class:`~repro.sim.rng.RngRegistry`), so the stealing backend is
byte-identical to the serial one and stored payloads are byte-identical
to fresh runs.  See DESIGN.md §9.
"""

from .planner import (DEFAULT_ALPHA_GRID, TENANT_CLASSES, cell_slowdown,
                      cell_specs, evaluate_mix, plan_capacity)
from .runner import ScenarioError, ScenarioResult, SweepRunner
from .scenarios import (consumption_scavenging_spec, consumption_specs,
                        consumption_standalone_spec, fig2_spec,
                        fig2_sweep_specs, metrics_from_payload,
                        point_from_payload, run_consumption_points,
                        run_scenario, slowdown_results, slowdown_suite_spec,
                        slowdown_sweep)
from .scheduler import SchedulerPolicy, WorkStealingScheduler
from .spec import ScenarioSpec
from .stats import exec_stats
from .store import ResultStore, atomic_write_json, code_version

__all__ = [
    "ScenarioSpec", "ScenarioError", "ScenarioResult", "SweepRunner",
    "ResultStore", "code_version", "atomic_write_json",
    "WorkStealingScheduler", "SchedulerPolicy", "exec_stats",
    "plan_capacity", "evaluate_mix", "cell_specs", "cell_slowdown",
    "TENANT_CLASSES", "DEFAULT_ALPHA_GRID",
    "run_scenario", "fig2_spec", "fig2_sweep_specs",
    "slowdown_suite_spec", "slowdown_sweep", "slowdown_results",
    "consumption_specs", "consumption_standalone_spec",
    "consumption_scavenging_spec", "run_consumption_points",
    "metrics_from_payload", "point_from_payload",
]
