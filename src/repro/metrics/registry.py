"""The one counter surface: every process-wide ``*_stats`` object by name.

Each subsystem keeps one :class:`~repro.counters.Counters` singleton —
pressure, faults, availability, placement planner, flow solver, the
lease market, the sweep executor — and every scenario executor
has to reset the right ones to keep payloads pure functions of their
spec (the determinism contract: a scenario must see identical counters
whether it runs first in a process or fiftieth).  The
:class:`MetricsRegistry` is a fixed table of them in two groups:

* ``scenario`` — counters scoped to one simulated scenario.  Executors
  call ``metrics_registry.reset()`` once at the top instead of picking
  singletons by hand.
* ``executor`` — counters scoped to the *process* (sweep cache
  hits/misses, worker crashes).  Deliberately **not** touched by a
  scenario reset: a warm-cache assertion must survive the scenarios it
  measures.

:meth:`MetricsRegistry.attach` charts one object on a
:class:`~repro.sim.monitor.Monitor`: one ``<name>.<key>`` series per
snapshot key, all filled from a single ``snapshot()`` per tick.
"""

from __future__ import annotations

from ..counters import Counters
from ..sim.monitor import Monitor, TimeSeries

__all__ = ["MetricsRegistry", "metrics_registry"]


class MetricsRegistry:
    """Named groups of counter objects with uniform reset/snapshot."""

    def __init__(self, groups: dict[str, dict[str, Counters]]):
        self._groups = groups

    def reset(self, group: str = "scenario") -> None:
        """Zero every counter in *group* (scenario executors call this
        once at the top of each run)."""
        for stats in self._groups.get(group, {}).values():
            stats.reset()

    def snapshot(self, group: str | None = None) -> dict[str, dict]:
        """``{name: counters}`` over *group* (or everything)."""
        out: dict[str, dict] = {}
        for gname, members in sorted(self._groups.items()):
            if group is not None and gname != group:
                continue
            for name, stats in sorted(members.items()):
                out[name] = stats.snapshot()
        return out

    def attach(self, monitor: Monitor, name: str) -> dict[str, TimeSeries]:
        """Sample counter object *name* on *monitor*: one
        ``<name>.<key>`` series per snapshot key.  Counters are
        cumulative (diff consecutive samples for rates); gauges such as
        ``faults.open_faults`` read as they stand."""
        members = {n: s for m in self._groups.values() for n, s in m.items()}
        snapshot = members[name].snapshot
        return monitor.add_multi_probe(
            tuple(f"{name}.{key}" for key in snapshot()),
            lambda: tuple(snapshot().values()))


def _default_registry() -> MetricsRegistry:
    # Local imports: this module is imported by repro.metrics, which
    # sits above every subsystem it aggregates.
    from ..exec.stats import exec_stats
    from ..faults.availability import avail_stats
    from ..faults.stats import fault_stats
    from ..fs.capacity import pressure_stats
    from ..fs.placement import planner_stats
    from ..market.stats import market_stats
    from ..sim.flownet import flownet_stats

    return MetricsRegistry({
        "scenario": {
            "pressure": pressure_stats,
            "faults": fault_stats,
            "availability": avail_stats,
            "planner": planner_stats,
            "solver": flownet_stats,
            "market": market_stats,
        },
        "executor": {"exec": exec_stats},
    })


#: Process-wide instance over every subsystem's counters.
metrics_registry = _default_registry()
