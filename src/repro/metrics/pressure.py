"""Per-class store fill: how full each placement class is.

The capacity-pressure *counters* (spills, shortfalls, admission
verdicts) are charted through ``metrics_registry.attach(mon,
"pressure")``; this module adds the per-class fill-ratio gauges so
pressure can be charted next to CPU/NIC utilization.
"""

from __future__ import annotations

from ..sim.monitor import Monitor, TimeSeries

__all__ = ["attach_fill_probes", "class_fill_ratios"]


def class_fill_ratios(fs) -> dict[str, float]:
    """Mean store fill (used/capacity) per placement class of *fs*.

    Stores missing from the live server map (crashed, evicted) are
    skipped; an empty class reads 0.
    """
    ratios: dict[str, float] = {}
    for cls, spec in fs.policy.classes.items():
        used = cap = 0.0
        for name in spec.nodes:
            server = fs.servers.get(name)
            if server is None:
                continue
            used += server.kv.used_bytes
            cap += server.kv.capacity
        ratios[cls] = used / cap if cap > 0 else 0.0
    return ratios


def attach_fill_probes(monitor: Monitor, fs, prefix: str = "fill",
                       ) -> dict[str, TimeSeries]:
    """Per-class fill-ratio gauges: ``<prefix>.<class>`` in [0, 1].

    Classes are read from the *current* policy at each sample, so probes
    follow membership changes (evictions, crashes) automatically — but
    the set of charted classes is fixed at attach time.
    """
    classes = tuple(fs.policy.classes)

    def probe() -> tuple[float, ...]:
        ratios = class_fill_ratios(fs)
        return tuple(ratios.get(cls, 0.0) for cls in classes)

    return monitor.add_multi_probe(
        tuple(f"{prefix}.{cls}" for cls in classes), probe)
