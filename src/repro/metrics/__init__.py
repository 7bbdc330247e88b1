"""Counters, utilization summaries and text rendering for tables/figures.

:data:`metrics_registry` is the one counter surface: it resets,
snapshots and charts (``metrics_registry.attach(monitor, name)``) every
subsystem's :class:`~repro.counters.Counters` object by name.
"""

from .pressure import attach_fill_probes, class_fill_ratios
from .registry import MetricsRegistry, metrics_registry
from .report import fmt_pct, render_bars, render_table
from .utilization import NodeUtilization, class_utilization, node_utilization

__all__ = [
    "render_table", "render_bars", "fmt_pct",
    "NodeUtilization", "node_utilization", "class_utilization",
    "attach_fill_probes", "class_fill_ratios",
    "MetricsRegistry", "metrics_registry",
]
