"""Experiment runners for the paper's figures.

- :func:`baseline_run` — one Fig. 2 scenario: the dd bag on a deployment
  with a given α, with 1 Hz class-level monitoring of CPU and NIC load.
- :func:`baseline_sweep` — all five α scenarios (Fig. 2a-f).
- Slowdown experiments live in :mod:`repro.core.slowdown`; consumption in
  :mod:`repro.core.consumption`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim import Monitor
from ..units import MB
from ..workflows import dd_bag
from .deployment import DeploymentConfig, MemFSSDeployment

__all__ = ["BaselineMetrics", "baseline_run", "baseline_sweep",
           "FIG2_ALPHAS"]

#: The five data splits of Fig. 2: % of data on own nodes.
FIG2_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass
class BaselineMetrics:
    """Class-averaged load during one Fig. 2 scenario."""

    alpha: float
    runtime_s: float
    own_cpu: float          # mean CPU utilization, own class
    own_tx: float           # mean egress NIC utilization
    own_rx: float
    victim_cpu: float
    victim_tx: float
    victim_rx: float
    victim_rx_bytes_s: float   # mean ingest per victim node (bytes/s)
    peak_victim_rx: float = 0.0
    series: dict = field(default_factory=dict)


def baseline_run(alpha: float, n_tasks: int = 2048,
                 file_size: float = 128 * MB,
                 config: DeploymentConfig | None = None,
                 monitor_interval: float = 1.0,
                 keep_series: bool = False) -> BaselineMetrics:
    """One Fig. 2 scenario: run the dd bag at the given α and measure."""
    cfg = (config or DeploymentConfig()).with_alpha(alpha)
    dep = MemFSSDeployment(cfg)
    env = dep.env
    mon = Monitor(env, interval=monitor_interval)

    def class_probe(nodes):
        # One fused pass per class and tick: each node's CPU/TX/RX
        # counters are read together instead of once per metric.  The
        # per-metric sums accumulate in the same node order as the old
        # one-probe-per-metric lambdas, so the series are bit-identical.
        def probe():
            cpu = tx = rx = 0.0
            for n in nodes:
                cpu += n.cpu_utilization
                tx += n.nic_tx_utilization
                rx += n.nic_rx_utilization
            k = max(1, len(nodes))
            return cpu / k, tx / k, rx / k
        return probe

    mon.add_multi_probe(("own.cpu", "own.tx", "own.rx"),
                        class_probe(dep.own))
    mon.add_multi_probe(("victim.cpu", "victim.tx", "victim.rx"),
                        class_probe(dep.victims))
    # Lazy: repro.metrics pulls in repro.exec, which imports this module.
    from ..metrics.pressure import attach_fill_probes
    from ..metrics.registry import metrics_registry
    # Process-wide counters: start each scenario from zero so payloads
    # stay pure functions of the spec (serial == stealing backend).
    metrics_registry.reset()
    metrics_registry.attach(mon, "pressure")
    attach_fill_probes(mon, dep.fs)
    mon.start()
    wf = dd_bag(n_tasks=n_tasks, file_size=file_size)
    result = dep.engine.execute(wf)
    mon.stop()
    runtime = result.makespan

    own_util = dep.own_class_utilization()
    vic_util = dep.victim_class_utilization()
    nic_bw = dep.victims[0].spec.nic_bandwidth if dep.victims else 0.0
    metrics = BaselineMetrics(
        alpha=alpha, runtime_s=runtime,
        own_cpu=own_util["cpu"],
        own_tx=own_util["tx"], own_rx=own_util["rx"],
        victim_cpu=vic_util["cpu"],
        victim_tx=vic_util["tx"], victim_rx=vic_util["rx"],
        victim_rx_bytes_s=vic_util["rx"] * nic_bw,
        peak_victim_rx=mon.series["victim.rx"].max(),
    )
    if keep_series:
        metrics.series = {name: ts.as_arrays()
                          for name, ts in mon.series.items()}
    return metrics


def baseline_sweep(n_tasks: int = 2048, file_size: float = 128 * MB,
                   config: DeploymentConfig | None = None,
                   alphas: tuple[float, ...] = FIG2_ALPHAS,
                   monitor_interval: float = 1.0,
                   keep_series: bool = False,
                   jobs: int = 1, cache=None) -> list[BaselineMetrics]:
    """All Fig. 2 scenarios, in α order.

    The scenarios are independent, so the sweep fans out through
    :class:`repro.exec.SweepRunner`: ``jobs > 1`` runs them on that many
    work-stealing worker processes (byte-identical to serial), and
    *cache* (a :class:`repro.exec.ResultStore`) answers unchanged
    scenarios from disk.  Payloads round-trip through JSON either way,
    so ``series`` (with *keep_series*) holds plain lists here — use
    :func:`baseline_run` directly for the in-memory array view.
    """
    from ..exec import SweepRunner, fig2_sweep_specs, metrics_from_payload
    specs = fig2_sweep_specs(n_tasks=n_tasks, file_size=file_size,
                             config=config, alphas=alphas,
                             monitor_interval=monitor_interval,
                             keep_series=keep_series)
    runner = SweepRunner(jobs=jobs, cache=cache)
    return [metrics_from_payload(r.payload) for r in runner.run(specs)]
