"""Time-series monitoring of simulated resources.

A :class:`Monitor` samples arbitrary probe callables at a fixed virtual-time
interval, mirroring the 1 Hz `sar`/`collectl`-style node monitoring the
paper's Figure 2 plots are drawn from.  Samples accumulate in plain lists;
:meth:`series` returns NumPy arrays for analysis.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .kernel import Environment

__all__ = ["Monitor", "TimeSeries"]


class TimeSeries:
    """An append-only (time, value) series with summary helpers.

    The array view is memoized and invalidated on append, so summary
    helpers (``mean``/``max``/``percentile``) called repeatedly between
    samples — the experiment runners' hot path — stop re-converting the
    full list each time.  Treat the returned arrays as read-only: they
    are shared between callers until the next append.
    """

    __slots__ = ("name", "times", "values", "_arrays")

    def __init__(self, name: str):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None

    def append(self, t: float, v: float) -> None:
        self.times.append(t)
        self.values.append(v)
        self._arrays = None

    def __len__(self) -> int:
        return len(self.values)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._arrays is None:
            self._arrays = (np.asarray(self.times), np.asarray(self.values))
        return self._arrays

    def mean(self, t_start: float | None = None,
             t_end: float | None = None) -> float:
        """Average value over a window (default: the whole series)."""
        if not self.values:
            return 0.0
        t, v = self.as_arrays()
        mask = np.ones(len(t), dtype=bool)
        if t_start is not None:
            mask &= t >= t_start
        if t_end is not None:
            mask &= t <= t_end
        if not mask.any():
            return 0.0
        return float(v[mask].mean())

    def max(self) -> float:
        return float(self.as_arrays()[1].max()) if self.values else 0.0

    def last(self) -> float:
        """The most recent sample (0.0 when nothing was sampled yet) —
        the natural reading for cumulative-counter probes."""
        return float(self.values[-1]) if self.values else 0.0

    def percentile(self, q: float) -> float:
        if not self.values:
            return 0.0
        return float(np.percentile(self.as_arrays()[1], q))


class Monitor:
    """Samples a set of named probes every *interval* simulated seconds.

    Probes are zero-argument callables returning a float (e.g.
    ``lambda: nic.utilization``).  Sampling stops when :meth:`stop` is called
    or the simulation drains.
    """

    def __init__(self, env: Environment, interval: float = 1.0):
        if interval <= 0:
            raise ValueError("monitor interval must be positive")
        self.env = env
        self.interval = interval
        self._probes: dict[str, Callable[[], float]] = {}
        self._multi_probes: list[tuple[tuple[str, ...],
                                       Callable[[], tuple]]] = []
        self.series: dict[str, TimeSeries] = {}
        self._running = False
        self._stopped = False

    def add_probe(self, name: str, probe: Callable[[], float]) -> TimeSeries:
        if name in self.series:
            raise ValueError(f"duplicate probe {name!r}")
        self._probes[name] = probe
        ts = TimeSeries(name)
        self.series[name] = ts
        return ts

    def add_multi_probe(self, names: tuple[str, ...],
                        probe: Callable[[], tuple],
                        ) -> dict[str, TimeSeries]:
        """Register one fused probe feeding several series at once.

        *probe* returns one float per name; the sampler calls it once per
        tick.  This is the cheap way to sample related quantities that
        share a traversal (e.g. per-class CPU/TX/RX read off each node's
        counters in a single pass instead of one pass per metric, or
        every key of one counter snapshot — ``metrics_registry.attach``).
        """
        for name in names:
            if name in self.series:
                raise ValueError(f"duplicate probe {name!r}")
        out: dict[str, TimeSeries] = {}
        for name in names:
            ts = TimeSeries(name)
            self.series[name] = ts
            out[name] = ts
        self._multi_probes.append((tuple(names), probe))
        return out

    def start(self) -> None:
        if self._running:
            raise RuntimeError("monitor already started")
        self._running = True
        self.env.process(self._sampler(), name="monitor")

    def stop(self) -> None:
        self._stopped = True

    def _sampler(self):
        while not self._stopped:
            t = self.env.now
            for name, probe in self._probes.items():
                self.series[name].append(t, float(probe()))
            for names, probe in self._multi_probes:
                for name, value in zip(names, probe()):
                    self.series[name].append(t, float(value))
            yield self.env.timeout(self.interval)

    def mean(self, name: str, t_start: float | None = None,
             t_end: float | None = None) -> float:
        return self.series[name].mean(t_start, t_end)
