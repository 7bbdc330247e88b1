"""The one counter protocol every process-wide ``*_stats`` object shares.

Each subsystem keeps a singleton of cumulative counters (pressure,
faults, availability, placement planner, flow solver, lease market,
sweep executor).  They all zero the same way and snapshot the
same way, so the protocol lives here once: a subclass names its
counters in a class-level ``_COUNTERS`` tuple, and ``_CAST`` picks the
type each snapshot value is converted to (``None`` keeps the value as
stored).  Payloads embed these snapshots and JSON writes ``1`` and
``1.0`` differently, so a class's ``_CAST`` is part of its schema.

Subclasses with state beyond plain counters extend :meth:`reset` and
:meth:`snapshot` with only that extra part.

Like :mod:`repro.units` this module imports nothing from ``repro``:
every layer can inherit from it without creating package cycles.
"""

from __future__ import annotations

__all__ = ["Counters"]


class Counters:
    """Cumulative counters named by ``_COUNTERS``; reset per run."""

    _COUNTERS: tuple[str, ...] = ()
    _CAST: type | None = None
    __slots__ = ()

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        for name in self._COUNTERS:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        cast = self._CAST
        if cast is None:
            return {name: getattr(self, name) for name in self._COUNTERS}
        return {name: cast(getattr(self, name)) for name in self._COUNTERS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hot = {k: v for k, v in self.snapshot().items() if v}
        return f"<{type(self).__name__} {hot or 'idle'}>"
