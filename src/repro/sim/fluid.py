"""Fluid (rate-based) resource sharing, and the flow core it shares.

Contention on NICs, memory bandwidth and CPU cores is modeled with the
classic *fluid-flow* abstraction: each consumer is a :class:`Flow` with a
fixed amount of *work* (bytes, or CPU-seconds) and an optional per-flow rate
cap (a task that asked for 4 cores can never use more than 4 core-seconds
per second).  The resource divides its capacity among active flows by
**max-min fairness**: rates rise equally until a flow hits its cap, then the
leftover is redistributed.  Completions are event-driven: whenever the flow
set changes, rates are recomputed and the next completion is rescheduled.

This single abstraction reproduces the contention effects the paper relies
on: an extra store flow on a victim NIC takes a fair share away from the
tenant's shuffle traffic; store ingest on the memory bus slows STREAM by
exactly the bandwidth it consumes.

One fluid core (DESIGN.md §11)
------------------------------
Both kinds of flow, a :class:`Flow` on one :class:`FluidResource` and a
``NetFlow`` across the links of a ``FlowNetwork`` (``sim/flownet.py``),
carry their own ``remaining``, rate and cap as plain Python floats in
:class:`_FlowBase`, which validates work and cap once for both.  Both
owners derive from :class:`_FlowOwner`: attached flows sit in ``_live``, a
list in creation order, and one completion loop finishes drained flows,
has the owner solve for new rates, takes the horizon (draining at once
any completion the float clock cannot resolve at ``now``) and arms one
lazy-cancelled wakeup.  The owners differ only in how they settle and
solve: a resource allocates with :func:`maxmin_allocate` (or the memoized
``_equal_share`` when no flow is capped), a network re-fills the
components its mutations dirtied.

A lone flow on a resource, the common case, skips the loop: its rate is
``min(cap, capacity)``, which is what both allocators return for one
flow.  Every float is computed in creation order, the summation
invariant of DESIGN.md §11.
"""

from __future__ import annotations

import math

from .kernel import Environment, Event, SimulationError

__all__ = ["Flow", "FluidResource", "maxmin_allocate"]

_EPS = 1e-9


def maxmin_allocate(capacity: float, caps: list[float]) -> list[float]:
    """Max-min fair allocation of *capacity* among flows with rate *caps*.

    Returns a rate per flow, in the input order.  Uncapped flows pass
    ``math.inf``.  Runs in O(n log n).
    """
    n = len(caps)
    if n == 0:
        return []
    if n == 1:
        # share == capacity exactly; identical to the general path.
        cap = caps[0]
        return [cap if cap < capacity else capacity]
    first = caps[0]
    for c in caps:
        if c != first:
            order = sorted(range(n), key=lambda i: caps[i])
            break
    else:
        # All caps equal: the stable sort is the identity permutation.
        order = range(n)
    rates = [0.0] * n
    remaining = capacity
    for pos, idx in enumerate(order):
        share = remaining / (n - pos)
        cap = caps[idx]
        rate = cap if cap < share else share
        rates[idx] = rate
        remaining -= rate
    return rates


_share_cache: dict = {}


def _equal_share(capacity: float, n: int):
    """Memoized ``maxmin_allocate(capacity, [inf]*n)`` plus its sum.

    Uncapped equal demands are the dominant meter population; their
    allocation depends only on ``(capacity, n)``, so the exact rate list
    the general routine produces — including its sequential
    ``remaining / (n - pos)`` float schedule — is computed once and
    reused.  Returns ``(rates, used)``; callers must treat both as
    immutable.
    """
    key = (capacity, n)
    hit = _share_cache.get(key)
    if hit is None:
        if len(_share_cache) >= 4096:
            _share_cache.clear()
        rates = maxmin_allocate(capacity, [math.inf] * n)
        used = 0.0
        for r in rates:
            used += r
        hit = (rates, used)
        _share_cache[key] = hit
    return hit


class _FlowBase:
    """The state a flow carries on either owner.

    *work* is the total amount to move (bytes or CPU-seconds); *cap*
    bounds the instantaneous rate.  ``done`` triggers when the work
    drains.  A flow with ``work=None`` is *persistent*: it takes its fair
    share until removed and its ``remaining`` stays ``inf``.  Once
    detached (finished or removed) its rate is 0.0 and ``remaining``
    keeps its final value.  The cap is read-only here; owners change it.
    """

    __slots__ = ("work", "remaining", "_rate", "_cap", "done", "label",
                 "started_at", "finished_at", "_attached")

    def __init__(self, env: Environment, work: float | None, cap: float,
                 label: str):
        # `not work >= 0` also rejects NaN, whose horizon would be NaN:
        # no wakeup would ever finish the flow.
        if work is not None and not work >= 0:
            raise SimulationError(f"flow work must be >= 0, got {work}")
        if cap <= 0:
            raise SimulationError(f"flow cap must be positive, got {cap}")
        self.work = work
        self.remaining = math.inf if work is None else float(work)
        self._rate = 0.0
        self._cap = float(cap)
        self.done: Event = env.event()
        self.label = label
        self.started_at = env.now
        self.finished_at: float | None = None
        self._attached = False

    @property
    def rate(self) -> float:
        return self._rate

    @property
    def cap(self) -> float:
        return self._cap

    @property
    def persistent(self) -> bool:
        return self.work is None


class _FlowOwner:
    """The completion machinery :class:`FluidResource` and ``FlowNetwork``
    share.

    Subclasses keep their attached flows in ``_live`` (creation order)
    and define ``_settle`` (drain ``remaining`` up to now), ``_solve``
    (set every live flow's ``_rate``), ``_unlink`` (drop a detached flow
    from their own indexes) and ``_rebalance`` (what a wakeup runs after
    settling).
    """

    def __init__(self, env: Environment):
        self.env = env
        self._live: list = []
        self._last_update = env.now
        # Identity-stable bound method: _arm_wakeup lazy-cancels the
        # previous wakeup only when the slot still holds *this* function
        # (a fired slot may already belong to another scheduler).
        self._wakeup_fn = self._wakeup
        self._wakeup_cb = None

    def _admit(self, flow: _FlowBase) -> bool:
        """Attach *flow*, or finish it at once if it has no work."""
        if flow.remaining <= _EPS:  # never true for persistent (inf)
            flow.finished_at = self.env.now
            flow.done.succeed(flow)
            return False
        flow._attached = True
        self._live.append(flow)
        return True

    def _withdraw(self, flow: _FlowBase) -> None:
        """Detach *flow* unfinished; a non-persistent one fails ``done``."""
        self._live.remove(flow)
        self._unlink(flow)
        flow._attached = False
        flow._rate = 0.0
        if not flow.persistent and not flow.done.triggered:
            flow.done.fail(SimulationError(f"flow {flow.label!r} cancelled"))

    def _finish(self, done: list) -> None:
        """Complete the drained flows *done* (creation order) now."""
        now = self.env.now
        for f in done:
            self._unlink(f)
            f._attached = False
            f.remaining = 0.0
            f._rate = 0.0
            f.finished_at = now
            f.done.succeed(f)
        live = self._live
        self._live = ([] if len(done) == len(live)
                      else [f for f in live if f._attached])

    def _min_dt(self) -> float:
        """The smallest delay the float clock can represent at ``now``.

        A flow finishing sooner must complete immediately, or its wakeup
        would land at ``now + dt == now`` and spin forever.
        """
        now = self.env.now
        return max(math.nextafter(now, math.inf) - now, 1e-12)

    def _complete(self) -> None:
        """Finish drained flows, re-solve and arm the next completion.

        Persistent flows hold ``remaining == inf``, so neither the finish
        scan nor the horizon selects them.
        """
        min_dt = self._min_dt()
        while True:
            done = [f for f in self._live if f.remaining <= _EPS]
            if done:
                self._finish(done)
            self._solve()
            live = self._live
            horizon = math.inf
            for f in live:
                r = f._rate
                if r > 0:
                    h = f.remaining / r
                    if h < horizon:
                        horizon = h
            if horizon >= min_dt:
                break
            # Sub-resolution completions drain at this instant.
            for f in live:
                r = f._rate
                if r > 0 and f.remaining / r < min_dt:
                    f.remaining = 0.0
        self._arm_wakeup(horizon)

    def _arm_wakeup(self, horizon: float) -> None:
        """Schedule the next completion wakeup, superseding the last.

        The previous pending wakeup (if any) is lazy-cancelled by
        clearing its calendar slot — guarded by an identity check on the
        stored function, because a fired slot returns to the shared pool
        and may already carry someone else's callback.
        """
        cb = self._wakeup_cb
        if cb is not None and cb.fn is self._wakeup_fn:
            cb.fn = None
        self._wakeup_cb = (self.env.call_later(horizon, self._wakeup_fn)
                           if horizon != math.inf else None)

    def _wakeup(self) -> None:
        self._settle()
        self._rebalance()


class Flow(_FlowBase):
    """A unit of demand on a :class:`FluidResource`.

    Change its cap with :meth:`FluidResource.adjust_cap`.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "FluidResource", work: float | None,
                 cap: float = math.inf, label: str = ""):
        super().__init__(resource.env, work, cap, label)
        self.resource = resource

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Flow {self.label or id(self):#x} remaining={self.remaining:.3g}"
                f" rate={self._rate:.3g}>")


class FluidResource(_FlowOwner):
    """A single shared capacity (one NIC direction, one memory bus, one CPU
    socket pair) dividing its rate among flows by capped max-min fairness.
    """

    def __init__(self, env: Environment, capacity: float, name: str = ""):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        super().__init__(env)
        self.capacity = float(capacity)
        self.name = name
        # Attached flows with a finite rate cap; when zero, the active
        # population is uncapped-equal and its allocation is memoizable.
        self._capped = 0
        # Integral of used rate over time since the last capacity change,
        # for utilization accounting; busy time accrued under earlier
        # capacities is folded into _busy_folded at each change.
        self._busy_integral = 0.0
        self._busy_folded = 0.0
        # Total allocated rate, kept current by _rebalance as the
        # sequential creation-order sum of the rates.
        self._used_now = 0.0

    # -- public API ----------------------------------------------------------
    @property
    def flows(self) -> tuple[Flow, ...]:
        return tuple(self._live)

    @property
    def used_rate(self) -> float:
        """Instantaneous total allocated rate."""
        return self._used_now

    @property
    def utilization(self) -> float:
        """Instantaneous utilization in [0, 1]."""
        return self._used_now / self.capacity

    def busy_time(self) -> float:
        """Capacity-normalized busy integral: ∫ used/capacity dt, each
        span normalized by the capacity in force during it."""
        self._settle()
        return self._busy_folded + self._busy_integral / self.capacity

    def submit(self, work: float | None, cap: float = math.inf,
               label: str = "") -> Flow:
        """Add a flow; returns it (wait on ``flow.done`` for completion)."""
        flow = Flow(self, work, cap, label)
        self._settle()
        if self._admit(flow):
            if flow._cap != math.inf:
                self._capped += 1
            self._rebalance()
        return flow

    def remove(self, flow: Flow) -> float:
        """Withdraw a flow (e.g. a persistent demand, or a cancel).

        Returns the work still remaining.  The ``done`` event of a
        non-persistent flow is failed so waiters do not hang.
        """
        self._settle()
        if flow.resource is not self or not flow._attached:
            return 0.0
        self._withdraw(flow)
        self._rebalance()
        return flow.remaining

    def adjust_capacity(self, capacity: float) -> None:
        """Change capacity at the current time (e.g. container re-cap)."""
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self._settle()
        capacity = float(capacity)
        if capacity != self.capacity:
            self._busy_folded += self._busy_integral / self.capacity
            self._busy_integral = 0.0
        self.capacity = capacity
        self._rebalance()

    def adjust_cap(self, flow: Flow, cap: float) -> None:
        """Change the rate cap of one of this resource's flows now."""
        if cap <= 0:
            raise SimulationError(f"flow cap must be positive, got {cap}")
        if flow.resource is not self:
            raise SimulationError(
                f"flow {flow.label!r} belongs to another resource")
        self._settle()
        cap = float(cap)
        if flow._attached and (flow._cap != math.inf) != (cap != math.inf):
            self._capped += 1 if cap != math.inf else -1
        flow._cap = cap
        self._rebalance()

    # -- generator helper ----------------------------------------------------
    def consume(self, work: float, cap: float = math.inf, label: str = ""):
        """``yield from``-able helper: submit and wait for completion."""
        flow = self.submit(work, cap, label)
        try:
            yield flow.done
        except BaseException:
            # Interrupted while flowing: withdraw through remove() so the
            # progress accrued since the last update is settled first.
            self.remove(flow)
            raise
        return flow

    # -- internals -----------------------------------------------------------
    def _settle(self) -> None:
        """Advance every flow's progress from the last update to now.

        Persistent flows are skipped: their remaining stays ``inf``.
        """
        now = self.env.now
        dt = now - self._last_update
        if dt <= 0:
            return
        for f in self._live:
            if f.work is not None:
                r = f.remaining - f._rate * dt
                f.remaining = r if r > 0.0 else 0.0
        self._busy_integral += self._used_now * dt
        self._last_update = now

    def _unlink(self, flow: Flow) -> None:
        if flow._cap != math.inf:
            self._capped -= 1

    def _solve(self) -> None:
        """Allocate max-min rates among the live flows."""
        live = self._live
        if self._capped == 0:
            rates, used = _equal_share(self.capacity, len(live))
        else:
            rates = maxmin_allocate(self.capacity, [f._cap for f in live])
            used = 0.0
            for r in rates:
                used += r
        self._used_now = used
        for f, r in zip(live, rates):
            f._rate = r

    def _rebalance(self) -> None:
        """Recompute max-min rates, complete drained flows, schedule wakeup."""
        live = self._live
        if len(live) != 1:
            self._complete()
            return
        # A lone flow gets min(cap, capacity) — bit for bit what
        # maxmin_allocate and _equal_share return for one flow — and its
        # rate is the whole used sum (0.0 + r == r).
        f = live[0]
        if f.remaining > _EPS:
            cap = f._cap
            capacity = self.capacity
            r = cap if cap < capacity else capacity
            h = f.remaining / r
            if not h < self._min_dt():
                f._rate = r
                self._used_now = r
                # inf / inf is NaN; like the general scan, it sets no
                # horizon.
                self._arm_wakeup(h if h < math.inf else math.inf)
                return
            f.remaining = 0.0  # a sub-resolution completion drains now
        self._finish(live)
        self._used_now = 0.0
        self._arm_wakeup(math.inf)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FluidResource {self.name!r} cap={self.capacity:.3g} "
                f"flows={len(self._live)}>")
