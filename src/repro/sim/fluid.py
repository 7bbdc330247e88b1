"""Fluid (rate-based) resource sharing.

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

Struct-of-arrays state (DESIGN.md §11)
--------------------------------------
Per-flow state (cap, rate, work remaining) lives in parallel numpy arrays
owned by the resource; a :class:`Flow` object is a *handle* holding a slot
index.  The settle step (drain progress over a time delta) is a pair of
vector ops instead of a Python loop, and every reduction that feeds the
simulated trajectory preserves the original *creation-order* float
arithmetic (sequential sums, elementwise updates) so results stay
bit-identical to the per-object implementation — see the summation
invariant in DESIGN.md §11.

``maxmin_allocate`` keeps its scalar sequential share recurrence as the
reference; :func:`maxmin_allocate_vec` is the bit-exact vectorized form
the large-population rebalance path uses (DESIGN.md §13): capped runs of
the sorted schedule collapse into one ``np.subtract.accumulate`` (a
strictly sequential left fold, so the float sequence is unchanged),
all-uncapped tails reuse the memoized ``_equal_share`` schedule, and only
the positions where a finite cap exceeds the running share — whose
two-rounding recurrence has no exact vector equivalent — stay scalar.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import Environment, Event, SimulationError

__all__ = ["Flow", "FluidResource", "maxmin_allocate",
           "maxmin_allocate_vec"]

_EPS = 1e-9
_INIT_SLOTS = 16
#: At or below this many active flows _rebalance runs on Python scalars.
#: The vector path (finish scan, horizon, and the maxmin_allocate_vec
#: allocation) carries ~10 fixed-cost numpy temporaries per call, which
#: beat the scalar loops only once populations reach the mid tens
#: (fig. 2 profiles put >85% of rebalances at or under this size).
_SCALAR_MAX = 32


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
    reused.  Returns ``(rates, rates_arr, used)``; callers must treat
    all three as immutable.
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
        hit = (rates, np.asarray(rates), used)
        _share_cache[key] = hit
    return hit


def _seq_sum(values: np.ndarray) -> float:
    """Strict left-to-right float sum of *values* (creation order).

    ``np.add.accumulate`` applies the ufunc sequentially — unlike
    ``np.sum``, which is pairwise — so the last accumulator entry equals
    the scalar ``for v in values: total += v`` loop bit for bit (the
    summation invariant of DESIGN.md §11; asserted by the equivalence
    tests).
    """
    if not len(values):
        return 0.0
    return float(np.add.accumulate(values)[-1])


def maxmin_allocate_vec(capacity: float, caps: np.ndarray) -> np.ndarray:
    """Vectorized :func:`maxmin_allocate`: array in, array out, bit-exact.

    The scalar routine walks the caps in ascending (stable) order keeping
    a running ``remaining``; at sorted position ``pos`` it takes
    ``rate = min(cap, remaining / (n - pos))`` and subtracts it.  Three
    regimes cover every position, each reproducing that exact float
    sequence:

    - **capped run** — while ``cap < share`` holds, each step subtracts
      the cap itself, so the running remainders are a strictly sequential
      left fold computable with one ``np.subtract.accumulate``; the run
      length is found by comparing caps against the implied shares and
      taking the first failure (an argmin-style reduction).
    - **uncapped-inf tail** — once the smallest remaining cap is ``inf``
      every later one is too (the array is sorted), and the schedule from
      here depends only on ``(remaining, m)``: the memoized
      ``_equal_share`` table supplies it.
    - **finite cap above share** — ``rate = remaining / (n - pos)``
      followed by ``remaining -= rate`` rounds twice per step, a
      recurrence with no exact whole-array form; these positions run on
      Python scalars until a cap binds again.
    """
    n = len(caps)
    if n == 0:
        return np.empty(0)
    if n == 1:
        c = float(caps[0])
        return np.array([c if c < capacity else capacity])
    caps = np.ascontiguousarray(caps, dtype=np.float64)
    if np.isnan(caps).any():
        # NaN caps don't order; defer to the scalar reference wholesale.
        return np.asarray(maxmin_allocate(capacity, caps.tolist()))
    # Stable ascending sort == the scalar sorted(range(n), key=caps.__getitem__)
    # permutation (both stable on the same keys).
    order = np.argsort(caps, kind="stable")
    sc = caps[order]
    sc_list = sc.tolist()
    rates_sorted = np.empty(n)
    remaining = capacity
    k = 0
    while k < n:
        m = n - k
        if sc_list[k] == math.inf:
            rates_sorted[k:] = _equal_share(remaining, m)[1]
            break
        # Hypothesize a capped run from k: sequential remainders assuming
        # every position takes its own cap.
        seq = np.empty(m)
        seq[0] = remaining
        seq[1:] = sc[k:n - 1]
        rem_seq = np.subtract.accumulate(seq)
        shares = rem_seq / np.arange(m, 0, -1, dtype=np.float64)
        capped = sc[k:] < shares
        run = m if capped.all() else int(np.argmin(capped))
        if run:
            rates_sorted[k:k + run] = sc[k:k + run]
            k += run
            if k < n:
                remaining = float(rem_seq[run])
            continue
        # First position is share-bound: scalar steps until a cap binds.
        j = k
        r = remaining
        while j < n:
            cap = sc_list[j]
            if cap == math.inf:
                break  # all-inf from here; the memoized tail takes over
            share = r / (n - j)
            if cap < share:
                break  # a cap binds again; back to the vectorized run
            rates_sorted[j] = share
            r -= share
            j += 1
        remaining = r
        k = j
    out = np.empty(n)
    out[order] = rates_sorted
    return out


class Flow:
    """A unit of demand on a :class:`FluidResource`.

    *work* is the total amount to transfer/compute (bytes or CPU-seconds);
    *cap* bounds the instantaneous rate.  ``done`` triggers when the work
    drains.  A flow with ``work=None`` is *persistent*: it consumes its fair
    share forever (used for steady background demands) and must be removed
    explicitly.

    While attached to its resource (``_slot >= 0``) the mutable numbers
    live in the resource's slot arrays; once detached (completed or
    removed) they are copied back to the scalar fallbacks so late readers
    still see final values.
    """

    __slots__ = ("resource", "work", "done", "label", "started_at",
                 "finished_at", "_slot", "_rem_s", "_rate_s", "_cap_s")

    def __init__(self, resource: "FluidResource", work: float | None,
                 cap: float = math.inf, label: str = ""):
        if work is not None and work < 0:
            raise SimulationError(f"negative flow work: {work}")
        if cap <= 0:
            raise SimulationError(f"flow cap must be positive, got {cap}")
        self.resource = resource
        self.work = work
        self._slot = -1
        self._rem_s = math.inf if work is None else float(work)
        self._cap_s = float(cap)
        self._rate_s = 0.0
        self.done: Event = resource.env.event()
        self.label = label
        self.started_at = resource.env.now
        self.finished_at: float | None = None

    @property
    def remaining(self) -> float:
        s = self._slot
        if s >= 0:
            return float(self.resource._f_rem[s])
        return self._rem_s

    @remaining.setter
    def remaining(self, value: float) -> None:
        s = self._slot
        if s >= 0:
            self.resource._f_rem[s] = value
        else:
            self._rem_s = float(value)

    @property
    def rate(self) -> float:
        s = self._slot
        if s >= 0:
            return float(self.resource._f_rate[s])
        return self._rate_s

    @rate.setter
    def rate(self, value: float) -> None:
        s = self._slot
        if s >= 0:
            self.resource._f_rate[s] = value
        else:
            self._rate_s = float(value)

    @property
    def cap(self) -> float:
        s = self._slot
        if s >= 0:
            return float(self.resource._f_cap[s])
        return self._cap_s

    @cap.setter
    def cap(self, value: float) -> None:
        s = self._slot
        if s >= 0:
            res = self.resource
            old = float(res._f_cap[s])
            res._f_cap[s] = value
            if (old != math.inf) != (float(value) != math.inf):
                res._capped += 1 if float(value) != math.inf else -1
        else:
            self._cap_s = float(value)

    @property
    def persistent(self) -> bool:
        return self.work is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Flow {self.label or id(self):#x} remaining={self.remaining:.3g}"
                f" rate={self.rate:.3g}>")


class FluidResource:
    """A single shared capacity (one NIC direction, one memory bus, one CPU
    socket pair) dividing its rate among flows by capped max-min fairness.

    State is struct-of-arrays: slot-indexed cap/rate/remaining vectors and
    ``_act_list``, the attached slots in creation order.  A slot returns
    to the free list the moment its flow detaches.
    """

    def __init__(self, env: Environment, capacity: float, name: str = ""):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = float(capacity)
        self.name = name
        n = _INIT_SLOTS
        self._f_cap = np.zeros(n)
        self._f_rem = np.zeros(n)
        self._f_rate = np.zeros(n)
        self._f_pers = np.zeros(n, dtype=bool)
        self._objs: list[Flow | None] = [None] * n
        self._free = list(range(n - 1, -1, -1))
        #: attached slots in creation order
        self._act_list: list[int] = []
        # Attached flows with a finite rate cap; when zero, the active
        # population is uncapped-equal and its allocation is memoizable.
        self._capped = 0
        # Attached persistent flows; when zero the per-flow persistence
        # checks (and the _f_pers gathers) can be skipped wholesale.
        self._pers_n = 0
        self._last_update = env.now
        # Identity-stable bound method: _arm_wakeup lazy-cancels the
        # previous wakeup only when the slot still holds *this* function
        # (a fired slot may already belong to another scheduler).
        self._wakeup_fn = self._wakeup
        self._wakeup_cb = None
        # Integral of used rate over time, for utilization accounting.
        self._busy_integral = 0.0
        # Total allocated rate, kept current by _rebalance as the same
        # sequential creation-order sum the settle loop used to compute.
        self._used_now = 0.0

    # -- public API ----------------------------------------------------------
    @property
    def flows(self) -> tuple[Flow, ...]:
        return tuple(self._objs[s] for s in self._active())

    @property
    def used_rate(self) -> float:
        """Instantaneous total allocated rate."""
        return self._used_now

    @property
    def utilization(self) -> float:
        """Instantaneous utilization in [0, 1]."""
        return self._used_now / self.capacity

    def busy_time(self) -> float:
        """Capacity-normalized busy integral: ∫ used/capacity dt."""
        self._settle()
        return self._busy_integral / self.capacity

    def submit(self, work: float | None, cap: float = math.inf,
               label: str = "") -> Flow:
        """Add a flow; returns it (wait on ``flow.done`` for completion)."""
        self._settle()
        flow = Flow(self, work, cap, label)
        if flow._rem_s <= _EPS and not flow.persistent:
            flow.finished_at = self.env.now
            flow.done.succeed(flow)
            return flow
        self._attach(flow)
        self._rebalance()
        return flow

    def remove(self, flow: Flow) -> float:
        """Withdraw a flow (e.g. a persistent demand, or a cancel).

        Returns the work still remaining.  The ``done`` event of a
        non-persistent flow is failed so waiters do not hang.
        """
        self._settle()
        if flow.resource is not self or flow._slot < 0:
            return 0.0
        remaining = float(self._f_rem[flow._slot])
        self._detach(flow)
        flow._rem_s = remaining
        if not flow.persistent and not flow.done.triggered:
            flow.done.fail(SimulationError(f"flow {flow.label!r} cancelled"))
        self._rebalance()
        return remaining

    def adjust_capacity(self, capacity: float) -> None:
        """Change capacity at the current time (e.g. container re-cap)."""
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self._settle()
        self.capacity = float(capacity)
        self._rebalance()

    def adjust_cap(self, flow: Flow, cap: float) -> None:
        """Change a flow's rate cap at the current time."""
        if cap <= 0:
            raise SimulationError(f"flow cap must be positive, got {cap}")
        self._settle()
        flow.cap = float(cap)
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

    # -- slot machinery ------------------------------------------------------
    def _active(self) -> np.ndarray:
        """Active slots in creation order."""
        return np.asarray(self._act_list, dtype=np.intp)

    def _grow(self) -> None:
        old = len(self._objs)
        new = old * 2
        for name in ("_f_cap", "_f_rem", "_f_rate"):
            arr = np.zeros(new)
            arr[:old] = getattr(self, name)
            setattr(self, name, arr)
        pers = np.zeros(new, dtype=bool)
        pers[:old] = self._f_pers
        self._f_pers = pers
        self._objs.extend([None] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def _attach(self, flow: Flow) -> None:
        if not self._free:
            self._grow()
        s = self._free.pop()
        flow._slot = s
        self._f_cap[s] = flow._cap_s
        if flow._cap_s != math.inf:
            self._capped += 1
        if flow.work is None:
            self._pers_n += 1
        self._f_rem[s] = flow._rem_s
        self._f_rate[s] = 0.0
        self._f_pers[s] = flow.work is None
        self._objs[s] = flow
        self._act_list.append(s)

    def _detach(self, flow: Flow) -> None:
        """Array-side teardown: copy state to scalars, free the slot.

        The rate is pinned to 0.0 so the free slot stays inert in the
        whole-range settle until it is reused.
        """
        s = flow._slot
        flow._cap_s = float(self._f_cap[s])
        if flow._cap_s != math.inf:
            self._capped -= 1
        if flow.work is None:
            self._pers_n -= 1
        flow._rem_s = float(self._f_rem[s])
        flow._rate_s = 0.0
        flow._slot = -1
        self._f_rate[s] = 0.0
        self._objs[s] = None
        self._free.append(s)
        self._act_list.remove(s)

    # -- internals -----------------------------------------------------------
    def _settle(self) -> None:
        """Advance every flow's progress from the last update to now.

        Vectorized over the whole slot range: free slots carry rate 0.0,
        and ``x - 0.0 == x`` bitwise, so they are inert.  The
        elementwise update computes the identical float sequence as the
        old per-flow loop (``remaining -= rate*dt`` then clamp at zero).
        Persistent flows must subtract exactly 0.0 — not ``rate*dt`` —
        because their remaining stays inf and ``inf - inf`` is NaN.
        """
        now = self.env.now
        dt = now - self._last_update
        if dt <= 0:
            return
        rem = self._f_rem
        drain = np.where(self._f_pers, 0.0, self._f_rate * dt)
        np.subtract(rem, drain, out=rem)
        np.maximum(rem, 0.0, out=rem)
        self._busy_integral += self._used_now * dt
        self._last_update = now

    def _rebalance(self) -> None:
        """Recompute max-min rates, complete drained flows, schedule wakeup."""
        now = self.env.now
        # The smallest delay the float clock can actually represent at `now`;
        # a flow finishing sooner than this must complete immediately or the
        # wakeup would be scheduled at `now + dt == now` and spin forever.
        min_dt = max(math.nextafter(now, math.inf) - now, 1e-12)
        if len(self._act_list) <= 1:
            # 0 or 1 active flows — the dominant case for task CPUs and
            # store cost meters, where the numpy temporaries of the
            # general path cost more than the whole computation.  Pure
            # scalar arithmetic, float-identical to the path below
            # (single-flow maxmin is min(cap, capacity); the used-rate
            # sum over one element is that element).
            s = self._act_list[0] if self._act_list else -1
            no_pers = self._pers_n == 0
            horizon = math.inf
            while True:
                if s >= 0 and (no_pers or not self._f_pers[s]) \
                        and self._f_rem[s] <= _EPS:
                    flow = self._objs[s]
                    self._detach(flow)
                    flow._rem_s = 0.0
                    flow.finished_at = now
                    flow.done.succeed(flow)
                    s = -1
                if s < 0:
                    self._used_now = 0.0
                    horizon = math.inf
                    break
                cap = float(self._f_cap[s])
                rate = cap if cap < self.capacity else self.capacity
                self._f_rate[s] = rate
                self._used_now = rate
                horizon = math.inf
                if rate > 0 and (no_pers or not self._f_pers[s]):
                    horizon = float(self._f_rem[s]) / rate
                    if horizon < min_dt:
                        self._f_rem[s] = 0.0
                        continue
                break
            self._arm_wakeup(horizon)
            return
        if len(self._act_list) <= _SCALAR_MAX:
            # Small populations (a store cost meter with a few concurrent
            # ops): run the same algorithm on Python scalars.  Fancy
            # indexing and the tolist() round-trip cost more than the
            # whole allocation at this size.  Every arithmetic step
            # mirrors the vector path below operation for operation, so
            # the float sequence is identical.
            f_rem, f_cap = self._f_rem, self._f_cap
            f_pers, f_rate = self._f_pers, self._f_rate
            slots = list(self._act_list)
            no_pers = self._pers_n == 0
            while True:
                if no_pers:
                    fin = [s for s in slots if f_rem[s] <= _EPS]
                else:
                    fin = [s for s in slots
                           if not f_pers[s] and f_rem[s] <= _EPS]
                if fin:
                    for s in fin:  # creation order, like the vector scan
                        flow = self._objs[s]
                        self._detach(flow)
                        flow._rem_s = 0.0
                        flow.finished_at = now
                        flow.done.succeed(flow)
                    slots = [s for s in slots if s not in fin]
                if self._capped == 0:
                    rates, _, used = _equal_share(self.capacity, len(slots))
                else:
                    rates = maxmin_allocate(
                        self.capacity, [float(f_cap[s]) for s in slots])
                    used = 0.0
                    for r in rates:
                        used += r
                for s, r in zip(slots, rates):
                    f_rate[s] = r
                self._used_now = used
                horizon = math.inf
                sub = []
                for s, r in zip(slots, rates):
                    if r > 0 and (no_pers or not f_pers[s]):
                        h = float(f_rem[s]) / r
                        if h < horizon:
                            horizon = h
                        if h < min_dt:
                            sub.append(s)
                if horizon < min_dt:
                    # Sub-resolution completions drain at this instant.
                    for s in sub:
                        f_rem[s] = 0.0
                    continue
                break
            self._arm_wakeup(horizon)
            return
        while True:
            a = self._active()
            npers = None
            if len(a):
                no_pers = self._pers_n == 0
                fin = self._f_rem[a] <= _EPS
                if not no_pers:
                    npers = ~self._f_pers[a]
                    fin &= npers
                if fin.any():
                    for s in a[fin]:  # creation order, like the old list scan
                        flow = self._objs[s]
                        self._detach(flow)
                        flow._rem_s = 0.0
                        flow.finished_at = now
                        flow.done.succeed(flow)
                    a = self._active()
                    no_pers = self._pers_n == 0
                    npers = (~self._f_pers[a]
                             if len(a) and not no_pers else None)
                elif no_pers:
                    npers = None
            # maxmin_allocate_vec computes the identical float sequence
            # as the scalar routine on a tolist() round-trip (asserted by
            # the equivalence suite), and _seq_sum folds the used-rate
            # total left to right — the same creation-order accumulation
            # the scalar loop performed.
            if self._capped == 0:
                _rates, rate_a, used = _equal_share(self.capacity, len(a))
            else:
                rate_a = maxmin_allocate_vec(self.capacity, self._f_cap[a])
                used = _seq_sum(rate_a)
            self._f_rate[a] = rate_a if len(a) else 0.0
            self._used_now = used
            horizon = math.inf
            if len(a):
                m = rate_a > 0
                if npers is not None:
                    m &= npers
                if m.any():
                    # When every active flow drains (the usual case) the
                    # mask is all-true and the fancy-index copies can be
                    # skipped; the arithmetic is identical either way.
                    am = a if m.all() else a[m]
                    h = (self._f_rem[am] / rate_a if am is a
                         else self._f_rem[am] / rate_a[m])
                    horizon = float(h.min())
                    if horizon < min_dt:
                        # Sub-resolution completions: drain them at the
                        # current instant.
                        self._f_rem[am[h < min_dt]] = 0.0
                        continue
            break
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FluidResource {self.name!r} cap={self.capacity:.3g} "
                f"flows={len(self._act_list)}>")
