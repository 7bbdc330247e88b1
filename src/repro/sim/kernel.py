"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES in the style of SimPy.  Model
code is written as generator functions ("processes") that ``yield`` waitable
objects: :class:`Timeout`, :class:`Event`, :class:`Process`, or the
combinators :class:`AllOf` / :class:`AnyOf`.  The :class:`Environment` owns
the event calendar and advances virtual time.

The kernel is intentionally free of any domain knowledge; the cluster,
network and workload models in the sibling packages are all built on it.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from collections.abc import Callable, Generator, Iterable
from typing import Any

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The optional *cause* carries application data (e.g. an eviction notice
    from a victim node's memory-pressure monitor).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes may wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it exactly once, resuming all waiting processes in FIFO order
    of registration.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_scheduled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run (value is final and delivered)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule_event(self)
        return self

    def _add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately so late waiters don't hang.
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        env._schedule_event(self, delay)


class Process(Event):
    """Wraps a generator; the process event triggers when the generator
    returns (success, with its return value) or raises (failure)."""

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(self, env: "Environment", generator: Generator,
                 name: str | None = None):
        if not isinstance(generator, Generator):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?")
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Event | None = None
        # Bootstrap: start the generator at the current sim time.
        boot = Event(env)
        boot._triggered = True
        boot._ok = True
        env._schedule_event(boot)
        boot._add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError(f"{self.name} already terminated")
        if self._waiting_on is self:
            raise SimulationError("a process cannot interrupt itself")
        kick = Event(self.env)
        kick._triggered = True
        kick._ok = False
        kick._value = Interrupt(cause)
        # Detach from whatever we were waiting on so the stale wakeup
        # (if it later fires) is ignored.
        self._detach()
        self.env._schedule_event(kick)
        kick._add_callback(self._resume)

    def _detach(self) -> None:
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None

    def _resume(self, event: Event) -> None:
        if self._triggered:
            return  # stale wakeup after interrupt/termination
        if self._waiting_on is not None and event is not self._waiting_on \
                and not (event._ok is False and isinstance(event._value, Interrupt)):
            return  # stale wakeup from an event we stopped waiting on
        self._waiting_on = None
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                exc = event._value
                target = self.generator.throw(exc)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        except BaseException as exc:
            # Failures are delivered through the process event (so a
            # parent waiting on it — directly, via run(until=...), or
            # through AllOf/AnyOf — re-raises them) instead of tearing
            # down the whole event loop; a crashed background task must
            # not take unrelated simulation state with it.
            if not self._triggered:
                self.fail(exc)
            return
        if not isinstance(target, Event):
            self.generator.throw(SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"))
            return
        if target is self:
            self.generator.throw(SimulationError(
                f"process {self.name!r} cannot wait on itself"))
            return
        self._waiting_on = target
        target._add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} {'done' if self._triggered else 'alive'}>"


class _Callback(Event):
    """A pooled calendar slot that runs a bare callable when popped.

    ``Environment.call_later`` is the allocation-light sibling of
    :meth:`Environment.schedule_callback`: the fluid/flow-network layers
    reschedule their wakeup on every rebalance, so each firing would
    otherwise allocate a fresh :class:`Timeout`, a callback list and a
    wrapping lambda.  A ``_Callback`` instead owns one permanent
    callback cell and returns itself to the environment's free pool the
    moment it fires, before the user function runs — so a function that
    immediately reschedules reuses the very slot that woke it.

    The slot is *not* waitable: it never triggers and must not be
    yielded on.  Internal use only.
    """

    __slots__ = ("fn", "_cell")

    def __init__(self, env: "Environment"):
        super().__init__(env)
        self.fn: Callable[[], None] | None = None
        self._cell = [self._fire]
        self.callbacks = self._cell

    def _fire(self, _event: Event) -> None:
        fn, self.fn = self.fn, None
        # Re-arm and return to the pool before running user code, so a
        # reschedule from inside *fn* reuses this very slot.
        self.callbacks = self._cell
        self._scheduled = False
        self.env._cb_pool.append(self)
        if fn is None:
            return  # disarmed (lazy-cancelled) slot: fire as a no-op
        fn()


class _Condition(Event):
    """Base for AllOf / AnyOf combinators over a fixed set of events."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("condition mixes environments")
        self._pending = len(self.events)
        if not self.events:
            self.succeed(self._collect())
        else:
            for ev in self.events:
                ev._add_callback(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev.processed or ev.triggered}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every child event has triggered (fails fast on error)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers as soon as one child event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed(self._collect())


class Environment:
    """Event calendar and virtual clock.

    Ties are broken by insertion order, making runs fully deterministic
    for a fixed model and seed.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        # Same-instant FIFO: every zero-delay schedule (event succeed,
        # process boot, coalescing guards) lands here instead of the heap.
        # Entries are (counter, event); their time is always the current
        # `now` because time cannot advance while the deque is non-empty
        # (step() drains it before touching any strictly-future heap
        # entry).  A 1000-node settle therefore costs O(1) deque ops per
        # wakeup instead of O(log n) heap churn per flow.
        self._nowq: deque[tuple[int, Event]] = deque()
        self._counter = itertools.count()
        # Free pool of _Callback slots for call_later (slot reuse keeps
        # the rebalance-heavy fluid layers from allocating one Timeout +
        # lambda per scheduled wakeup).
        self._cb_pool: list[_Callback] = []

    @property
    def now(self) -> float:
        return self._now

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str | None = None) -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling & running ------------------------------------------------
    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        if delay == 0.0:
            self._nowq.append((next(self._counter), event))
        else:
            heapq.heappush(self._queue,
                           (self._now + delay, next(self._counter), event))

    def schedule_callback(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run *fn* after *delay*; returns the underlying timeout event."""
        ev = self.timeout(delay)
        ev._add_callback(lambda _e: fn())
        return ev

    def call_later(self, delay: float, fn: Callable[[], None]) -> "_Callback":
        """Run *fn* after *delay* through a pooled calendar slot.

        The allocation-light variant of :meth:`schedule_callback` for hot
        reschedule loops (flow-network wakeups fire once per rate change).
        Unlike ``schedule_callback`` it returns no waitable event; a
        caller that needs to *wait* for the callback should keep using
        ``schedule_callback``.

        Returns the calendar slot.  A caller that keeps rescheduling and
        only wants its *latest* callback live may lazy-cancel the prior
        one by clearing ``slot.fn`` — but only after checking the slot
        still holds *its own* function (``slot.fn is fn``): a fired slot
        returns to the pool and may already belong to someone else.
        """
        if delay < 0:
            raise SimulationError(f"negative call_later delay: {delay}")
        pool = self._cb_pool
        cb = pool.pop() if pool else _Callback(self)
        cb.fn = fn
        cb._scheduled = True
        if delay == 0.0:
            self._nowq.append((next(self._counter), cb))
        else:
            heapq.heappush(self._queue,
                           (self._now + delay, next(self._counter), cb))
        return cb

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._nowq:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process one event from the calendar."""
        nowq = self._nowq
        if nowq:
            # Global (time, counter) order: a heap entry at the current
            # instant with a *smaller* counter was scheduled earlier and
            # must fire first (a timeout(0-ish) racing a succeed()).
            if self._queue and self._queue[0][0] <= self._now \
                    and self._queue[0][1] < nowq[0][0]:
                event = heapq.heappop(self._queue)[2]
            else:
                event = nowq.popleft()[1]
        else:
            if not self._queue:
                raise SimulationError("step() on an empty event calendar")
            when, _tie, event = heapq.heappop(self._queue)
            if when < self._now:
                raise SimulationError("event scheduled in the past")
            self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for fn in callbacks:
            fn(event)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the calendar drains, a deadline passes, or an event fires.

        Returns the event's value when *until* is an :class:`Event`.
        """
        if isinstance(until, Event):
            # Same inlined dispatch as the drain loop below (one Python
            # frame per event matters); must keep the exact same
            # (time, counter) arbitration as step().
            stop = until
            nowq = self._nowq
            queue = self._queue
            pop = heapq.heappop
            while not stop.processed:
                if nowq:
                    if queue and queue[0][0] <= self._now \
                            and queue[0][1] < nowq[0][0]:
                        event = pop(queue)[2]
                    else:
                        event = nowq.popleft()[1]
                elif queue:
                    when, _tie, event = pop(queue)
                    if when < self._now:
                        raise SimulationError("event scheduled in the past")
                    self._now = when
                else:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        "event triggered (deadlock?)")
                callbacks, event.callbacks = event.callbacks, None
                for fn in callbacks:
                    fn(event)
            if not stop._ok:
                raise stop._value
            return stop._value
        deadline = float("inf") if until is None else float(until)
        if deadline < self._now:
            raise SimulationError(
                f"run(until={deadline}) is in the past (now={self._now})")
        # The dispatch below inlines step() for the dominant drain loop —
        # one Python frame per event matters at 10^5 events per run.  It
        # must keep the exact same (time, counter) arbitration.
        nowq = self._nowq
        queue = self._queue
        pop = heapq.heappop
        while nowq or (queue and queue[0][0] <= deadline):
            if nowq:
                if queue and queue[0][0] <= self._now \
                        and queue[0][1] < nowq[0][0]:
                    event = pop(queue)[2]
                else:
                    event = nowq.popleft()[1]
            else:
                when, _tie, event = pop(queue)
                if when < self._now:
                    raise SimulationError("event scheduled in the past")
                self._now = when
            callbacks, event.callbacks = event.callbacks, None
            for fn in callbacks:
                fn(event)
        if deadline != float("inf"):
            self._now = deadline
        return None
