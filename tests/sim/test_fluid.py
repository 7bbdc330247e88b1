"""Unit tests for max-min fair fluid resources."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, FluidResource, SimulationError
from repro.sim.fluid import maxmin_allocate


class TestMaxminAllocate:
    def test_empty(self):
        assert maxmin_allocate(10, []) == []

    def test_single_uncapped_gets_all(self):
        assert maxmin_allocate(10, [math.inf]) == [10]

    def test_equal_split(self):
        assert maxmin_allocate(12, [math.inf] * 3) == [4, 4, 4]

    def test_cap_respected_and_redistributed(self):
        rates = maxmin_allocate(12, [2, math.inf, math.inf])
        assert rates == [2, 5, 5]

    def test_all_capped_below_fair_share(self):
        rates = maxmin_allocate(100, [1, 2, 3])
        assert rates == [1, 2, 3]

    def test_order_preserved(self):
        rates = maxmin_allocate(10, [math.inf, 1])
        assert rates == [9, 1]

    def test_conservation(self):
        caps = [3, math.inf, 7, math.inf, 1]
        rates = maxmin_allocate(20, caps)
        assert sum(rates) == pytest.approx(20)
        for r, c in zip(rates, caps):
            assert r <= c + 1e-9


class TestFluidResource:
    def test_single_flow_runs_at_capacity(self):
        env = Environment()
        res = FluidResource(env, capacity=100.0)
        flow = res.submit(work=500.0)
        env.run(until=flow.done)
        assert env.now == pytest.approx(5.0)

    def test_flow_cap_limits_rate(self):
        env = Environment()
        res = FluidResource(env, capacity=100.0)
        flow = res.submit(work=500.0, cap=50.0)
        env.run(until=flow.done)
        assert env.now == pytest.approx(10.0)

    def test_two_flows_share_fairly(self):
        env = Environment()
        res = FluidResource(env, capacity=100.0)
        a = res.submit(work=100.0)
        b = res.submit(work=100.0)
        env.run(until=env.all_of([a.done, b.done]))
        # Each ran at 50 until both drained together.
        assert env.now == pytest.approx(2.0)

    def test_remaining_flow_speeds_up_after_completion(self):
        env = Environment()
        res = FluidResource(env, capacity=100.0)
        short = res.submit(work=50.0)    # drains at t=1 (rate 50)
        long = res.submit(work=150.0)    # 50 by t=1, then rate 100
        env.run(until=short.done)
        assert env.now == pytest.approx(1.0)
        env.run(until=long.done)
        assert env.now == pytest.approx(2.0)

    def test_late_arrival_slows_existing_flow(self):
        env = Environment()
        res = FluidResource(env, capacity=10.0)
        first = res.submit(work=100.0)   # alone: 10s

        def second():
            yield env.timeout(5)         # first has done 50 units
            f = res.submit(work=25.0)    # both now at rate 5; f drains at t=10
            yield f.done
            return env.now

        p = env.process(second())
        env.run(until=first.done)
        # first: 50 left at t=5, rate 5 until t=10 (25 left) then sole rate 10
        assert env.now == pytest.approx(12.5)
        assert p.value == pytest.approx(10.0)

    def test_zero_work_completes_immediately(self):
        env = Environment()
        res = FluidResource(env, capacity=10.0)
        flow = res.submit(work=0.0)
        assert flow.done.triggered

    def test_persistent_flow_consumes_until_removed(self):
        env = Environment()
        res = FluidResource(env, capacity=10.0)
        bg = res.submit(work=None)       # persistent, takes the full 10
        real = res.submit(work=50.0)     # shares: rate 5

        def manager():
            yield env.timeout(4)         # real has done 20
            res.remove(bg)

        env.process(manager())
        env.run(until=real.done)
        # 20 done by t=4 at rate 5, remaining 30 at rate 10 -> t=7
        assert env.now == pytest.approx(7.0)

    def test_remove_pending_flow_fails_waiter(self):
        env = Environment()
        res = FluidResource(env, capacity=10.0)
        flow = res.submit(work=100.0)
        caught = {}

        def waiter():
            try:
                yield flow.done
            except SimulationError:
                caught["t"] = env.now

        def canceller():
            yield env.timeout(2)
            leftover = res.remove(flow)
            caught["left"] = leftover

        env.process(waiter())
        env.process(canceller())
        env.run()
        assert caught["t"] == pytest.approx(2.0)
        assert caught["left"] == pytest.approx(80.0)

    def test_capacity_adjustment_mid_flow(self):
        env = Environment()
        res = FluidResource(env, capacity=10.0)
        flow = res.submit(work=100.0)

        def shrink():
            yield env.timeout(5)         # 50 done
            res.adjust_capacity(5.0)     # remaining 50 at rate 5 -> +10s

        env.process(shrink())
        env.run(until=flow.done)
        assert env.now == pytest.approx(15.0)

    def test_flow_cap_adjustment_mid_flow(self):
        env = Environment()
        res = FluidResource(env, capacity=10.0)
        flow = res.submit(work=100.0, cap=10.0)

        def throttle():
            yield env.timeout(5)
            res.adjust_cap(flow, 2.0)

        env.process(throttle())
        env.run(until=flow.done)
        assert env.now == pytest.approx(30.0)

    def test_utilization_and_busy_time(self):
        env = Environment()
        res = FluidResource(env, capacity=10.0)
        res.submit(work=50.0, cap=5.0)
        assert res.utilization == pytest.approx(0.5)
        env.run()
        assert env.now == pytest.approx(10.0)
        assert res.busy_time() == pytest.approx(5.0)  # 0.5 util * 10 s

    def test_busy_time_keeps_past_load_across_capacity_change(self):
        """A re-cap normalizes only the load carried after it."""
        env = Environment()
        res = FluidResource(env, capacity=10.0)
        flow = res.submit(work=10.0)
        env.run(until=flow.done)
        assert env.now == 1.0
        env.run(until=2.0)
        assert res.busy_time() == 1.0
        res.adjust_capacity(20.0)
        env.run(until=4.0)
        assert res.busy_time() == 1.0
        flow = res.submit(work=20.0)  # 1 s at the new capacity
        env.run(until=flow.done)
        assert res.busy_time() == 2.0

    def test_consume_helper(self):
        env = Environment()
        res = FluidResource(env, capacity=4.0)
        out = {}

        def proc():
            yield from res.consume(work=8.0)
            out["t"] = env.now

        env.process(proc())
        env.run()
        assert out["t"] == pytest.approx(2.0)

    def test_consume_withdraws_on_interrupt(self):
        from repro.sim import Interrupt
        env = Environment()
        res = FluidResource(env, capacity=10.0)
        out = {}

        def proc():
            try:
                yield from res.consume(work=1000.0)
            except Interrupt:
                out["flows_left"] = len(res.flows)

        p = env.process(proc())

        def attacker():
            yield env.timeout(1)
            p.interrupt()

        env.process(attacker())
        env.run()
        assert out["flows_left"] == 0

    def test_invalid_parameters(self):
        env = Environment()
        with pytest.raises(SimulationError):
            FluidResource(env, capacity=0)
        res = FluidResource(env, capacity=1)
        with pytest.raises(SimulationError):
            res.submit(work=-1)
        with pytest.raises(SimulationError):
            res.submit(work=1, cap=0)

    @pytest.mark.parametrize("work", [-1.0, math.nan])
    def test_bad_work_rejected_without_side_effects(self, work):
        """Negative or NaN work raises before the resource changes.

        A NaN flow would never finish: its horizon is NaN, so no wakeup
        is armed.  The refused submit at t = 0.3 must not settle either:
        an extra settle there rounds both flows' remaining differently.
        """
        def run(bad):
            env = Environment()
            res = FluidResource(env, capacity=10.0)
            a = res.submit(100.0)
            b = res.submit(100.0, cap=7.0 / 3)
            env.run(until=0.3)
            if bad is not None:
                with pytest.raises(SimulationError):
                    res.submit(bad)
            env.run(until=1.0)
            busy = res.busy_time()
            return busy, a.remaining, b.remaining, len(res.flows)

        assert run(work) == run(None)

    def test_adjust_cap_rejects_foreign_flow(self):
        """A cap change must go through the flow's own resource."""
        env = Environment()
        a = FluidResource(env, capacity=10.0)
        b = FluidResource(env, capacity=10.0)
        f = a.submit(work=100.0, cap=2.0)
        g = a.submit(work=100.0)
        with pytest.raises(SimulationError):
            b.adjust_cap(f, 8.0)
        assert (f.cap, f.rate, g.rate) == (2.0, 2.0, 8.0)
        with pytest.raises(AttributeError):
            f.cap = 8.0
        a.adjust_cap(f, 8.0)
        assert (f.cap, f.rate, g.rate) == (8.0, 5.0, 5.0)

    def test_many_flows_conserve_work(self):
        env = Environment()
        res = FluidResource(env, capacity=7.0)
        flows = [res.submit(work=10.0 + i, cap=1.0 + (i % 3))
                 for i in range(20)]
        env.run(until=env.all_of([f.done for f in flows]))
        assert all(f.remaining == 0 for f in flows)
        total_work = sum(10.0 + i for i in range(20))
        # Busy integral equals total work / capacity.
        assert res.busy_time() == pytest.approx(total_work / 7.0)


class _OracleFlow:
    def __init__(self, work, cap):
        self.persistent = work is None
        self.remaining = math.inf if work is None else float(work)
        self.cap = float(cap)
        self.rate = 0.0
        self.finished_at = None


class _Oracle:
    """Plain-Python model of one :class:`FluidResource`, float for float.

    Flows live in a creation-ordered list.  Settle drains
    ``remaining -= rate*dt`` clamped at zero (persistent flows skipped)
    and adds ``used*dt`` to the busy integral; rebalance finishes drained
    flows in creation order, allocates with :func:`maxmin_allocate`, sums
    the rates left to right and drains sub-resolution completions at the
    current instant.  Its single pending wakeup fires at ``now + horizon``
    exactly as the kernel computes it.  A capacity change folds the busy
    integral so far, normalized by the old capacity, into ``busy_fold``.
    """

    def __init__(self, now, capacity):
        self.now = self.last = now
        self.capacity = capacity
        self.live = []
        self.busy = 0.0
        self.busy_fold = 0.0
        self.used = 0.0
        self.wake = None
        self.max_live = 0
        self.max_burst = 0        # most flows finished by one scan
        self.sub_resolution = 0   # rebalances that drained below min_dt
        self.lone = 0             # rebalance rounds that saw one live flow

    def advance(self, t):
        while self.wake is not None and self.wake <= t:
            self.now = self.wake
            self.settle()
            self.rebalance()
        self.now = t

    def settle(self):
        dt = self.now - self.last
        if dt <= 0:
            return
        for f in self.live:
            if not f.persistent:
                f.remaining = max(f.remaining - f.rate * dt, 0.0)
        self.busy += self.used * dt
        self.last = self.now

    def rebalance(self):
        now = self.now
        min_dt = max(math.nextafter(now, math.inf) - now, 1e-12)
        while True:
            if len(self.live) == 1:
                self.lone += 1
            done = [f for f in self.live
                    if not f.persistent and f.remaining <= 1e-9]
            self.max_burst = max(self.max_burst, len(done))
            for f in done:
                self.live.remove(f)
                f.remaining = 0.0
                f.rate = 0.0
                f.finished_at = now
            rates = maxmin_allocate(self.capacity,
                                    [f.cap for f in self.live])
            used = 0.0
            for f, r in zip(self.live, rates):
                f.rate = r
                used += r
            self.used = used
            hs = [(f, f.remaining / r) for f, r in zip(self.live, rates)
                  if r > 0 and not f.persistent]
            horizon = min((h for _f, h in hs), default=math.inf)
            if horizon < min_dt:
                self.sub_resolution += 1
                for f, h in hs:
                    if h < min_dt:
                        f.remaining = 0.0
                continue
            break
        self.max_live = max(self.max_live, len(self.live))
        self.wake = None if horizon == math.inf else now + horizon

    def submit(self, work, cap):
        self.settle()
        f = _OracleFlow(work, cap)
        if not f.persistent and f.remaining <= 1e-9:
            f.finished_at = self.now
            return f
        self.live.append(f)
        self.rebalance()
        return f

    def remove(self, f):
        self.settle()
        if f not in self.live:
            return 0.0
        self.live.remove(f)
        f.rate = 0.0
        self.rebalance()
        return f.remaining

    def adjust_capacity(self, capacity):
        self.settle()
        if capacity != self.capacity:
            self.busy_fold += self.busy / self.capacity
            self.busy = 0.0
        self.capacity = capacity
        self.rebalance()

    def busy_time(self):
        self.settle()
        return self.busy_fold + self.busy / self.capacity

    def adjust_cap(self, f, cap):
        self.settle()
        f.cap = cap
        self.rebalance()


def _run_churn(capacity, ops):
    """Apply *ops* to a FluidResource and the oracle; assert ``==`` after
    every step.  Returns the oracle for coverage checks."""
    env = Environment()
    res = FluidResource(env, capacity=capacity)
    oracle = _Oracle(env.now, capacity)
    pairs = []
    for step, op in enumerate(ops):
        kind = op[0]
        if kind == "advance":
            t = env.now + op[1]
            env.run(until=t)
            oracle.advance(t)
        elif kind == "submit":
            _, work, cap, count = op
            for _i in range(count):
                pairs.append((res.submit(work, cap, label=f"s{step}"),
                              oracle.submit(work, cap)))
        elif kind == "adjust_capacity":
            res.adjust_capacity(op[1])
            oracle.adjust_capacity(op[1])
        elif pairs:
            flow, twin = pairs[op[1] % len(pairs)]
            if kind == "remove":
                assert res.remove(flow) == oracle.remove(twin)
            else:
                res.adjust_cap(flow, op[2])
                oracle.adjust_cap(twin, op[2])
        assert res.used_rate == oracle.used
        assert res.busy_time() == oracle.busy_time()
        for flow, twin in pairs:
            assert (flow.remaining, flow.rate, flow.finished_at) == (
                twin.remaining, twin.rate, twin.finished_at), (step, op)
    return oracle


_churn_capacity = st.sampled_from([1.0, 7.3, 97.0, 4096.0, 1e6])
_churn_cap = st.one_of(st.just(math.inf),
                       st.floats(min_value=0.01, max_value=1e6))
_churn_work = st.one_of(
    st.none(),                                     # persistent
    st.just(0.0),
    st.floats(min_value=1e-10, max_value=1e-6),    # sub-EPS / sub-resolution
    st.floats(min_value=1e-3, max_value=1e4),
)
_churn_dt = st.one_of(st.just(0.0),
                      st.floats(min_value=1e-13, max_value=1e-9),
                      st.floats(min_value=0.01, max_value=50.0),
                      st.just(1e5))
_churn_op = st.one_of(
    st.tuples(st.just("submit"), _churn_work, _churn_cap,
              st.integers(1, 48)),
    st.tuples(st.just("remove"), st.integers(0, 10**6)),
    st.tuples(st.just("adjust_cap"), st.integers(0, 10**6), _churn_cap),
    st.tuples(st.just("adjust_capacity"), _churn_capacity),
    st.tuples(st.just("advance"), _churn_dt),
)


class TestFluidExactOracle:
    """Every flow's remaining/rate/finished_at, ``used_rate`` and
    ``busy_time()`` equal the plain-Python oracle with ``==``."""

    @settings(max_examples=150, deadline=None)
    @given(capacity=_churn_capacity,
           ops=st.lists(_churn_op, max_size=40))
    def test_churn_matches_oracle(self, capacity, ops):
        _run_churn(capacity, ops)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_churn_reaches_large_populations(self, seed):
        rng = random.Random(seed)
        ops = []
        for step in range(160):
            roll = rng.random()
            if step == 80:
                # Late in a long run the clock's resolution exceeds the
                # horizon of tiny flows: they drain at the current instant.
                ops += [("advance", 1e6), ("adjust_capacity", 4096.0),
                        ("submit", 5e-9, math.inf, 3)]
            elif roll < 0.4:
                work = rng.choice((None, 0.0, rng.uniform(1.1e-9, 1e-7),
                                   rng.uniform(1.0, 500.0)))
                if work is None and rng.random() < 0.7:
                    work = rng.uniform(1.0, 500.0)
                cap = rng.choice((math.inf, rng.uniform(0.05, 40.0)))
                ops.append(("submit", work, cap, rng.randint(1, 48)))
            elif roll < 0.5:
                ops.append(("remove", rng.randrange(10**6)))
            elif roll < 0.6:
                ops.append(("adjust_cap", rng.randrange(10**6),
                            rng.choice((math.inf, rng.uniform(0.05, 40.0)))))
            elif roll < 0.65:
                ops.append(("adjust_capacity",
                            rng.choice((7.3, 97.0, 4096.0, 1e6))))
            else:
                ops.append(("advance", rng.choice(
                    (0.0, 1e-12, rng.uniform(0.01, 5.0), 1e6))))
        oracle = _run_churn(97.0, ops)
        assert oracle.max_live >= 3 * 32
        assert oracle.max_burst >= 2
        assert oracle.sub_resolution >= 1
        assert oracle.lone >= 1

    def test_lone_flow_drains_below_clock_resolution(self):
        """Late in a long run a lone flow's horizon is below the clock's
        resolution: it drains at the current instant."""
        oracle = _run_churn(10.0, [
            ("advance", 1e9), ("submit", 1e-7, math.inf, 1),
            ("advance", 1.0), ("submit", 5e-8, 2.0, 1)])
        assert oracle.sub_resolution == 2
        assert oracle.lone >= 2

    @pytest.mark.parametrize("ops", [
        # Capped above and below capacity, then re-capped across it.
        [("submit", 50.0, 20.0, 1), ("advance", 1.0),
         ("adjust_cap", 0, 3.0), ("advance", 2.0),
         ("adjust_capacity", 2.5), ("advance", 50.0)],
        [("submit", 40.0, 3.0, 1), ("advance", 1.0),
         ("adjust_capacity", 1.5), ("adjust_cap", 0, math.inf),
         ("advance", 100.0)],
        # A persistent lone flow, withdrawn, then a drained one.
        [("submit", None, math.inf, 1), ("advance", 3.0),
         ("remove", 0), ("submit", 0.0, 1.0, 1), ("submit", 4.0, 1.0, 1),
         ("advance", 10.0)],
    ])
    def test_lone_flows_match_oracle(self, ops):
        oracle = _run_churn(10.0, ops)
        assert oracle.max_live <= 1
        assert oracle.lone >= 2


def _live_rates(n_flows):
    """Rates of *n_flows* live flows on one FluidResource vs. the oracle."""
    env = Environment()
    res = FluidResource(env, capacity=100.0)
    caps = [math.inf if i % 4 == 0 else 0.5 + (i % 7) for i in range(n_flows)]
    flows = [res.submit(work=1e9, cap=c, label=f"f{i}")
             for i, c in enumerate(caps)]
    env.run(until=0.0)
    want = maxmin_allocate(100.0, caps)
    return [f.rate for f in flows], want


@pytest.mark.parametrize("n_flows", [28, 40])
def test_fluid_resource_across_crossover(n_flows):
    """Populations either side of 32 flows get oracle-exact rates."""
    got, want = _live_rates(n_flows)
    assert got == want  # bitwise


def test_fluid_resource_paths_agree_over_time():
    """A population shrinking through 32 flows stays oracle-exact."""
    env = Environment()
    res = FluidResource(env, capacity=64.0)
    flows = [res.submit(work=(i + 1) * 100.0, cap=0.75 + i % 5,
                        label=f"f{i}") for i in range(44)]
    # Flows finish one by one; at every step live rates must match the
    # scalar oracle.
    while any(f.finished_at is None for f in flows):
        env.run(until=env.now + 25.0)
        live = [f for f in flows if f.finished_at is None]
        if not live:
            break
        want = maxmin_allocate(64.0, [f.cap for f in live])
        assert [f.rate for f in live] == want
