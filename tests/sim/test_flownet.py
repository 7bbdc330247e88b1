"""Unit tests for the max-min fair flow network."""

import math
import random
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, FlowNetwork, SimulationError, flownet
from repro.sim.flownet import FlowNetStats, progressive_fill
from repro.sim.flownet import _SCALAR_MAX


def make_net(env, nodes=2, cap=100.0):
    net = FlowNetwork(env)
    links = {}
    for i in range(nodes):
        links[f"tx{i}"] = net.add_link(f"tx{i}", cap)
        links[f"rx{i}"] = net.add_link(f"rx{i}", cap)
    return net, links


class TestProgressiveFill:
    def test_single_flow_single_link(self):
        env = Environment()
        net, L = make_net(env)
        f = net.transfer([L["tx0"], L["rx1"]], nbytes=1000.0)
        assert f.rate == pytest.approx(100.0)

    def test_shared_egress_split(self):
        env = Environment()
        net, L = make_net(env, nodes=3)
        f1 = net.transfer([L["tx0"], L["rx1"]], 1e6)
        f2 = net.transfer([L["tx0"], L["rx2"]], 1e6)
        assert f1.rate == pytest.approx(50.0)
        assert f2.rate == pytest.approx(50.0)

    def test_incast_shares_ingress(self):
        env = Environment()
        net, L = make_net(env, nodes=5)
        flows = [net.transfer([L[f"tx{i}"], L["rx0"]], 1e6) for i in range(1, 5)]
        for f in flows:
            assert f.rate == pytest.approx(25.0)

    def test_bottleneck_frees_capacity_elsewhere(self):
        # f1 and f2 share tx0 (each 50); f3 alone on tx1->rx2 shares rx2
        # with f2.  Max-min: f2 fixed at 50 by tx0, f3 gets 100-50=50?  No:
        # progressive filling raises all to 50 (tx0 saturates), then f3 can
        # continue to 100-50 = 50 left on rx2 -> f3 = 50.
        env = Environment()
        net, L = make_net(env, nodes=3)
        f1 = net.transfer([L["tx0"], L["rx1"]], 1e6)
        f2 = net.transfer([L["tx0"], L["rx2"]], 1e6)
        f3 = net.transfer([L["tx1"], L["rx2"]], 1e6)
        assert f1.rate == pytest.approx(50.0)
        assert f2.rate == pytest.approx(50.0)
        assert f3.rate == pytest.approx(50.0)

    def test_flow_cap_leaves_room(self):
        env = Environment()
        net, L = make_net(env, nodes=3)
        f1 = net.transfer([L["tx0"], L["rx1"]], 1e6, cap=10.0)
        f2 = net.transfer([L["tx0"], L["rx2"]], 1e6)
        assert f1.rate == pytest.approx(10.0)
        assert f2.rate == pytest.approx(90.0)

    def test_no_link_capacity_exceeded(self):
        env = Environment()
        net, L = make_net(env, nodes=4, cap=70.0)
        import itertools
        for i, j in itertools.permutations(range(4), 2):
            net.transfer([L[f"tx{i}"], L[f"rx{j}"]], 1e9)
        for link in net.links:
            assert link.used_rate <= link.capacity + 1e-6


class TestFlowNetworkDynamics:
    def test_completion_time_single(self):
        env = Environment()
        net, L = make_net(env)
        f = net.transfer([L["tx0"], L["rx1"]], nbytes=500.0)
        env.run(until=f.done)
        assert env.now == pytest.approx(5.0)

    def test_sequential_speedup_after_completion(self):
        env = Environment()
        net, L = make_net(env, nodes=3)
        a = net.transfer([L["tx0"], L["rx1"]], 100.0)  # rate 50 until a done
        b = net.transfer([L["tx0"], L["rx2"]], 300.0)
        env.run(until=a.done)
        assert env.now == pytest.approx(2.0)
        env.run(until=b.done)
        # b: 100 by t=2, then 200 at rate 100 -> t=4
        assert env.now == pytest.approx(4.0)

    def test_remove_flow_returns_remaining(self):
        env = Environment()
        net, L = make_net(env)
        f = net.transfer([L["tx0"], L["rx1"]], 1000.0)
        got = {}

        def waiter():
            try:
                yield f.done
            except SimulationError:
                got["cancelled"] = env.now

        def killer():
            yield env.timeout(3)
            got["left"] = net.remove(f)

        env.process(waiter())
        env.process(killer())
        env.run()
        assert got["left"] == pytest.approx(700.0)
        assert got["cancelled"] == pytest.approx(3.0)

    def test_persistent_flow(self):
        env = Environment()
        net, L = make_net(env, nodes=3)
        bg = net.transfer([L["tx0"], L["rx1"]], nbytes=None)  # persistent
        f = net.transfer([L["tx0"], L["rx2"]], 200.0)         # rate 50
        env.run(until=f.done)
        assert env.now == pytest.approx(4.0)
        assert bg in net.flows
        net.remove(bg)
        assert bg not in net.flows

    def test_busy_time_accounting(self):
        env = Environment()
        net, L = make_net(env)
        f = net.transfer([L["tx0"], L["rx1"]], 500.0, cap=50.0)
        env.run(until=f.done)
        # link busy integral normalized: 50/100 util for 10 s = 5 s
        assert net.busy_time(L["tx0"]) == pytest.approx(5.0)

    def test_consume_helper_withdraws_on_interrupt(self):
        from repro.sim import Interrupt
        env = Environment()
        net, L = make_net(env)

        def proc():
            try:
                yield from net.consume([L["tx0"], L["rx1"]], 1e9)
            except Interrupt:
                pass

        p = env.process(proc())

        def killer():
            yield env.timeout(1)
            p.interrupt()

        env.process(killer())
        env.run()
        assert len(net.flows) == 0

    def test_busy_time_keeps_past_load_across_capacity_change(self):
        """A re-cap normalizes only the load carried after it."""
        env = Environment()
        net = FlowNetwork(env)
        tx = net.add_link("tx", 10.0)
        rx = net.add_link("rx", 10.0)
        f = net.transfer([tx, rx], 10.0)
        env.run(until=f.done)
        assert env.now == 1.0
        env.run(until=2.0)
        assert net.busy_time(tx) == 1.0
        net.set_capacity(tx, 20.0)
        net.set_capacity(rx, 10.0)  # unchanged capacity: nothing folds
        env.run(until=5.0)
        assert net.busy_time(tx) == 1.0
        assert net.busy_time(rx) == 1.0
        g = net.transfer([tx], 20.0)  # 1 s at 20/s on tx
        env.run(until=g.done)
        assert net.busy_time(tx) == 2.0

    def test_busy_time_rejects_foreign_link(self):
        """Every call that takes a link refuses another network's Link
        and a raw slot int, and leaves the network as it was."""
        env = Environment()
        net1, L1 = make_net(env)
        net2, L2 = make_net(env)
        f = net1.transfer([L1["tx0"], L1["rx1"]], 500.0)
        env.run(until=f.done)
        assert net1.busy_time(L1["tx0"]) == pytest.approx(5.0)
        for bad in (L2["tx0"], L1["tx0"]._slot):
            with pytest.raises(SimulationError):
                net1.busy_time(bad)
            with pytest.raises(SimulationError):
                net1.set_capacity(bad, 10.0)
            with pytest.raises(SimulationError):
                net1.transfer([L1["tx0"], bad], 10.0)
        assert not net1.flows and not net2.flows
        assert L1["tx0"].capacity == L2["tx0"].capacity == 100.0

    def test_cap_and_capacity_are_read_only(self):
        env = Environment()
        net, L = make_net(env)
        f = net.transfer([L["tx0"], L["rx1"]], 1e6, cap=40.0)
        with pytest.raises(AttributeError):
            f.cap = 80.0
        with pytest.raises(AttributeError):
            L["tx0"].capacity = 10.0
        assert (f.cap, L["tx0"].capacity, f.rate) == (40.0, 100.0, 40.0)
        net.set_capacity(L["tx0"], 10.0)
        assert (L["tx0"].capacity, f.rate) == (10.0, 10.0)

    def test_duplicate_link_rejected(self):
        env = Environment()
        net = FlowNetwork(env)
        net.add_link("x", 1.0)
        with pytest.raises(SimulationError):
            net.add_link("x", 1.0)

    def test_foreign_link_rejected(self):
        env = Environment()
        net1 = FlowNetwork(env)
        net2 = FlowNetwork(env)
        lk = net2.add_link("a", 1.0)
        with pytest.raises(SimulationError):
            net1.transfer([lk], 10.0)

    @pytest.mark.parametrize("work", [-1.0, math.nan])
    def test_bad_work_rejected_without_side_effects(self, work):
        """Negative or NaN work raises before the network changes.

        Accepted, a negative transfer finished at once with
        ``remaining == -1.0`` and a NaN one never finished while holding
        its fair share.  The refused transfer at t = 0.3 must not settle
        either: an extra settle there rounds the flows' remaining
        differently.
        """
        def run(bad):
            env = Environment()
            net, L = make_net(env, cap=10.0)
            path = [L["tx0"], L["rx1"]]
            a = net.transfer(path, 100.0)
            b = net.transfer(path, 100.0, cap=7.0 / 3)
            env.run(until=0.3)
            if bad is not None:
                with pytest.raises(SimulationError):
                    net.transfer(path, bad)
            env.run(until=1.0)
            busy = net.busy_time(L["tx0"])
            return busy, a.remaining, b.remaining, len(net.flows)

        assert run(work) == run(None)

    def test_zero_byte_transfer_completes_immediately(self):
        env = Environment()
        net, L = make_net(env)
        f = net.transfer([L["tx0"], L["rx1"]], 0.0)
        assert f.done.triggered

    def test_work_conservation_many_flows(self):
        env = Environment()
        net, L = make_net(env, nodes=6, cap=37.0)
        rng_sizes = [100.0 * (1 + (i * 7) % 13) for i in range(30)]
        flows = []
        for i, size in enumerate(rng_sizes):
            src, dst = i % 6, (i * 3 + 1) % 6
            if src == dst:
                dst = (dst + 1) % 6
            flows.append(net.transfer([L[f"tx{src}"], L[f"rx{dst}"]], size))
        env.run(until=env.all_of([f.done for f in flows]))
        assert all(f.remaining == 0 for f in flows)
        # Total bytes through all tx links equals total submitted bytes.
        tx_busy = sum(net.busy_time(L[f"tx{i}"]) * 37.0 for i in range(6))
        assert tx_busy == pytest.approx(sum(rng_sizes), rel=1e-6)


class TestSettleAccountingExact:
    """Settle accounting equals a plain-Python creation-order oracle, ``==``.

    The oracle wraps ``_settle``: before each real settle it reads every
    attached flow's rate and remaining and every link's used rate, then
    applies the per-object arithmetic (``remaining -= rate*dt`` clamped at
    zero, class bytes added flow by flow in creation order and link by
    link along each path, busy integral ``+= used*dt``).  Bursts of
    equal-sized flows complete at one instant, and populations straddle
    ``_SCALAR_MAX``, so the one settle loop is pinned on large live
    populations as well as small ones.
    """

    LABELS = ("store:w", "store:r", "store:w", "tenant:shuffle", "",
              "plain", "mon:probe")

    @pytest.mark.parametrize("seed", range(5))
    def test_churn_matches_oracle(self, seed):
        rng = random.Random(seed)
        env = Environment()
        n_nodes = 6
        net, L = make_net(env, nodes=n_nodes, cap=97.0)
        links = list(L.values())
        created = []                 # every flow, creation order
        oracle_rem = {}              # flow -> expected remaining
        oracle_cb = {l: {} for l in links}
        oracle_busy = {l: 0.0 for l in links}
        last = [env.now]
        sizes = {"small": 0, "large": 0}
        mismatches = []
        real_settle = net._settle

        def settle():
            dt = env.now - last[0]
            if dt > 0:
                live = [f for f in created if f._attached]
                sizes["small" if len(live) <= _SCALAR_MAX else "large"] += 1
                expect = {}
                for f in live:  # creation order
                    m = f._rate * dt
                    rem = f.remaining
                    if not f.persistent:
                        rem = max(rem - m, 0.0)
                    expect[f] = rem
                    if f.class_prefix is not None:
                        for l in f.links:
                            cb = oracle_cb[l]
                            cb[f.class_prefix] = (
                                cb.get(f.class_prefix, 0.0) + m)
                for l in links:
                    oracle_busy[l] += l._used_rate * dt
                last[0] = env.now
                real_settle()
                for f, rem in expect.items():
                    oracle_rem[f] = rem
                    if f.remaining != rem:
                        mismatches.append((env.now, f.label, f.remaining, rem))
            else:
                real_settle()

        net._settle = settle

        def start(path, nbytes, label):
            # Some flows carry a rate cap, so flows sharing a link move
            # different byte counts and summation order shows.
            cap = rng.choice((math.inf, rng.uniform(0.5, 20.0)))
            f = net.transfer(path, nbytes, cap=cap, label=label)
            created.append(f)
            oracle_rem[f] = f.remaining

        def driver():
            for step in range(300):
                # Phases of 50 steps alternate small and large bursts,
                # each ending in an idle stretch that drains the
                # population back below _SCALAR_MAX.
                small = step // 50 % 2 == 0
                # Small phases crowd three nodes, so flows share links.
                nodes = range(3 if small else n_nodes)
                yield env.timeout(30.0 if step % 50 == 49 else
                                  rng.choice((0.0, rng.uniform(0.05, 2.0))))
                live = [f for f in created if f._attached]
                roll = rng.random()
                if roll < 0.45:
                    # A burst of equal flows on one path: they finish
                    # together, freeing many slots at one instant.
                    k = rng.randint(1, 6) if small else rng.randint(8, 48)
                    src, dst = rng.sample(nodes, 2)
                    path = [L[f"tx{src}"], L[f"rx{dst}"]]
                    size = rng.uniform(1.0, 40.0)
                    for _i in range(k):
                        start(path, size, rng.choice(self.LABELS))
                elif roll < 0.55:
                    if sum(f.persistent for f in live) < 3:
                        src, dst = rng.sample(nodes, 2)
                        start([L[f"tx{src}"], L[f"rx{dst}"]], None,
                              rng.choice(self.LABELS))
                elif roll < 0.75:
                    src, mid, dst = rng.sample(nodes, 3)
                    start([L[f"tx{src}"], L[f"rx{mid}"], L[f"rx{dst}"]],
                          rng.uniform(1.0, 60.0), rng.choice(self.LABELS))
                elif live:
                    net.remove(rng.choice(live))

        proc = env.process(driver())
        env.run(until=1000.0)
        net.settle()

        assert proc.triggered and proc.ok
        assert not mismatches
        assert sizes["small"] and sizes["large"]
        for f in created:
            if not f._attached and not f.persistent and f.done.ok:
                assert f.remaining == 0.0
            else:
                assert f.remaining == oracle_rem[f]
        for l in links:
            want = {p: v for p, v in oracle_cb[l].items() if v != 0.0}
            assert l.class_bytes == want
            assert net.busy_time(l) == oracle_busy[l] / l.capacity


# Link capacities include values at and just above _EPS, which saturate
# in the first round; flow caps repeat, so equal caps fix together.
_fill_link_cap = st.sampled_from([5e-10, 1e-9, 3e-9, 1.0, 7.3, 97.0, 1e3])
_fill_flow = st.tuples(
    st.booleans(),                                # 3-hop path
    st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
    st.one_of(st.none(), st.just(100.0)),         # persistent or finite
    st.one_of(st.just(math.inf),
              st.sampled_from([1e-9, 0.5, 2.5, 40.0]),
              st.floats(min_value=1e-3, max_value=1e3)),
)


def _both_branches(fn):
    """``fn()`` with ``_SCALAR_MAX`` forcing numpy, then scalar."""
    out = []
    for limit in (0, 10**9):
        with mock.patch.object(flownet, "_SCALAR_MAX", limit), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out.append(fn())
    return out


class TestFillBranchesExact:
    """The scalar and numpy branches of ``_fill_vec`` compute the same
    floats, alone and inside a flush, compared with ``==``."""

    @settings(max_examples=200, deadline=None)
    @given(n_nodes=st.integers(2, 6),
           link_caps=st.lists(_fill_link_cap, min_size=12, max_size=12),
           flows=st.lists(_fill_flow, max_size=64))
    def test_fill_branches_agree(self, n_nodes, link_caps, flows):
        env = Environment()
        net = FlowNetwork(env)
        tx = [net.add_link(f"tx{i}", link_caps[2 * i])
              for i in range(n_nodes)]
        rx = [net.add_link(f"rx{i}", link_caps[2 * i + 1])
              for i in range(n_nodes)]
        for hop3, src, mid, dst, work, cap in flows:
            path = [tx[src % n_nodes], rx[dst % n_nodes]]
            if hop3:
                path.insert(1, rx[mid % n_nodes])
            net.transfer(path, work, cap=cap)
        # Never flushed: the fill below is the only solve.
        fs = list(net._live)
        ls = list(range(net._nl))

        def fill():
            for f in fs:
                f._rate = -1.0
            net._l_used[:] = [-1.0] * net._nl
            stats = FlowNetStats()
            net._fill_vec(fs, ls, stats)
            return ([f._rate for f in fs], [net._l_used[l] for l in ls],
                    stats.rounds, stats.stalemates)

        vec, scalar = _both_branches(fill)
        assert scalar == vec
        # Every entry was overwritten, zero-flow components included.
        assert min(scalar[0] + scalar[1]) >= 0.0

    def test_flush_sub_resolution_drain_agrees(self):
        def flush():
            env = Environment()
            env.run(until=1e9)
            net, L = make_net(env, nodes=4)
            flows = [
                net.transfer([L["tx0"], L["rx1"]], 1e-6),
                net.transfer([L["tx0"], L["rx1"]], 1e-6, cap=60.0),
                net.transfer([L["tx0"], L["rx2"]], 5e3),
                net.transfer([L["tx1"], L["rx2"]], None),
                net.transfer([L["tx2"], L["rx3"], L["rx0"]], 2e3, cap=7.5),
                net.transfer([L["tx3"], L["rx0"]], 1e-6, cap=0.5),
                net.transfer([L["tx3"], L["rx1"]], 40.0),
            ]
            before = flownet.flownet_stats.snapshot()
            net._flush()
            after = flownet.flownet_stats.snapshot()
            wake = [t for t, _c, cb in env._queue if cb is net._wakeup_cb]
            return ([(f._attached, f.remaining, f._rate, f.finished_at,
                      f.done.triggered) for f in flows],
                    list(net._l_used), wake,
                    {k: after[k] - before[k] for k in after})

        vec, scalar = _both_branches(flush)
        assert scalar == vec
        finished = [f for f in scalar[0] if f[3] is not None]
        # The two 1e-6-byte flows sharing tx0 need about 3e-8 s, below
        # the clock's resolution at 1e9 s (about 1.2e-7 s), so they drain
        # and finish at this instant; the one capped at 0.5 needs 2e-6 s.
        assert len(finished) == 2 and all(f[3] == 1e9 for f in finished)
        assert scalar[2] and scalar[2][0] > 1e9

    @settings(max_examples=200, deadline=None)
    @given(n_nodes=st.integers(2, 6),
           link_caps=st.lists(_fill_link_cap, min_size=12, max_size=12),
           flows=st.lists(_fill_flow, max_size=8),
           lone=_fill_flow,
           n_removed=st.integers(0, 3))
    def test_shortcuts_match_general_fill(self, n_nodes, link_caps, flows,
                                          lone, n_removed):
        """The solve's one-flow closed form and flowless-link shortcut
        give the general scalar loop's floats and counters."""

        def build():
            env = Environment()
            net = FlowNetwork(env)
            tx = [net.add_link(f"tx{i}", link_caps[2 * i])
                  for i in range(n_nodes)]
            rx = [net.add_link(f"rx{i}", link_caps[2 * i + 1])
                  for i in range(n_nodes)]
            # A lone flow on its own links, and a lone flow crossing one
            # link twice: that link counts it twice per round, so only
            # the general loop fills it right (rate 10/2, not 10).
            a, b = (net.add_link(n, c) for n, c in
                    (("a", link_caps[0]), ("b", link_caps[1])))
            x, y = net.add_link("x", 10.0), net.add_link("y", 97.0)
            made = []
            for hop3, src, mid, dst, work, cap in [lone] + flows:
                path = [tx[src % n_nodes], rx[dst % n_nodes]]
                if hop3:
                    path.insert(1, rx[mid % n_nodes])
                made.append(net.transfer(path, work, cap=cap))
            made.append(net.transfer([a, b], lone[4], cap=lone[5]))
            loop = net.transfer([x, y, x], 100.0)
            # Removed flows leave their links dirty, some without flows.
            for f in made[:n_removed]:
                net.remove(f)
            # A link no flow crosses, so the general fill below can pad a
            # component with it and never take a shortcut.
            spare = net.add_link("spare", 1.0)._slot
            net._dirty.update(range(spare))
            net._l_used[:] = [-1.0] * net._nl
            return net, spare, loop

        def solve(net, fill):
            stats = FlowNetStats()
            with mock.patch.object(flownet, "flownet_stats", stats), \
                    mock.patch.object(flownet, "_SCALAR_MAX", 10**9), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fill(stats)
            return stats

        fast, spare, loop = build()
        comps = []
        real_fill = fast._fill_vec

        def record(fs, ls, stats):
            comps.append(([f._seq for f in fs], list(ls)))
            real_fill(fs, ls, stats)

        fast._fill_vec = record
        fast_stats = solve(fast, lambda stats: fast._solve())

        general, _spare, _loop = build()
        by_seq = {f._seq: f for f in general._live}

        def fill_general(stats):
            covered = set()
            for seqs, ls in comps:
                general._fill_vec([by_seq[q] for q in seqs], ls + [spare],
                                  stats)
                covered.update(ls)
            for l in range(spare):
                if l not in covered:
                    general._fill_vec([], [l], stats)
            stats.links_touched -= len(comps)  # the padding

        general_stats = solve(general, fill_general)
        assert ([f._rate for f in fast._live]
                == [f._rate for f in general._live])
        assert fast._l_used[:spare] == general._l_used[:spare]
        assert min(fast._l_used[:spare]) >= 0.0
        assert fast_stats.snapshot() == general_stats.snapshot()
        assert loop._rate == 5.0


_LABELS = st.sampled_from(["store:put", "store:get", "tenant:shuffle", "",
                           "plain"])
_OPS = st.lists(st.one_of(
    st.tuples(st.just("transfer"), st.integers(0, 3), st.integers(0, 3),
              st.sampled_from(["verbs", "tcp"]),
              st.one_of(st.none(), st.floats(1e6, 4e9)), _LABELS,
              st.sampled_from([math.inf, 1e8, 2.5e9])),
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(st.just("capacity"), st.integers(0, 19),
              st.sampled_from([0.25, 0.5, 1.0, 2.0])),
    st.tuples(st.just("degrade"), st.integers(0, 3),
              st.sampled_from([1e-9, 0.1, 0.5])),
    st.just(("heal",)),
    st.tuples(st.just("wait"), st.sampled_from([0.0, 1e-3, 0.05, 0.4])),
), max_size=40)


class TestLoadedLinkSettle:
    """Settle advances busy integrals on loaded links only; every link's
    ``busy_time()`` and ``class_bytes`` equal, with ``==``, a shadow that
    advances every link on every settle."""

    @settings(max_examples=100, deadline=None)
    @given(ops=_OPS)
    def test_matches_all_link_shadow(self, ops):
        from repro.cluster import DAS5, Fabric, Node

        env = Environment()
        fabric = Fabric(env)
        nodes = [Node(env, f"n{i}", DAS5) for i in range(4)]
        fabric.attach_all(nodes)
        net = fabric.net
        nl = net._nl
        busy = [0.0] * nl
        fold = [0.0] * nl
        cb = [{} for _ in range(nl)]
        last = [env.now]
        real_settle = net._settle
        real_set_capacity = net.set_capacity

        def settle():
            dt = env.now - last[0]
            if dt > 0:
                for f in net._live:  # creation order
                    m = f._rate * dt
                    if f.class_prefix is not None:
                        for s in f._lslots:
                            cb[s][f.class_prefix] = (
                                cb[s].get(f.class_prefix, 0.0) + m)
                for s in range(nl):
                    busy[s] += net._l_used[s] * dt
                last[0] = env.now
            real_settle()

        def set_capacity(link, capacity):
            s = net._resolve_slot(link)
            net._settle()
            old = net._l_cap[s]
            if float(capacity) != old:
                fold[s] += busy[s] / old
                busy[s] = 0.0
            real_set_capacity(link, capacity)

        net._settle = settle
        net.set_capacity = set_capacity
        created = []
        heals = []

        def driver():
            for op in ops:
                kind = op[0]
                if kind == "transfer":
                    _k, src, dst, transport, size, label, cap = op
                    created.append(fabric.transfer(
                        nodes[src], nodes[dst], size, cap=cap, label=label,
                        transport=transport))
                elif kind == "remove" and created:
                    net.remove(created[op[1] % len(created)])
                elif kind == "capacity":
                    link = net.links[op[1]]
                    set_capacity(link, link.capacity * op[2])
                elif kind == "degrade":
                    heals.append(fabric.degrade_node(f"n{op[1]}", op[2]))
                elif kind == "heal" and heals:
                    heals.pop()()
                elif kind == "wait":
                    yield env.timeout(op[1])
            yield env.timeout(1.0)
            for f in created:
                net.remove(f)
            yield env.timeout(0.5)

        proc = env.process(driver())
        env.run()
        assert proc.triggered and proc.ok
        for s, link in enumerate(net.links):
            assert net.busy_time(link) == fold[s] + busy[s] / net._l_cap[s]
            want = {p: v for p, v in cb[s].items() if v != 0.0}
            assert link.class_bytes == want
            assert link.class_bytes_of("store") == want.get("store", 0.0)
