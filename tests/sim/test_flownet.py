"""Unit tests for the max-min fair flow network."""

import math
import random

import pytest

from repro.sim import Environment, FlowNetwork, SimulationError
from repro.sim.flownet import progressive_fill
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
    equal-sized flows complete at one instant, so freed slots are reused
    by the next burst; populations straddle ``_SCALAR_MAX``.
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
                live = [f for f in created if f._slot >= 0]
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
                live = [f for f in created if f._slot >= 0]
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
            if f._slot < 0 and not f.persistent and f.done.ok:
                assert f.remaining == 0.0
            else:
                assert f.remaining == oracle_rem[f]
        for l in links:
            want = {p: v for p, v in oracle_cb[l].items() if v != 0.0}
            assert l.class_bytes == want
            assert net.busy_time(l) == oracle_busy[l] / l.capacity
