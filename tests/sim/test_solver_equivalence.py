"""Incremental component-aware solver vs. the full progressive-fill oracle.

Three layers of evidence that the new solve path changes *nothing* about
the simulated physics:

- hypothesis-randomized flow/link graphs (caps, persistent flows, capacity
  changes, batched adds/removes) where the ``"incremental"`` network's
  rates must match a standalone :func:`progressive_fill` run over clones
  within 1e-9;
- trajectory agreement of ``"incremental"`` against ``"reference"`` on
  event-driven scenarios, including fault-injector partitions;
- a golden Fig. 2 run (committed fixture produced by the pre-PR solver)
  whose runtime and victim-NIC figures must stay bit-identical.
"""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, FlowNetwork, SimulationError, flownet_stats
from repro.sim.flownet import Link, NetFlow, progressive_fill

CAP = 100.0


def mirror_fill(net):
    """Run the oracle on detached clones of *net*'s current state."""
    links = {l.name: Link(l.name, l.capacity) for l in net.links}
    env = Environment(net.env.now)
    clones = []
    for f in net.flows:
        clone = NetFlow(env, tuple(links[l.name] for l in f.links),
                        f.work, f.cap, f.label)
        clone.remaining = f.remaining
        clones.append(clone)
    progressive_fill(clones, links.values())
    return {id(f): c.rate for f, c in zip(net.flows, clones)}, \
        {l.name: links[l.name].used_rate for l in net.links}


def assert_matches_oracle(net):
    flow_rates, link_rates = mirror_fill(net)
    for f in net.flows:
        assert f.rate == pytest.approx(flow_rates[id(f)], abs=1e-9), f.label
    for l in net.links:
        assert l.used_rate == pytest.approx(link_rates[l.name], abs=1e-9), \
            l.name


# One mutation of the randomized schedule: (op, src, dst, work, cap).
_ops = st.tuples(
    st.sampled_from(["add", "add_persistent", "remove", "capacity", "batch"]),
    st.integers(0, 5), st.integers(0, 5),
    st.floats(1.0, 1e6), st.floats(0.1, 200.0))


@pytest.mark.parametrize("solver", ["incremental"])
@settings(max_examples=60, deadline=None)
@given(n_nodes=st.integers(2, 6), schedule=st.lists(_ops, max_size=24))
def test_randomized_schedules_match_oracle(solver, n_nodes, schedule):
    env = Environment()
    net = FlowNetwork(env, solver=solver)
    tx = [net.add_link(f"tx{i}", CAP) for i in range(n_nodes)]
    rx = [net.add_link(f"rx{i}", CAP) for i in range(n_nodes)]
    alive = []
    for op, a, b, work, cap in schedule:
        a %= n_nodes
        b %= n_nodes
        if op == "add":
            alive.append(net.transfer([tx[a], rx[b]], work, cap=cap,
                                      label=f"t:{a}->{b}"))
        elif op == "add_persistent":
            alive.append(net.transfer([tx[a], rx[b]], None, cap=cap,
                                      label=f"p:{a}->{b}"))
        elif op == "remove" and alive:
            net.remove(alive.pop(a % len(alive)))
        elif op == "capacity":
            net.set_capacity(tx[a], cap)
        elif op == "batch":
            with net.batch():
                f1 = net.transfer([tx[a], rx[b]], work, label="b:1")
                f2 = net.transfer([tx[b], rx[a]], work, label="b:2")
                net.remove(f1)
            alive.append(f2)
        assert_matches_oracle(net)
    # Let the event-driven part (wakeups, completions) run too.
    env.run(until=env.now + 1.0)
    assert_matches_oracle(net)


@settings(max_examples=25, deadline=None)
@given(n_nodes=st.integers(2, 5), schedule=st.lists(_ops, max_size=16),
       horizon=st.floats(0.1, 50.0))
def test_modes_trace_equivalent(n_nodes, schedule, horizon):
    """The incremental solver produces the reference's trajectory.

    Same completions in the same order, rates/times within 1e-9 — the
    reference mode's one global fill can split a round's delta across
    components differently than per-component fills, so arbitrary graphs
    agree to rounding, not bitwise.  (On the tracked single-component
    scenarios — the Fig. 2 golden below, the perf suite — agreement *is*
    bitwise and asserted exactly there.)
    """
    traces = []
    for solver in ("reference", "incremental"):
        env = Environment()
        net = FlowNetwork(env, solver=solver)
        tx = [net.add_link(f"tx{i}", CAP) for i in range(n_nodes)]
        rx = [net.add_link(f"rx{i}", CAP) for i in range(n_nodes)]
        alive = []
        done_at = []

        def watch(flow):
            flow.done._add_callback(
                lambda ev: done_at.append((env.now, flow.label)))

        for i, (op, a, b, work, cap) in enumerate(schedule):
            a %= n_nodes
            b %= n_nodes
            if op in ("add", "add_persistent"):
                f = net.transfer([tx[a], rx[b]],
                                 None if op == "add_persistent" else work,
                                 cap=cap, label=f"f:{i}")
                watch(f)
                alive.append(f)
            elif op == "remove" and alive:
                f = alive.pop(a % len(alive))
                try:
                    net.remove(f)
                except SimulationError:
                    pass
            elif op == "capacity":
                net.set_capacity(tx[a], cap)
            elif op == "batch":
                with net.batch():
                    f1 = net.transfer([tx[a], rx[b]], work, label=f"f:{i}.1")
                    f2 = net.transfer([tx[b], rx[a]], work, label=f"f:{i}.2")
                watch(f1)
                watch(f2)
                alive += [f1, f2]
        env.run(until=horizon)
        traces.append((
            sorted(done_at),
            sorted((f.label, f.rate, f.remaining) for f in net.flows),
            [(l.name, l.used_rate, net.busy_time(l)) for l in net.links],
        ))
    ref = traces[0]
    for got in traces[1:]:
        assert [lbl for _t, lbl in got[0]] == [lbl for _t, lbl in ref[0]]
        for (t_got, _), (t_ref, _) in zip(got[0], ref[0]):
            assert t_got == pytest.approx(t_ref, abs=1e-9)
        assert ([lbl for lbl, _r, _w in got[1]]
                == [lbl for lbl, _r, _w in ref[1]])
        for (_, r_got, w_got), (_, r_ref, w_ref) in zip(got[1], ref[1]):
            assert r_got == pytest.approx(r_ref, abs=1e-9)
            assert w_got == pytest.approx(w_ref, abs=1e-6)
        for (n_got, u_got, b_got), (n_ref, u_ref, b_ref) in zip(got[2],
                                                                ref[2]):
            assert n_got == n_ref
            assert u_got == pytest.approx(u_ref, abs=1e-9)
            assert b_got == pytest.approx(b_ref, abs=1e-6)


def test_set_capacity_partition_factor():
    """A Fabric-style partition (capacity × 1e-9) stays oracle-exact."""
    env = Environment()
    net = FlowNetwork(env)
    tx = [net.add_link(f"tx{i}", CAP) for i in range(3)]
    rx = [net.add_link(f"rx{i}", CAP) for i in range(3)]
    for i in range(3):
        net.transfer([tx[i], rx[(i + 1) % 3]], 1e9, label=f"f{i}")
    net.set_capacity(tx[0], CAP * 1e-9)
    net.set_capacity(rx[1], CAP * 1e-9)
    assert_matches_oracle(net)
    assert net.flows[0].rate == pytest.approx(CAP * 1e-9, rel=1e-6)
    net.set_capacity(tx[0], CAP)
    net.set_capacity(rx[1], CAP)
    assert_matches_oracle(net)


def test_fault_injector_partition_matches_oracle():
    """degrade/partition through the Fabric batch path stays oracle-exact."""
    from repro.cluster import build_das5

    cluster = build_das5(n_nodes=4)
    env, fabric = cluster.env, cluster.fabric
    nodes = cluster.nodes
    for i in range(1, 4):
        fabric.transfer(nodes[0], nodes[i], 1e12, label=f"dd:{i}")
        fabric.transfer(nodes[i], nodes[0], 1e12, label=f"up:{i}",
                        transport="tcp")
    restore = fabric.partition_node(nodes[1].name)
    assert_matches_oracle(fabric.net)
    env.run(until=1.0)
    restore()
    assert_matches_oracle(fabric.net)
    env.run(until=2.0)
    assert_matches_oracle(fabric.net)


def test_lone_transfer_refills_only_its_component():
    """One transfer on a 6-node network (12 links) re-fills its own
    two-link component, not the whole graph."""
    env = Environment()
    net = FlowNetwork(env)
    tx = [net.add_link(f"tx{i}", CAP) for i in range(6)]
    rx = [net.add_link(f"rx{i}", CAP) for i in range(6)]
    flownet_stats.reset()
    flow = net.transfer([tx[0], rx[1]], 1e6, label="lone")
    # Reads flush the pending coalesced solve.
    assert flow.rate == pytest.approx(CAP)
    assert flownet_stats.solves == 1
    assert flownet_stats.full_solves == 0
    assert flownet_stats.flows_touched == 1
    assert flownet_stats.links_touched == 2


class TestBatching:
    def test_batch_coalesces_solves(self):
        env = Environment()
        net = FlowNetwork(env)
        tx = [net.add_link(f"tx{i}", CAP) for i in range(4)]
        rx = [net.add_link(f"rx{i}", CAP) for i in range(4)]
        flownet_stats.reset()
        with net.batch():
            for i in range(4):
                net.transfer([tx[i], rx[(i + 1) % 4]], 1e6, label=f"f{i}")
        assert flownet_stats.solves == 1
        assert flownet_stats.batch_coalesced == 3
        assert_matches_oracle(net)

    def test_same_instant_transfers_coalesce_without_batch(self):
        env = Environment()
        net = FlowNetwork(env)
        tx = [net.add_link(f"tx{i}", CAP) for i in range(4)]
        rx = [net.add_link(f"rx{i}", CAP) for i in range(4)]

        def one(i):
            yield env.timeout(1.0)
            yield net.transfer([tx[i], rx[(i + 1) % 4]], 1e6,
                               label=f"f{i}").done

        for i in range(4):
            env.process(one(i))
        flownet_stats.reset()
        env.run(until=1.5)
        # All four transfers landed at t=1.0; the guard solved them once.
        assert flownet_stats.solves == 1
        assert flownet_stats.batch_coalesced == 3

    def test_reads_flush_inside_batch(self):
        env = Environment()
        net = FlowNetwork(env)
        tx = net.add_link("tx", CAP)
        rx = net.add_link("rx", CAP)
        with net.batch():
            f = net.transfer([tx, rx], 1e6)
            assert f.rate == pytest.approx(CAP)
            assert tx.used_rate == pytest.approx(CAP)

    def test_batch_is_reentrant(self):
        env = Environment()
        net = FlowNetwork(env)
        tx = net.add_link("tx", CAP)
        rx = net.add_link("rx", CAP)
        flownet_stats.reset()
        with net.batch():
            with net.batch():
                net.transfer([tx, rx], 1e6)
            net.transfer([tx, rx], 1e6)
        assert flownet_stats.solves == 1


class TestConsumeInterrupt:
    def _run(self, crash_at):
        env = Environment()
        net = FlowNetwork(env)
        tx = net.add_link("tx", CAP)
        rx = net.add_link("rx", CAP)

        def mover():
            yield from net.consume([tx, rx], 1e6, label="store:xfer")

        proc = env.process(mover())

        def killer():
            yield env.timeout(crash_at)
            proc.interrupt("evicted")

        env.process(killer())
        env.run(until=crash_at + 1.0)
        return net, tx, rx

    def test_interrupt_settles_byte_integrals(self):
        """Regression: the interrupt path used to pop the flow without
        settling, silently losing the bytes accrued since the last
        update — busy_time and class_bytes must reflect the 2 s of flow."""
        net, tx, rx = self._run(crash_at=2.0)
        assert net.busy_time(tx) == pytest.approx(2.0)
        assert net.busy_time(rx) == pytest.approx(2.0)
        assert tx.class_bytes["store"] == pytest.approx(2.0 * CAP)
        assert rx.class_bytes["store"] == pytest.approx(2.0 * CAP)
        assert not net.flows

    def test_interrupt_frees_capacity(self):
        net, tx, rx = self._run(crash_at=2.0)
        assert tx.used_rate == 0.0
        assert rx.used_rate == 0.0


class TestStalemate:
    def test_crafted_capacities_warn_once(self):
        """A NaN cap on an infinite link defeats every fixing rule: the
        round fixes nothing and the solver must warn (once) and count."""
        env = Environment()
        link = Link("weird", math.inf)
        flow = NetFlow(env, (link,), 1e6, cap=float("nan"), label="")
        flownet_stats.reset()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            progressive_fill([flow], [link])
            progressive_fill([flow], [link])
        assert flownet_stats.stalemates == 2
        stale = [w for w in caught
                 if "numerical stalemate" in str(w.message)]
        assert len(stale) == 1  # warned once per process, counted per hit

    def test_normal_inputs_do_not_stalemate(self):
        env = Environment()
        net = FlowNetwork(env)
        tx = net.add_link("tx", CAP)
        rx = net.add_link("rx", 3.0)
        flownet_stats.reset()
        for i in range(7):
            net.transfer([tx, rx], 1e6, cap=1.0 / (i + 1), label=f"f{i}")
        net.settle()
        assert_matches_oracle(net)
        assert flownet_stats.stalemates == 0
