"""Edge-case tests for the store server: interrupts, sets, batching."""

import pytest

from repro.cluster import build_das5
from repro.sim import Environment, Interrupt
from repro.store import (Op, Request, StoreClient, StoreError, StoreErrorCode,
                         StoreServer)
from repro.units import GB, MB


@pytest.fixture
def rig():
    env = Environment()
    cluster = build_das5(env, n_nodes=2)
    own, victim = cluster.nodes
    server = StoreServer(env, victim, cluster.fabric, capacity=10 * GB)
    client = StoreClient(env, cluster.fabric, own)
    return env, cluster, own, victim, server, client


def drive(env, gen):
    proc = env.process(gen)
    return env.run(until=proc)


class TestInterruptCleanup:
    def test_interrupted_put_withdraws_all_flows(self, rig):
        env, cluster, own, victim, server, client = rig

        def doomed():
            try:
                yield from client.put(server, "big", nbytes=3 * GB)
            except Interrupt:
                pass

        p = env.process(doomed())

        def killer():
            yield env.timeout(0.1)
            p.interrupt()

        env.process(killer())
        env.run()
        # No leaked flows anywhere.
        assert len(cluster.fabric.net.flows) == 0
        assert len(victim.cpu.flows) == 0
        assert len(victim.membw.flows) == 0
        assert len(server.loop.flows) == 0

    def test_server_usable_after_interrupt(self, rig):
        env, cluster, own, victim, server, client = rig

        def doomed():
            try:
                yield from client.put(server, "big", nbytes=3 * GB)
            except Interrupt:
                pass

        p = env.process(doomed())
        env.schedule_callback(0.1, lambda: p.interrupt())
        env.run()
        drive(env, client.put(server, "ok", nbytes=1 * MB))
        assert ("ok" in server.kv) is True


class TestSetOperations:
    def test_sadd_smembers_srem_roundtrip(self, rig):
        env, _c, _o, _v, server, client = rig

        def flow():
            assert (yield from client.sadd(server, "dir", "a")) is True
            assert (yield from client.sadd(server, "dir", "a")) is False
            yield from client.sadd(server, "dir", "b")
            members = yield from client.smembers(server, "dir")
            assert members == frozenset({"a", "b"})
            assert (yield from client.srem(server, "dir", "a")) is True
            assert (yield from client.srem(server, "dir", "zz")) is False
            return (yield from client.smembers(server, "dir"))

        assert drive(env, flow()) == frozenset({"b"})

    def test_smembers_absent_key_empty(self, rig):
        env, _c, _o, _v, server, client = rig
        assert drive(env, client.smembers(server, "nope")) == frozenset()

    def test_type_confusion_rejected(self, rig):
        env, _c, _o, _v, server, client = rig

        def flow():
            yield from client.put(server, "k", nbytes=10)
            yield from client.sadd(server, "k", "member")

        with pytest.raises(StoreError) as err:
            drive(env, flow())
        assert err.value.code == "bad-request"

    def test_set_memory_accounted(self, rig):
        env, _c, _o, victim, server, client = rig

        def flow():
            yield from client.sadd(server, "dir", "some-entry")

        free_before = victim.memory_free
        drive(env, flow())
        assert victim.memory_free < free_before


class TestBatching:
    def test_batch_counts_in_request_rate(self, rig):
        env, _c, _o, _v, server, client = rig
        drive(env, client.put(server, "k", nbytes=1 * MB, batch=500))
        assert server.requests_served == 500
        assert server.request_rate_now() > 100

    def test_batch_increases_cpu_cost(self, rig):
        env, _c, _o, _v, server, client = rig
        drive(env, client.put(server, "a", nbytes=0, batch=1))
        t1 = env.now
        drive(env, client.put(server, "b", nbytes=0, batch=100_000))
        t2 = env.now - t1
        # 100k requests x 30 us = 3 core-seconds on a single core.
        assert t2 > 2.5


class TestMisc:
    def test_unknown_op_rejected(self, rig):
        env, _c, own, _v, server, client = rig

        class FakeOp:
            pass

        def flow():
            req = Request(Op.PUT, key="x", nbytes=1)
            object.__setattr__(req, "op", FakeOp())
            return (yield from client.request(server, req))

        resp = drive(env, flow())
        assert not resp.ok
        assert resp.code is StoreErrorCode.BAD_REQUEST

    def test_info_via_client(self, rig):
        env, _c, _o, _v, server, client = rig

        def flow():
            yield from client.put(server, "k", nbytes=5)
            return (yield from client.info(server))

        info = drive(env, flow())
        assert info["keys"] == 1

    def test_delete_missing(self, rig):
        env, _c, _o, _v, server, client = rig
        with pytest.raises(StoreError) as err:
            drive(env, client.delete(server, "ghost"))
        assert err.value.code == "missing"
