"""The one failure path of a store request: whatever fails — the server
being down, AUTH, a miss, a full store, a malformed request — reaches the
caller as a :class:`StoreError` carrying the typed code, after a full
round trip."""

import pytest

from repro.cluster import build_das5
from repro.faults import fault_stats
from repro.sim import Environment
from repro.store import (NO_RETRY, AuthPolicy, Op, Request, StoreClient,
                         StoreError, StoreErrorCode, StoreServer)

CAPACITY = 4096.0
KEY_OVERHEAD = 128.0   # StoreCostModel default, charged once per key


@pytest.fixture(autouse=True)
def _reset_stats():
    fault_stats.reset()
    yield
    fault_stats.reset()


@pytest.fixture
def rig():
    env = Environment()
    cluster = build_das5(env, n_nodes=2)
    own, victim = cluster.nodes
    server = StoreServer(env, victim, cluster.fabric, capacity=CAPACITY,
                         name="srv")
    client = StoreClient(env, cluster.fabric, own, retry=NO_RETRY)
    return env, cluster, server, client


def drive(env, gen):
    proc = env.process(gen)
    return env.run(until=proc)


def _crashed(server, client):
    server.crash()
    yield from client.get(server, "k")


def _wrong_password(server, client):
    server.auth = AuthPolicy("s3cret")
    yield from client.get(server, "k")


def _get_miss(server, client):
    yield from client.get(server, "nope")


def _delete_miss(server, client):
    yield from client.delete(server, "nope")


def _put_over_capacity(server, client):
    yield from client.put(server, "big", nbytes=2 * CAPACITY)


def _sadd_over_capacity(server, client):
    # Leave 10 B: too little for a new set's per-key overhead.
    yield from client.put(server, "fill",
                          nbytes=CAPACITY - KEY_OVERHEAD - 10.0)
    yield from client.sadd(server, "dir", "entry")


def _put_size_mismatch(server, client):
    yield from client.put(server, "k", nbytes=5, payload=b"abc")


def _sadd_on_non_set(server, client):
    yield from client.put(server, "k", nbytes=10)
    yield from client.sadd(server, "k", "member")


def _unknown_op(server, client):
    req = Request(Op.GET, key="k")
    req.op = "bogus"
    yield from client.request(server, req)


@pytest.mark.parametrize("case, code, details", [
    pytest.param(_crashed, StoreErrorCode.UNAVAILABLE, {}, id="unavailable"),
    pytest.param(_wrong_password, StoreErrorCode.AUTH, {}, id="auth"),
    pytest.param(_get_miss, StoreErrorCode.MISSING, {}, id="get-miss"),
    pytest.param(_delete_miss, StoreErrorCode.MISSING, {}, id="delete-miss"),
    pytest.param(_put_over_capacity, StoreErrorCode.FULL,
                 {"store": "srv", "requested_bytes": 2 * CAPACITY,
                  "free_bytes": CAPACITY}, id="put-full"),
    pytest.param(_sadd_over_capacity, StoreErrorCode.FULL,
                 {"store": "srv", "requested_bytes": KEY_OVERHEAD,
                  "free_bytes": 10.0}, id="sadd-full"),
    pytest.param(_put_size_mismatch, StoreErrorCode.BAD_REQUEST, {},
                 id="put-size-mismatch"),
    pytest.param(_sadd_on_non_set, StoreErrorCode.BAD_REQUEST, {},
                 id="sadd-non-set"),
    pytest.param(_unknown_op, StoreErrorCode.BAD_REQUEST, {},
                 id="unknown-op"),
])
def test_failure_reaches_caller_as_store_error(rig, case, code, details):
    env, _cluster, server, client = rig
    with pytest.raises(StoreError) as err:
        drive(env, case(server, client))
    assert type(err.value) is StoreError
    assert err.value.code is code
    assert err.value.details == details
    assert err.value.retryable is (code is StoreErrorCode.UNAVAILABLE)


def test_get_miss_pays_the_return_leg(rig):
    # The miss is answered without service costs, but the reply still
    # crosses the fabric: exactly one request leg plus one return leg.
    env, cluster, server, client = rig
    leg = cluster.fabric.latency(client.node, server.node)
    assert leg > 0
    with pytest.raises(StoreError):
        drive(env, client.get(server, "nope"))
    assert env.now == 2 * leg


def test_miss_under_deadline_raises_its_own_code(rig):
    # The round trip runs in its own process under a deadline; its
    # failure must cross back as MISSING, not be taken for a timeout.
    env, cluster, server, _client = rig
    client = StoreClient(env, cluster.fabric, cluster.nodes[0],
                         deadline=1.0, retry=NO_RETRY)
    with pytest.raises(StoreError) as err:
        drive(env, client.get(server, "nope"))
    assert err.value.code is StoreErrorCode.MISSING
    assert fault_stats.timeouts == 0
    assert env.now == 2 * cluster.fabric.latency(client.node, server.node)
