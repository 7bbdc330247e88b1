"""Tests for the typed error taxonomy and the resilient client path:
per-client deadlines, bounded retries with backoff, and sequential
chain reads."""

import pytest

from repro.cluster import build_das5
from repro.faults import fault_stats
from repro.sim import Environment
from repro.store import (NO_RETRY, Response, RetryPolicy, StoreClient,
                         StoreError, StoreErrorCode, StoreServer)
from repro.units import GB, MB


@pytest.fixture(autouse=True)
def _reset_stats():
    fault_stats.reset()
    yield
    fault_stats.reset()


@pytest.fixture
def rig():
    env = Environment()
    cluster = build_das5(env, n_nodes=4)
    own = cluster.nodes[0]
    backends = cluster.nodes[1:]
    servers = [StoreServer(env, n, cluster.fabric, capacity=10 * GB,
                           name=f"srv@{n.name}")
               for n in backends]
    client = StoreClient(env, cluster.fabric, own)
    return env, cluster, own, servers, client


def drive(env, gen):
    proc = env.process(gen)
    return env.run(until=proc)


class TestErrorTaxonomy:
    def test_codes_compare_as_strings(self):
        assert StoreErrorCode.MISSING == "missing"
        assert StoreError("missing").code is StoreErrorCode.MISSING

    def test_retryable_partition(self):
        assert StoreErrorCode.TIMEOUT.retryable
        assert StoreErrorCode.UNAVAILABLE.retryable
        assert not StoreErrorCode.MISSING.retryable
        assert not StoreErrorCode.AUTH.retryable
        assert not StoreErrorCode.FULL.retryable

    def test_fallthrough_partition(self):
        fall = {c for c in StoreErrorCode if c.fallthrough}
        assert fall == {StoreErrorCode.MISSING, StoreErrorCode.UNAVAILABLE,
                        StoreErrorCode.TIMEOUT}

    def test_store_error_pickles(self):
        # args hold the formatted string, so the default exception
        # reduce would rebuild with the wrong __init__ arguments — a
        # worker raising StoreError used to break the sweep pool.
        import pickle

        err = pickle.loads(pickle.dumps(
            StoreError(StoreErrorCode.FULL, "put would exceed capacity")))
        assert err.code is StoreErrorCode.FULL
        assert err.message == "put would exceed capacity"
        assert str(err) == "full: put would exceed capacity"

    def test_raise_for_status(self):
        with pytest.raises(StoreError) as err:
            Response(ok=False, code=StoreErrorCode.AUTH,
                     message="nope").raise_for_status()
        assert err.value.code is StoreErrorCode.AUTH
        assert not err.value.retryable
        Response(ok=True, value=1).raise_for_status()


class TestRetryPolicy:
    def test_backoff_is_capped_and_jittered_deterministically(self):
        pol = RetryPolicy(attempts=5, base_delay=0.01, multiplier=2.0,
                          max_delay=0.03, jitter=0.0)
        assert pol.backoff(1) == 0.01
        assert pol.backoff(2) == 0.02
        assert pol.backoff(3) == 0.03    # capped
        assert pol.backoff(4) == 0.03

    def test_should_retry_respects_attempts_and_codes(self):
        pol = RetryPolicy(attempts=2)
        assert pol.should_retry(StoreErrorCode.UNAVAILABLE, 1)
        assert not pol.should_retry(StoreErrorCode.UNAVAILABLE, 2)
        assert not pol.should_retry(StoreErrorCode.MISSING, 1)

    def test_no_retry_sentinel(self):
        assert not NO_RETRY.should_retry(StoreErrorCode.UNAVAILABLE, 1)


class TestCrashAndRetry:
    def test_crashed_server_raises_unavailable(self, rig):
        env, _c, _o, servers, client = rig
        server = servers[0]
        drive(env, client.put(server, "k", payload=b"v"))
        server.crash()
        with pytest.raises(StoreError) as err:
            drive(env, client.get(server, "k", retry=NO_RETRY))
        assert err.value.code is StoreErrorCode.UNAVAILABLE
        assert err.value.retryable

    def test_crash_wipes_data(self, rig):
        env, _c, _o, servers, client = rig
        server = servers[0]
        drive(env, client.put(server, "k", payload=b"v"))
        server.crash()
        server.restart()
        with pytest.raises(StoreError) as err:
            drive(env, client.get(server, "k", retry=NO_RETRY))
        assert err.value.code is StoreErrorCode.MISSING

    def test_retry_succeeds_after_restart(self, rig):
        env, _c, _o, servers, client = rig
        server = servers[0]
        drive(env, client.put(server, "k", payload=b"v"))
        server.crash()
        server.kv.put("k", payload=b"v")  # data survives on disk this time
        server._sync_memory()
        env.schedule_callback(0.002, server.restart)
        policy = RetryPolicy(attempts=8, base_delay=0.001, jitter=0.0)
        _n, payload = drive(env, client.get(server, "k", retry=policy))
        assert payload == b"v"
        assert fault_stats.retries > 0
        assert fault_stats.unavailable_errors > 0

    def test_retries_are_bounded(self, rig):
        env, _c, _o, servers, client = rig
        server = servers[0]
        server.crash()
        policy = RetryPolicy(attempts=3, base_delay=0.001, jitter=0.0)
        with pytest.raises(StoreError):
            drive(env, client.get(server, "k", retry=policy))
        assert fault_stats.retries == 2  # attempts - 1


class TestDeadlines:
    def test_deadline_times_out_large_transfer(self, rig):
        env, cluster, own, servers, client = rig
        server = servers[0]
        drive(env, client.put(server, "big", nbytes=256 * MB))
        hasty = StoreClient(env, cluster.fabric, own, deadline=1e-6)
        with pytest.raises(StoreError) as err:
            drive(env, hasty.get(server, "big", retry=NO_RETRY))
        assert err.value.code is StoreErrorCode.TIMEOUT
        assert fault_stats.timeouts == 1

    def test_generous_deadline_passes(self, rig):
        env, cluster, own, servers, _ = rig
        client = StoreClient(env, cluster.fabric, own, deadline=60.0)
        server = servers[0]
        drive(env, client.put(server, "k", payload=b"v"))
        _n, payload = drive(env, client.get(server, "k"))
        assert payload == b"v"
        assert fault_stats.timeouts == 0

    def test_constructor_default_deadline(self, rig):
        env, cluster, own, servers, _ = rig
        client = StoreClient(env, cluster.fabric, own, deadline=1e-6,
                             retry=NO_RETRY)
        server = servers[0]
        # The put is tiny control traffic but would still be raced:
        # store the value through a client with a generous deadline,
        # then let the default deadline bite on the large read.
        patient = StoreClient(env, cluster.fabric, own, deadline=60.0)
        drive(env, patient.put(server, "big", nbytes=256 * MB))
        with pytest.raises(StoreError) as err:
            drive(env, client.get(server, "big"))
        assert err.value.code is StoreErrorCode.TIMEOUT


class TestChainReads:
    def test_get_any_falls_through_missing(self, rig):
        env, _c, _o, servers, client = rig
        drive(env, client.put(servers[1], "k", payload=b"v"))
        _n, payload = drive(env, client.get_any(servers[:2], "k"))
        assert payload == b"v"
        assert fault_stats.degraded_reads == 1

    def test_get_any_falls_through_crashed(self, rig):
        env, _c, _o, servers, client = rig
        drive(env, client.put(servers[0], "k", payload=b"v"))
        drive(env, client.put(servers[1], "k", payload=b"v"))
        servers[0].crash()
        _n, payload = drive(env, client.get_any(servers[:2], "k",
                                                retry=NO_RETRY))
        assert payload == b"v"
        assert fault_stats.degraded_reads == 1

    def test_get_any_skips_dead_entries_and_raises_when_empty(self, rig):
        env, _c, _o, servers, client = rig
        with pytest.raises(StoreError) as err:
            drive(env, client.get_any([None, None], "k"))
        assert err.value.code is StoreErrorCode.UNAVAILABLE

    def test_get_any_raises_last_fallthrough_error(self, rig):
        env, _c, _o, servers, client = rig
        with pytest.raises(StoreError) as err:
            drive(env, client.get_any(servers, "nope", retry=NO_RETRY))
        assert err.value.code is StoreErrorCode.MISSING

    def test_get_any_waits_for_a_slow_primary(self, rig):
        env, _c, _o, servers, client = rig
        # Chain reads are sequential: a slow primary that answers is
        # never raced against the fast replica behind it.
        drive(env, client.put(servers[0], "k", nbytes=512 * MB))
        drive(env, client.put(servers[1], "k", payload=b"quick"))
        nbytes, payload = drive(env, client.get_any(servers[:2], "k"))
        assert (nbytes, payload) == (512 * MB, None)
        assert fault_stats.degraded_reads == 0
        assert fault_stats.hedged_reads == 0
