"""StoreFull / StoreError structured capacity details.

The capacity-aware write path routes on *which* store is full and *how
much* space it has left, so the exceptions carry structured fields, and
the synthesized message keeps one fixed format.
"""

import pickle

import pytest

from repro.cluster import build_das5
from repro.store import (KVStore, StoreClient, StoreError, StoreErrorCode,
                         StoreFull, StoreServer)


class TestStoreFullFields:
    def test_structured_fields(self):
        exc = StoreFull(store="own@node00", requested=2048.0, free=512.0)
        assert exc.store == "own@node00"
        assert exc.requested == 2048.0
        assert exc.free == 512.0

    def test_legacy_message_synthesized(self):
        exc = StoreFull(requested=2048.0, free=512.0)
        # The pre-fields format, byte for byte.
        assert str(exc) == \
            "put of 2.05e+03 B would exceed capacity (512 B free)"

    def test_explicit_message_wins(self):
        exc = StoreFull("sadd: over capacity", store="s", requested=1.0)
        assert str(exc) == "sadd: over capacity"

    def test_message_only_compat(self):
        # Old call sites passed just a message; fields default to None.
        exc = StoreFull("custom")
        assert (exc.store, exc.requested, exc.free) == (None, None, None)

    def test_pickle_round_trip(self):
        exc = StoreFull(store="s1", requested=100.0, free=7.0)
        back = pickle.loads(pickle.dumps(exc))
        assert str(back) == str(exc)
        assert (back.store, back.requested, back.free) == ("s1", 100.0, 7.0)

    def test_details_payload(self):
        exc = StoreFull(store="s1", requested=100.0, free=7.0)
        assert exc.details() == {"store": "s1", "requested_bytes": 100.0,
                                 "free_bytes": 7.0}
        assert StoreFull("bare").details() == {}

    def test_kvstore_put_populates_fields(self):
        kv = KVStore(capacity=1000, key_overhead=0, name="tiny")
        kv.put("a", nbytes=900)
        with pytest.raises(StoreFull) as ei:
            kv.put("b", nbytes=200)
        assert ei.value.store == "tiny"
        assert ei.value.requested == 200
        assert ei.value.free == 100


class TestServerFullDetails:
    def _rig(self, capacity=4096.0):
        cluster = build_das5(n_nodes=2)
        env = cluster.env
        server = StoreServer(env, cluster.nodes[0], cluster.fabric,
                             capacity=capacity, name="own@n0")
        client = StoreClient(env, cluster.fabric, cluster.nodes[1])
        return cluster, server, client

    def _run(self, cluster, gen):
        proc = cluster.env.process(gen)
        return cluster.env.run(until=proc)

    def test_full_response_carries_details(self):
        cluster, server, client = self._rig(capacity=4096.0)

        def overfill():
            yield from client.put(server, "k", nbytes=8192.0)

        with pytest.raises(StoreError) as ei:
            self._run(cluster, overfill())
        assert ei.value.code is StoreErrorCode.FULL
        details = ei.value.details
        assert details["store"] == "own@n0"
        assert details["requested_bytes"] == 8192.0
        assert details["free_bytes"] == pytest.approx(4096.0)

    def test_store_error_pickles_with_details(self):
        err = StoreError(StoreErrorCode.FULL, "full",
                         details={"store": "s", "requested_bytes": 1.0})
        back = pickle.loads(pickle.dumps(err))
        assert back.code is StoreErrorCode.FULL
        assert back.details == {"store": "s", "requested_bytes": 1.0}

    def test_free_space_peek(self):
        cluster, server, client = self._rig(capacity=4096.0)
        assert server.free_space() == pytest.approx(4096.0)

        def fill():
            yield from client.put(server, "k", nbytes=1000.0)

        self._run(cluster, fill())
        assert server.free_space() == pytest.approx(4096.0 - 1128.0)
        server.crash()
        assert server.free_space() == 0.0
