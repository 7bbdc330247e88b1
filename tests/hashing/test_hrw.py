"""Unit + property tests for HRW hashing."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (MODULUS, HrwHasher, WeightedClassHrw, hash_mix64,
                           hash_mix64_batch2, stable_digest)


class TestStableDigest:
    def test_deterministic(self):
        assert stable_digest("abc") == stable_digest("abc")

    def test_distinct_inputs_distinct_digests(self):
        vals = [stable_digest(f"key-{i}") for i in range(1000)]
        assert len(set(vals)) == 1000

    def test_bytes_and_str_supported(self):
        assert isinstance(stable_digest(b"\x00\x01"), int)
        assert isinstance(stable_digest(("a", 1)), int)

    def test_known_stability(self):
        # Pin a value: placement must never silently change across versions,
        # because stripe locations are persisted in metadata.
        assert stable_digest("stripe-0") == stable_digest("stripe-0")
        assert stable_digest("a") != stable_digest("b")


class TestHashFunctions:
    def test_mix64_range(self):
        for i in range(100):
            v = hash_mix64(stable_digest(f"s{i}"), stable_digest(f"k{i}"))
            assert 0 <= v < 2**64

    def test_batch_matches_scalar_mix64(self):
        seeds = [stable_digest(f"node-{i}") for i in range(4)]
        digests = np.array([stable_digest(f"k{i}") for i in range(50)],
                           dtype=np.uint64)
        grid = hash_mix64_batch2(np.array(seeds, dtype=np.uint64), digests)
        scalar = [[hash_mix64(s, int(d)) for d in digests] for s in seeds]
        assert grid.tolist() == scalar


class TestHrwHasher:
    def test_placement_deterministic(self):
        h = HrwHasher([f"n{i}" for i in range(8)])
        assert all(h.place(f"k{i}") == h.place(f"k{i}") for i in range(100))

    def test_placement_roughly_uniform(self):
        nodes = [f"n{i}" for i in range(8)]
        h = HrwHasher(nodes)
        counts = collections.Counter(h.place(f"key-{i}") for i in range(8000))
        for n in nodes:
            assert counts[n] == pytest.approx(1000, rel=0.15)

    def test_ranked_first_equals_place(self):
        h = HrwHasher([f"n{i}" for i in range(8)])
        for i in range(50):
            assert h.ranked(f"k{i}")[0] == h.place(f"k{i}")

    def test_ranked_returns_all_distinct(self):
        h = HrwHasher([f"n{i}" for i in range(8)])
        r = h.ranked("some-key")
        assert sorted(r) == sorted(h.nodes)

    def test_ranked_k_prefix(self):
        h = HrwHasher([f"n{i}" for i in range(8)])
        assert h.ranked("k", k=3) == h.ranked("k")[:3]

    def test_minimal_disruption_on_node_removal(self):
        """HRW invariant: removing a node only remaps the keys it held."""
        nodes = [f"n{i}" for i in range(10)]
        h_full = HrwHasher(nodes)
        h_less = h_full.with_nodes(nodes[:-1])
        keys = [f"key-{i}" for i in range(3000)]
        for k in keys:
            before = h_full.place(k)
            after = h_less.place(k)
            if before != nodes[-1]:
                assert after == before
            else:
                assert after != nodes[-1]

    def test_minimal_disruption_on_node_addition(self):
        nodes = [f"n{i}" for i in range(9)]
        h_small = HrwHasher(nodes)
        h_big = h_small.with_nodes(nodes + ["n9"])
        moved = 0
        keys = [f"key-{i}" for i in range(3000)]
        for k in keys:
            if h_small.place(k) != h_big.place(k):
                assert h_big.place(k) == "n9"
                moved += 1
        # Expect about 1/10 of keys to move to the new node.
        assert moved == pytest.approx(300, rel=0.25)

    def test_removed_node_promotes_second_ranked(self):
        """Lazy-lookup property used in §V-C: when the winner disappears the
        key is found at the next node in the rank list."""
        nodes = [f"n{i}" for i in range(6)]
        h = HrwHasher(nodes)
        for i in range(200):
            key = f"k{i}"
            first, second = h.ranked(key, k=2)
            survivors = [n for n in nodes if n != first]
            assert h.with_nodes(survivors).place(key) == second

    def test_batch_matches_scalar_placement(self):
        nodes = [f"n{i}" for i in range(7)]
        h = HrwHasher(nodes)
        keys = [f"key-{i}" for i in range(200)]
        digests = np.array([stable_digest(k) for k in keys], dtype=np.uint64)
        idx = h.place_batch(digests)
        assert [nodes[i] for i in idx] == [h.place(k) for k in keys]

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            HrwHasher([])
        with pytest.raises(ValueError):
            HrwHasher(["a", "a"])

    def test_single_node_gets_everything(self):
        h = HrwHasher(["only"])
        assert all(h.place(f"k{i}") == "only" for i in range(20))

    @given(st.integers(min_value=2, max_value=12),
           st.text(min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_property_place_is_in_nodes(self, n, key):
        h = HrwHasher([f"n{i}" for i in range(n)])
        assert h.place(key) in h.nodes

    @given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=40,
                    unique=True))
    @settings(max_examples=40, deadline=None)
    def test_property_disruption_bound(self, keys):
        """Property: over any key set, removing 1 of 5 nodes remaps only keys
        owned by the removed node."""
        nodes = [f"n{i}" for i in range(5)]
        h = HrwHasher(nodes)
        h2 = h.with_nodes(nodes[1:])
        for k in keys:
            if h.place(k) != nodes[0]:
                assert h2.place(k) == h.place(k)


class TestWeightedClassHrw:
    def test_zero_weights_equal_split(self):
        layer = WeightedClassHrw({"a": 0.0, "b": 0.0})
        counts = collections.Counter(
            layer.choose_class(f"k{i}") for i in range(4000))
        assert counts["a"] == pytest.approx(2000, rel=0.1)

    def test_heavier_weight_gets_less(self):
        m = MODULUS
        layer = WeightedClassHrw({"own": 0.0, "victim": 0.5 * m})
        counts = collections.Counter(
            layer.choose_class(f"k{i}") for i in range(4000))
        assert counts["own"] > counts["victim"]

    def test_full_weight_starves_class(self):
        m = MODULUS
        layer = WeightedClassHrw({"own": 0.0, "victim": float(m)})
        assert all(layer.choose_class(f"k{i}") == "own" for i in range(500))

    def test_batch_matches_scalar(self):
        m = MODULUS
        layer = WeightedClassHrw({"own": 0.0, "victim": 0.3 * m})
        keys = [f"key-{i}" for i in range(300)]
        digests = np.array([stable_digest(k) for k in keys], dtype=np.uint64)
        idx = layer.choose_batch(digests)
        got = [layer.classes[i] for i in idx]
        assert got == [layer.choose_class(k) for k in keys]

    def test_with_class_adds_dynamically(self):
        layer = WeightedClassHrw({"own": 0.0, "victim": 0.0})
        bigger = layer.with_class("victim2", 0.0)
        assert set(bigger.classes) == {"own", "victim", "victim2"}
        # Original untouched.
        assert set(layer.classes) == {"own", "victim"}

    def test_without_class(self):
        layer = WeightedClassHrw({"own": 0.0, "victim": 0.0})
        smaller = layer.without_class("victim")
        assert smaller.classes == ("own",)
        with pytest.raises(ValueError):
            smaller.without_class("own")

    def test_weight_bounds_validated(self):
        with pytest.raises(ValueError):
            WeightedClassHrw({"a": -1.0, "b": 0.0})
        with pytest.raises(ValueError):
            WeightedClassHrw({"a": float(MODULUS) * 2, "b": 0.0})
        with pytest.raises(ValueError):
            WeightedClassHrw({})

    def test_dynamic_class_minimal_disruption(self):
        """Adding a new (victim2) class only steals keys, never reshuffles
        keys between the existing classes."""
        base = WeightedClassHrw({"own": 0.0, "victim": 0.0})
        grown = base.with_class("victim2", 0.0)
        for i in range(2000):
            k = f"key-{i}"
            if grown.choose_class(k) != "victim2":
                assert grown.choose_class(k) == base.choose_class(k)


class TestBatchResolution:
    """The vectorized callables behind the batch-first planner."""

    def test_rank_batch_matches_ranked(self):
        nodes = [f"n{i}" for i in range(9)]
        h = HrwHasher(nodes)
        keys = [("stripe", 3, i) for i in range(100)]
        digests = np.array([stable_digest(k) for k in keys], dtype=np.uint64)
        order = h.rank_batch(digests)
        for i, k in enumerate(keys):
            assert [nodes[j] for j in order[i]] == h.ranked(k)

    def test_class_rank_batch_matches_scores(self):
        m = MODULUS
        layer = WeightedClassHrw({"a": 0.0, "b": 0.4 * m, "c": float(m)})
        keys = [f"key-{i}" for i in range(100)]
        digests = np.array([stable_digest(k) for k in keys], dtype=np.uint64)
        order = layer.rank_batch(digests)
        for i, k in enumerate(keys):
            sc = layer.scores(k)
            expect = sorted(layer.classes, key=lambda c: -sc[c])
            assert [layer.classes[j] for j in order[i]] == expect

    def test_score_batch_shape_and_dtype(self):
        h = HrwHasher(["a", "b", "c"])
        digests = np.arange(7, dtype=np.uint64)
        scores = h.score_batch(digests)
        assert scores.shape == (3, 7) and scores.dtype == np.uint64
        layer = WeightedClassHrw({"x": 0.0, "y": 1.0})
        cs = layer.score_batch(digests)
        assert cs.shape == (2, 7) and cs.dtype == np.float64
