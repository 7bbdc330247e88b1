"""Batch planner ≡ scalar placement, policy interning, digest arrays.

The refactor to a batch-first :class:`~repro.fs.placement.StripePlan` must
not move a single stripe: stripe locations are persisted in file metadata,
so batch and scalar resolution have to agree bit-for-bit — including at
the α = 0 % / 100 % endpoints of Fig. 2 (a class weight equal to the hash
modulus starves the class entirely) and for degenerate single-node
classes.  Hypothesis drives random policies through both paths.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fs import (ClassSpec, FileMeta, PlacementMap, StripePlan,
                      planner_stats, stripe_digest_array, stripe_key)
from repro.fs import placement
from repro.fs.placement import clear_placement_caches
from repro.hashing import MODULUS, own_victim_weights, stable_digest


@st.composite
def policies(draw, max_nodes=4):
    """Random two-layer policies: 1-3 classes, 0-*max_nodes* nodes each (at
    least one node overall), weights spanning [0, modulus] including both
    endpoints."""
    n_classes = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(0, max_nodes),
                          min_size=n_classes, max_size=n_classes))
    assume(any(sizes))
    classes = {}
    serial = 0
    for ci, size in enumerate(sizes):
        frac = draw(st.one_of(st.sampled_from([0.0, 1.0]),
                              st.floats(0.0, 1.0)))
        nodes = tuple(f"n{serial + i}" for i in range(size))
        serial += size
        classes[f"c{ci}"] = ClassSpec(frac * MODULUS, nodes)
    return PlacementMap(classes)


def keys_for(inode, n):
    return [stripe_key(inode, i) for i in range(n)]


class TestPlanEquivalence:
    @given(policies(), st.integers(0, 2**32), st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_plan_matches_scalar(self, policy, inode, n):
        keys = keys_for(inode, n)
        plan = policy.plan(keys)
        assert len(plan) == n
        assert list(plan.primaries) == [policy.place(k) for k in keys]
        assert [plan.class_of(i) for i in range(n)] == \
            [policy.class_of(k) for k in keys]

    @given(policies(max_nodes=40), st.integers(0, 2**32),
           st.integers(1, 16), st.data())
    @settings(max_examples=60, deadline=None)
    def test_chain_matches_ranked_prefix(self, policy, inode, n, data):
        """Prefixes from empty to past the node count: the slice stops
        inside a class or spills across classes."""
        keys = keys_for(inode, n)
        plan = policy.plan(keys)
        ks = data.draw(st.lists(
            st.integers(0, len(policy.all_nodes) + 2), min_size=1,
            max_size=4))
        for i, key in enumerate(keys):
            for k in ks:
                assert plan.chain(i, k) == policy.ranked(key, k=k)
            assert plan.chain(i) == policy.ranked(key)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
    def test_starved_endpoints(self, alpha):
        """Fig. 2's α endpoints: one class carries weight == modulus and
        must receive nothing, in scalar and batch resolution alike."""
        w = own_victim_weights(alpha)
        policy = PlacementMap({
            "own": ClassSpec(w["own"], ("o0", "o1")),
            "victim": ClassSpec(w["victim"], ("v0", "v1", "v2")),
        })
        keys = keys_for(9, 400)
        plan = policy.plan(keys)
        assert list(plan.primaries) == [policy.place(k) for k in keys]
        if alpha == 0.0:
            assert all(p.startswith("v") for p in plan.primaries)
        elif alpha == 1.0:
            assert all(p.startswith("o") for p in plan.primaries)

    def test_single_node_class(self):
        policy = PlacementMap({
            "solo": ClassSpec(0.0, ("lonely",)),
            "rest": ClassSpec(0.0, ("a", "b")),
        })
        keys = keys_for(5, 200)
        plan = policy.plan(keys)
        assert list(plan.primaries) == [policy.place(k) for k in keys]
        for i, key in enumerate(keys):
            assert plan.chain(i, 3) == policy.ranked(key, k=3)

    def test_empty_plan(self):
        policy = PlacementMap({"a": ClassSpec(0.0, ("x",))})
        plan = policy.plan([])
        assert len(plan) == 0 and plan.primaries == ()

    def test_golden_placements_pinned(self):
        """Placements recorded from the pre-refactor scalar implementation:
        persisted stripe locations must never silently change."""
        expect = ["v0", "v2", "v11", "o1", "v5", "v9",
                  "v7", "v9", "v6", "v4", "v9", "v1"]
        keys = [("stripe", 7, i) for i in range(12)]
        w = own_victim_weights(0.25)
        policy = PlacementMap({
            "own": ClassSpec(w["own"], tuple(f"o{i}" for i in range(4))),
            "victim": ClassSpec(w["victim"],
                                tuple(f"v{i}" for i in range(12))),
        })
        assert [policy.place(k) for k in keys] == expect
        assert list(policy.plan(keys).primaries) == expect


class TestPolicyInterning:
    def make_meta(self, policy, inode=1):
        weights, members = policy.snapshot()
        return FileMeta(path="/f", inode=inode, size=100, stripe_size=10,
                        n_stripes=10, class_weights=weights,
                        class_members=members)

    @given(policies())
    @settings(max_examples=40, deadline=None)
    def test_from_meta_round_trip_is_interned(self, policy):
        meta = self.make_meta(policy)
        first = PlacementMap.from_meta(meta)
        assert PlacementMap.from_meta(meta) is first
        # The freshly built policy has the same snapshot -> same instance.
        assert PlacementMap.intern(policy) is first

    def test_interned_policy_shares_plans(self):
        clear_placement_caches()
        policy = PlacementMap.intern(
            PlacementMap({"a": ClassSpec(0.0, ("x", "y"))}))
        meta = self.make_meta(policy)
        again = PlacementMap.from_meta(meta)
        assert again is policy
        plan = policy.plan_file(1, 10)
        assert again.plan_file(1, 10) is plan

    def test_distinct_snapshots_not_shared(self):
        a = PlacementMap.intern(
            PlacementMap({"a": ClassSpec(0.0, ("x",))}))
        b = PlacementMap.intern(
            PlacementMap({"a": ClassSpec(0.0, ("x", "y"))}))
        assert a is not b

    def test_counters_move(self):
        clear_placement_caches()
        policy = PlacementMap.intern(
            PlacementMap({"a": ClassSpec(0.0, ("x", "y"))}))
        meta = self.make_meta(policy)
        PlacementMap.from_meta(meta)
        before = planner_stats.snapshot()
        PlacementMap.from_meta(meta)
        policy.plan_file(1, 10)
        policy.plan_file(1, 10)
        after = planner_stats.snapshot()
        assert after["policy_hits"] == before["policy_hits"] + 1
        assert after["plan_hits"] == before["plan_hits"] + 1
        assert after["stripes_resolved"] >= before["stripes_resolved"] + 20


def _chained_without_node(policy, drop):
    """The restriction as call sites spelled it before ``without_nodes``:
    one ``without_node`` per dropped node, then one intern."""
    out = policy
    for n in policy.all_nodes:
        if n in drop:
            out = out.without_node(n)
    return PlacementMap.intern(out)


def _cache_state():
    return (OrderedDict(placement._POLICY_CACHE), planner_stats.snapshot())


def _restore(state):
    cache, stats = state
    placement._POLICY_CACHE.clear()
    placement._POLICY_CACHE.update(cache)
    for name, value in stats.items():
        setattr(planner_stats, name, value)


def _restrict(fn, policy, drop):
    """(result or ValueError text, counter deltas, cache contents)."""
    before = planner_stats.snapshot()
    try:
        out = fn(policy, drop)
    except ValueError as exc:
        out = f"ValueError: {exc}"
    after = planner_stats.snapshot()
    deltas = {k: after[k] - before[k] for k in after}
    return out, deltas, list(placement._POLICY_CACHE.items())


class TestWithoutNodes:
    """``without_nodes`` ≡ interned chained ``without_node`` calls."""

    @given(policies(max_nodes=8), st.data(),
           st.sampled_from([0, 3, placement._POLICY_CACHE_SIZE - 1,
                            placement._POLICY_CACHE_SIZE]),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_chained_without_node(self, policy, data, filler,
                                          warm):
        nodes = policy.all_nodes
        drop = data.draw(st.sets(st.sampled_from(nodes + ("stranger",))))
        clear_placement_caches()
        if warm:
            try:
                _chained_without_node(policy, drop)
            except ValueError:
                pass
        # Interned after the warm entry, so a hit must move it to the end
        # and a full cache must evict on a miss.
        for i in range(filler):
            PlacementMap.intern(PlacementMap({"f": ClassSpec(0.0,
                                                             (f"f{i}",))}))
        state = _cache_state()
        old, old_deltas, old_cache = _restrict(_chained_without_node,
                                               policy, drop)
        _restore(state)
        new, new_deltas, new_cache = _restrict(
            lambda p, d: p.without_nodes(d), policy, drop)
        assert new_deltas == old_deltas
        assert [k for k, _ in new_cache] == [k for k, _ in old_cache]
        if isinstance(old, str):
            assert new == old
            assert new_cache == old_cache
            return
        if old_deltas["policy_hits"]:
            assert new is old
            assert all(a is b for (_, a), (_, b) in zip(new_cache,
                                                        old_cache))
        else:
            # Both built a fresh instance; the helper's is now canonical.
            assert new._intern_token() == old._intern_token()
            assert _chained_without_node(policy, drop) is new
        assert not set(new.all_nodes) & drop

    def test_dropping_every_node_raises(self):
        policy = PlacementMap({"a": ClassSpec(0.0, ("x",)),
                               "b": ClassSpec(1.0, ("y", "z"))})
        with pytest.raises(ValueError, match="at least one class"):
            policy.without_nodes({"x", "y", "z"})

    def test_nothing_dropped_interns_self(self):
        clear_placement_caches()
        policy = PlacementMap({"a": ClassSpec(0.0, ("x", "y"))})
        assert policy.without_nodes({"zz"}) is policy
        assert PlacementMap.intern(
            PlacementMap({"a": ClassSpec(0.0, ("x", "y"))})) is policy
        assert planner_stats.policy_misses == 1
        assert planner_stats.policy_hits == 1


class TestPlanFile:
    def test_plan_file_cached_identity(self):
        policy = PlacementMap({"a": ClassSpec(0.0, ("x", "y", "z"))})
        assert policy.plan_file(3, 8) is policy.plan_file(3, 8)
        assert policy.plan_file(3, 8) is not policy.plan_file(4, 8)

    def test_plan_file_includes_parity_keys(self):
        from repro.fs import parity_key
        policy = PlacementMap({"a": ClassSpec(0.0, ("x", "y", "z"))})
        plan = policy.plan_file(3, 7, erasure=(3, 2))
        # ceil(7/3) = 3 groups x 2 parity keys after the 7 stripes.
        assert len(plan) == 7 + 6
        idx = plan.index_of(parity_key(3, 1, 0))
        assert plan.keys[idx] == parity_key(3, 1, 0)
        assert plan.primary(idx) == policy.place(parity_key(3, 1, 0))

    @given(st.integers(0, 2**40), st.integers(0, 80))
    @settings(max_examples=60, deadline=None)
    def test_stripe_digest_array_matches_stable_digest(self, inode, n):
        arr = stripe_digest_array(inode, n)
        assert arr.dtype == np.uint64 and not arr.flags.writeable
        assert arr.tolist() == \
            [stable_digest(stripe_key(inode, i)) for i in range(n)]

    def test_plan_digests_match_keys(self):
        policy = PlacementMap({"a": ClassSpec(0.0, ("x", "y"))})
        plan = policy.plan_file(11, 5)
        assert plan.digests.tolist() == \
            [stable_digest(k) for k in plan.keys]

    def test_plan_rejects_mismatched_digests(self):
        policy = PlacementMap({"a": ClassSpec(0.0, ("x",))})
        with pytest.raises(ValueError):
            StripePlan(policy, [stripe_key(1, 0)],
                       np.zeros(2, dtype=np.uint64))
