"""Tests for the two-layer placement policy."""

import collections

import pytest

from repro.fs import ClassSpec, FileMeta, PlacementMap
from repro.hashing import MODULUS, own_victim_weights


def make_policy(alpha=0.5, n_own=2, n_victim=4):
    w = own_victim_weights(alpha)
    return PlacementMap({
        "own": ClassSpec(w["own"], tuple(f"own{i}" for i in range(n_own))),
        "victim": ClassSpec(w["victim"],
                            tuple(f"vic{i}" for i in range(n_victim))),
    })


class TestConstruction:
    def test_rejects_shared_nodes(self):
        with pytest.raises(ValueError):
            PlacementMap({
                "a": ClassSpec(0.0, ("x",)),
                "b": ClassSpec(0.0, ("x",)),
            })

    def test_rejects_all_empty(self):
        with pytest.raises(ValueError):
            PlacementMap({"a": ClassSpec(0.0, ())})

    def test_rejects_no_classes(self):
        with pytest.raises(ValueError):
            PlacementMap({})

    def test_empty_class_allowed_if_another_has_nodes(self):
        p = PlacementMap({
            "a": ClassSpec(0.0, ("x",)),
            "b": ClassSpec(0.0, ()),
        })
        assert p.place("k") == "x"


class TestPlacement:
    def test_deterministic(self):
        p = make_policy()
        keys = [("stripe", i, j) for i in range(20) for j in range(5)]
        assert [p.place(k) for k in keys] == [p.place(k) for k in keys]

    def test_respects_alpha_fraction(self):
        p = make_policy(alpha=0.25)
        counts = collections.Counter(
            "own" if p.place(("stripe", i, 0)).startswith("own") else "victim"
            for i in range(8000))
        assert counts["own"] / 8000 == pytest.approx(0.25, abs=0.03)

    def test_uniform_within_class(self):
        p = make_policy(alpha=0.0, n_victim=4)  # everything to victims
        counts = collections.Counter(p.place(("stripe", i, 0))
                                     for i in range(8000))
        for node, c in counts.items():
            assert node.startswith("vic")
            assert c == pytest.approx(2000, rel=0.15)

    def test_alpha_one_starves_victims(self):
        p = make_policy(alpha=1.0)
        assert all(p.place(("s", i)).startswith("own") for i in range(500))

    def test_ranked_spills_into_next_class(self):
        p = make_policy(alpha=0.5, n_own=2, n_victim=3)
        chain = p.ranked("some-key")
        assert len(chain) == 5
        # First block is the winning class's nodes.
        win = p.class_of("some-key")
        prefix = 2 if win == "own" else 3
        assert all(n.startswith("own" if win == "own" else "vic")
                   for n in chain[:prefix])

    def test_ranked_k_prefix(self):
        p = make_policy()
        assert p.ranked("k", k=3) == p.ranked("k")[:3]


class TestMetaRoundTrip:
    def test_snapshot_reconstruction_identical_placement(self):
        p = make_policy(alpha=0.25)
        weights, members = p.snapshot()
        meta = FileMeta(path="/f", inode=1, size=1000, stripe_size=10,
                        n_stripes=100, class_weights=weights,
                        class_members=members)
        q = PlacementMap.from_meta(meta)
        keys = [("stripe", 1, i) for i in range(200)]
        assert [p.place(k) for k in keys] == [q.place(k) for k in keys]

    def test_old_files_keep_placement_after_policy_change(self):
        """The point of storing weights in metadata (§III-D): dynamic class
        changes must not invalidate old placements."""
        p = make_policy(alpha=0.5)
        weights, members = p.snapshot()
        meta = FileMeta(path="/f", inode=1, size=100, stripe_size=10,
                        n_stripes=10, class_weights=weights,
                        class_members=members)
        p2 = p.with_class("victim2", 0.0, ("w0", "w1"))
        del p2  # current policy changed; recorded policy still works
        q = PlacementMap.from_meta(meta)
        keys = [("stripe", 1, i) for i in range(10)]
        assert [q.place(k) for k in keys] == [p.place(k) for k in keys]


class TestEvolution:
    def test_with_class_adds(self):
        p = make_policy()
        p2 = p.with_class("victim2", 123.0, ("w0",))
        assert "victim2" in p2.class_names
        assert "victim2" not in p.class_names

    def test_without_class(self):
        p = make_policy()
        p2 = p.without_class("victim")
        assert p2.class_names == ("own",)
        with pytest.raises(KeyError):
            p.without_class("nope")

    def test_without_node_minimal_disruption(self):
        p = make_policy(alpha=0.0, n_victim=5)
        p2 = p.without_node("vic0")
        keys = [("s", i) for i in range(3000)]
        for k in keys:
            if p.place(k) != "vic0":
                assert p2.place(k) == p.place(k)

    def test_without_node_unknown(self):
        with pytest.raises(KeyError):
            make_policy().without_node("zzz")

    def test_reweighted(self):
        p = make_policy(alpha=0.5)
        p2 = p.reweighted({"victim": float(MODULUS)})
        assert all(p2.place(("s", i)).startswith("own") for i in range(200))
