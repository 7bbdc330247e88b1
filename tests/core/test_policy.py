"""Tests for the unified PlacementPolicy config object and its shims."""

import pickle

import pytest

from repro.core import ClassTarget, DeploymentConfig, PlacementPolicy
from repro.core.deployment import MemFSSDeployment
from repro.fs.placement import PlacementMap
from repro.hashing import own_victim_weights
from repro.units import MB


class TestPlacementPolicy:
    def test_own_victim_fractions(self):
        pol = PlacementPolicy.own_victim(0.25)
        assert pol.fractions() == {"own": 0.25, "victim": 0.75}
        assert pol.alpha == 0.25

    def test_two_class_weights_byte_identical_to_legacy(self):
        # The closed form must produce *exactly* the floats
        # own_victim_weights does: the Fig. 2 golden trajectories and the
        # stored results were computed from those weights.
        for alpha in (0.0, 0.25, 0.3, 0.5, 0.75, 1.0):
            pol = PlacementPolicy.own_victim(alpha)
            assert pol.weights() == own_victim_weights(alpha)

    def test_explicit_weights_verbatim(self):
        pol = PlacementPolicy.make(
            {"a": ClassTarget(weight=2.0), "b": ClassTarget(weight=1.0)})
        assert pol.weights() == {"a": 2.0, "b": 1.0}
        assert not pol.by_fraction

    def test_fraction_sum_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PlacementPolicy.make({"a": 0.5, "b": 0.4})

    def test_mixed_targets_rejected(self):
        with pytest.raises(ValueError, match="pick one scheme"):
            PlacementPolicy(classes=(
                ("a", ClassTarget(fraction=0.5)),
                ("b", ClassTarget(weight=1.0))))

    def test_class_target_exactly_one(self):
        with pytest.raises(ValueError):
            ClassTarget()
        with pytest.raises(ValueError):
            ClassTarget(fraction=0.5, weight=1.0)

    def test_with_fraction_rescales_proportionally(self):
        pol = PlacementPolicy.make({"own": 0.5, "b": 0.3, "c": 0.2})
        new = pol.with_fraction("own", 0.8)
        fr = new.fractions()
        assert fr["own"] == pytest.approx(0.8)
        assert fr["b"] == pytest.approx(0.3 * 0.2 / 0.5)
        assert fr["c"] == pytest.approx(0.2 * 0.2 / 0.5)
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_retargeted_requires_full_cover(self):
        pol = PlacementPolicy.own_victim(0.25)
        with pytest.raises(ValueError, match="mismatch"):
            pol.retargeted({"own": 1.0})

    def test_materialize_binds_members(self):
        pol = PlacementPolicy.own_victim(0.25)
        pm = pol.materialize({"own": ("n0", "n1"), "victim": ("v0",)})
        assert isinstance(pm, PlacementMap)
        assert pm.classes["own"].nodes == ("n0", "n1")
        assert pm.classes["own"].weight == \
            own_victim_weights(0.25)["own"]

    def test_materialize_omits_absent_classes(self):
        pol = PlacementPolicy.own_victim(0.25)
        pm = pol.materialize({"own": ("n0",)})
        assert set(pm.classes) == {"own"}

    def test_policy_pickles(self):
        pol = PlacementPolicy.own_victim(0.3, replication=2)
        clone = pickle.loads(pickle.dumps(pol))
        assert clone == pol
        assert clone.weights() == pol.weights()

    def test_frozen(self):
        pol = PlacementPolicy.own_victim(0.25)
        with pytest.raises(AttributeError):
            pol.replication = 2


class TestDeploymentConfigPolicy:
    def test_with_alpha_does_not_warn(self, recwarn):
        config = DeploymentConfig().with_alpha(0.5)
        assert config.policy.alpha == 0.5
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_policy_field_authoritative(self):
        pol = PlacementPolicy.own_victim(0.75, replication=2)
        config = DeploymentConfig(policy=pol)
        assert config.policy is pol
        assert MemFSSDeployment(config).placement_policy is pol

    def test_config_with_policy_pickles(self):
        config = DeploymentConfig().with_alpha(0.3)
        clone = pickle.loads(pickle.dumps(config))
        assert clone.policy == config.policy

    def test_policy_deployment_matches_legacy_weights(self):
        config = DeploymentConfig(
            n_own=2, n_victim=3, victim_memory=32 * MB,
            own_store_capacity=64 * MB, stripe_size=4 * MB).with_alpha(0.25)
        dep = MemFSSDeployment(config)
        legacy = own_victim_weights(0.25)
        assert dep.fs.policy.classes["own"].weight == legacy["own"]
        assert dep.fs.policy.classes["victim"].weight == legacy["victim"]


class TestPlacementMapRenameShim:
    def test_unknown_attribute_still_raises(self):
        import repro.fs
        import repro.fs.placement
        with pytest.raises(AttributeError):
            repro.fs.placement.NoSuchThing
        # The runtime object's old name is no longer an alias.
        for module in (repro.fs, repro.fs.placement):
            with pytest.raises(AttributeError):
                module.PlacementPolicy
