"""ScenarioSpec: normalization, identity, fingerprints, picklability."""

import json
import pickle

import pytest

from repro.core import DeploymentConfig, PlacementPolicy
from repro.exec import ScenarioSpec, fig2_spec


class TestNormalization:
    def test_param_order_is_irrelevant(self):
        a = ScenarioSpec.make("fig2", alpha=0.5, n_tasks=8)
        b = ScenarioSpec.make("fig2", n_tasks=8, alpha=0.5)
        assert a == b
        assert a.fingerprint("s") == b.fingerprint("s")

    def test_nested_containers_freeze(self):
        a = ScenarioSpec.make("k", opts={"b": [1, 2], "a": "x"})
        b = ScenarioSpec.make("k", opts={"a": "x", "b": (1, 2)})
        assert a == b
        assert a.param("opts") == {"a": "x", "b": [1, 2]}

    def test_unsupported_param_type_rejected(self):
        with pytest.raises(TypeError):
            ScenarioSpec.make("k", fn=lambda: None)

    def test_hashable_and_picklable(self):
        spec = fig2_spec(0.25, n_tasks=8, config=DeploymentConfig())
        assert spec in {spec}
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.fingerprint("s") == spec.fingerprint("s")

    def test_as_dict_is_json_safe(self):
        spec = fig2_spec(0.25, n_tasks=8, config=DeploymentConfig())
        blob = json.dumps(spec.as_dict(), sort_keys=True)
        assert json.loads(blob)["kind"] == "fig2"


class TestFingerprint:
    def test_stable_for_equal_specs(self):
        cfg = DeploymentConfig(policy=PlacementPolicy.own_victim(0.5))
        a = fig2_spec(0.5, n_tasks=16, config=cfg)
        b = fig2_spec(0.5, n_tasks=16, config=DeploymentConfig(
            policy=PlacementPolicy.own_victim(0.5)))
        assert a.fingerprint("v1") == b.fingerprint("v1")
        assert a.spec_key() == b.spec_key()

    @pytest.mark.parametrize("other", [
        fig2_spec(0.75, n_tasks=16),
        fig2_spec(0.5, n_tasks=17),
        fig2_spec(0.5, n_tasks=16, config=DeploymentConfig(n_victim=4)),
        fig2_spec(0.5, n_tasks=16, seed=7),
    ])
    def test_any_field_changes_it(self, other):
        base = fig2_spec(0.5, n_tasks=16)
        assert base.fingerprint("v1") != other.fingerprint("v1")
        assert base.spec_key() != other.spec_key()

    def test_salt_changes_fingerprint_not_spec_key(self):
        spec = fig2_spec(0.5, n_tasks=16)
        assert spec.fingerprint("v1") != spec.fingerprint("v2")
        assert spec.spec_key() == spec.spec_key()

    def test_seed_override_lands_in_config(self):
        spec = fig2_spec(0.5, config=DeploymentConfig(seed=3), seed=11)
        assert spec.deployment_config().seed == 11
        assert fig2_spec(0.5).deployment_config().seed == 0
