"""Tests for fraction -> weight calibration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (MODULUS, achieved_fractions, calibrate_weights,
                           own_victim_weights, two_class_weights)


class TestTwoClassWeights:
    def test_half_is_unweighted(self):
        w1, w2 = two_class_weights(0.5)
        assert w1 == pytest.approx(0.0)
        assert w2 == pytest.approx(0.0)

    def test_zero_fraction_starves_first(self):
        w1, w2 = two_class_weights(0.0)
        assert w1 == pytest.approx(float(MODULUS))
        assert w2 == 0.0

    def test_one_fraction_starves_second(self):
        w1, w2 = two_class_weights(1.0)
        assert w1 == 0.0
        assert w2 == pytest.approx(float(MODULUS))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            two_class_weights(1.5)
        with pytest.raises(ValueError):
            two_class_weights(-0.1)

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_achieved_fraction_matches_target(self, alpha):
        weights = own_victim_weights(alpha)
        got = achieved_fractions(weights, samples=100_000)
        assert got["own"] == pytest.approx(alpha, abs=0.01)

    @given(st.floats(min_value=0.02, max_value=0.98))
    @settings(max_examples=15, deadline=None)
    def test_property_fraction_round_trip(self, alpha):
        weights = own_victim_weights(alpha)
        got = achieved_fractions(weights, samples=60_000)
        assert got["own"] == pytest.approx(alpha, abs=0.02)

    def test_monotone_more_weight_less_data(self):
        fracs = []
        for alpha in (0.2, 0.4, 0.6, 0.8):
            w = own_victim_weights(alpha)
            fracs.append(achieved_fractions(w, samples=50_000)["own"])
        assert fracs == sorted(fracs)


class TestCalibrateWeights:
    def test_two_class_delegates_to_closed_form(self):
        w = calibrate_weights({"own": 0.25, "victim": 0.75})
        expect = two_class_weights(0.25)
        assert w["own"] == pytest.approx(expect[0])
        assert w["victim"] == pytest.approx(expect[1])

    def test_three_classes_converge(self):
        targets = {"own": 0.5, "victim1": 0.3, "victim2": 0.2}
        w = calibrate_weights(targets, samples=80_000, seed=7)
        got = achieved_fractions(w, samples=200_000, seed=99)
        for c, f in targets.items():
            assert got[c] == pytest.approx(f, abs=0.03)

    def test_four_classes_converge(self):
        targets = {"own": 0.4, "v1": 0.3, "v2": 0.2, "v3": 0.1}
        w = calibrate_weights(targets, samples=80_000, seed=3)
        got = achieved_fractions(w, samples=200_000, seed=42)
        for c, f in targets.items():
            assert got[c] == pytest.approx(f, abs=0.035)

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrate_weights({"a": 0.5, "b": 0.6})
        with pytest.raises(ValueError):
            calibrate_weights({"a": 1.0})
        with pytest.raises(ValueError):
            calibrate_weights({"a": 1.2, "b": -0.2})

    def test_deterministic(self):
        targets = {"own": 0.5, "v1": 0.25, "v2": 0.25}
        w1 = calibrate_weights(targets, samples=40_000, seed=5)
        w2 = calibrate_weights(targets, samples=40_000, seed=5)
        assert w1 == w2
