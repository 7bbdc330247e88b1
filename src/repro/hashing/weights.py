"""Converting target data fractions into HRW class weights.

The paper steers data volume between node classes by subtracting a weight
from each class's hash score (§III-B): *"larger weights for the victim class
generate lower loads, while smaller weights yield higher loads"*.  This
module computes the weights that realize a requested split.

For the two-class case (own vs. victim) the weight offset has a closed
form.  With both scores uniform on ``[0, M)`` and offset
``x = W_own − W_victim``, the probability that *own* wins is

* ``f = (M − x)² / (2 M²)``      for ``x ≥ 0`` (own penalized, f ≤ ½)
* ``f = 1 − (M + x)² / (2 M²)``  for ``x < 0``  (victim penalized, f > ½)

Inverting gives :func:`two_class_weights`.  For three or more classes the
win probabilities have no convenient closed form, so
:func:`calibrate_weights` fits weights numerically against vectorized
sampled hashes (deterministic under a fixed seed).
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

from .hrw import MODULUS, WeightedClassHrw

__all__ = [
    "two_class_weights",
    "own_victim_weights",
    "achieved_fractions",
    "calibrate_weights",
]


def two_class_weights(fraction_first: float) -> tuple[float, float]:
    """Weights ``(W_first, W_second)`` sending *fraction_first* of keys to
    the first class.  The smaller weight is normalized to 0."""
    if not 0.0 <= fraction_first <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction_first}")
    m = float(MODULUS)
    f = fraction_first
    if f <= 0.5:
        # Penalize the first class.
        return m * (1.0 - math.sqrt(2.0 * f)), 0.0
    return 0.0, m * (1.0 - math.sqrt(2.0 * (1.0 - f)))


def own_victim_weights(alpha: float) -> dict[str, float]:
    """Class weights for the paper's α = fraction of data on *own* nodes."""
    w_own, w_victim = two_class_weights(alpha)
    return {"own": w_own, "victim": w_victim}


def achieved_fractions(weights: dict[Hashable, float],
                       samples: int = 200_000,
                       seed: int = 12345) -> dict[Hashable, float]:
    """Empirical per-class key share under *weights* (sampled, vectorized)."""
    layer = WeightedClassHrw(weights)
    rng = np.random.default_rng(seed)
    digests = rng.integers(0, 2**64, size=samples, dtype=np.uint64)
    choice = layer.choose_batch(digests)
    counts = np.bincount(choice, minlength=len(layer.classes))
    return {c: counts[i] / samples for i, c in enumerate(layer.classes)}


def calibrate_weights(fractions: dict[Hashable, float],
                      samples: int = 200_000,
                      iterations: int = 60,
                      seed: int = 12345,
                      tol: float = 5e-3) -> dict[Hashable, float]:
    """Fit class weights matching arbitrary target *fractions* (≥ 2 classes).

    Stochastic-approximation fit: adjust each weight proportionally to the
    error between its empirical and target share, re-normalizing the minimum
    weight to zero each round.  Deterministic for a fixed *seed*.
    """
    if abs(sum(fractions.values()) - 1.0) > 1e-9:
        raise ValueError("target fractions must sum to 1")
    if any(f < 0 for f in fractions.values()):
        raise ValueError("target fractions must be non-negative")
    classes = list(fractions)
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    if len(classes) == 2:
        w0, w1 = two_class_weights(fractions[classes[0]])
        return {classes[0]: w0, classes[1]: w1}

    rng = np.random.default_rng(seed)
    digests = rng.integers(0, 2**64, size=samples, dtype=np.uint64)
    m = float(MODULUS)
    weights = {c: 0.0 for c in classes}
    step = 0.4 * m
    for _ in range(iterations):
        layer = WeightedClassHrw(weights)
        choice = layer.choose_batch(digests)
        counts = np.bincount(choice, minlength=len(classes))
        errors = {c: counts[i] / samples - fractions[c]
                  for i, c in enumerate(layer.classes)}
        if max(abs(e) for e in errors.values()) < tol:
            break
        for c in classes:
            # Over-served classes get a heavier penalty weight.
            weights[c] = min(m, max(0.0, weights[c] + step * errors[c]))
        low = min(weights.values())
        for c in classes:
            weights[c] -= low
        step *= 0.92
    return weights
