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

The numeric fit is *memoized*: live weight retuning (the market
controller recalibrates every epoch) revisits the same rounded fraction
vectors over and over, and re-running a 60-iteration sampled fit for a
state already solved would dominate the retune hot path.  Fits are keyed
by the rounded fraction vector plus every fit parameter; hit/miss
counters live on :data:`weight_fit_stats`.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Hashable

import numpy as np

from ..counters import Counters
from .hrw import HashFamily, MIX64, WeightedClassHrw, get_family

__all__ = [
    "two_class_weights",
    "own_victim_weights",
    "achieved_fractions",
    "calibrate_weights",
    "WeightFitStats",
    "weight_fit_stats",
]

#: Memoized numeric fits: recurring market states (same rounded targets,
#: same family and fit parameters) skip the sampled iteration entirely.
_FIT_CACHE: "OrderedDict[tuple, dict]" = OrderedDict()
_FIT_CACHE_SIZE = 256
#: Fractions are rounded to this many decimals for the memo key: market
#: states that differ by less than the fit tolerance share one fit.
_FIT_KEY_DECIMALS = 6


class WeightFitStats(Counters):
    """Process-wide calibration counters (a :class:`~repro.counters.Counters`).

    ``fit_hits`` counts multi-class calibrations answered from the memo,
    ``fit_misses`` the numeric fits actually run, and ``closed_form``
    the two-class requests solved analytically (never cached — the
    closed form is cheaper than a lookup).

    :meth:`reset` drops the fit memo with the counters.  Zeroing
    ``fit_hits``/``fit_misses`` while the memo survived would make them
    depend on process warmth — a warm process reports hits where a cold
    one reports misses for the same scenario — so a scenario reset must
    start cold.  The memo still pays for itself *within* a scenario,
    which is the market controller's per-epoch retune hot path.
    """

    _COUNTERS = ("fit_hits", "fit_misses", "closed_form")
    __slots__ = _COUNTERS

    def reset(self) -> None:
        super().reset()
        _FIT_CACHE.clear()


weight_fit_stats = WeightFitStats()


def two_class_weights(fraction_first: float,
                      family: str | HashFamily = MIX64,
                      ) -> tuple[float, float]:
    """Weights ``(W_first, W_second)`` sending *fraction_first* of keys to
    the first class.  The smaller weight is normalized to 0."""
    if not 0.0 <= fraction_first <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction_first}")
    m = float(get_family(family).modulus)
    f = fraction_first
    if f <= 0.5:
        # Penalize the first class.
        return m * (1.0 - math.sqrt(2.0 * f)), 0.0
    return 0.0, m * (1.0 - math.sqrt(2.0 * (1.0 - f)))


def own_victim_weights(alpha: float, family: str | HashFamily = MIX64,
                       ) -> dict[str, float]:
    """Class weights for the paper's α = fraction of data on *own* nodes."""
    w_own, w_victim = two_class_weights(alpha, family)
    return {"own": w_own, "victim": w_victim}


def achieved_fractions(weights: dict[Hashable, float],
                       family: str | HashFamily = MIX64,
                       samples: int = 200_000,
                       seed: int = 12345) -> dict[Hashable, float]:
    """Empirical per-class key share under *weights* (sampled, vectorized)."""
    layer = WeightedClassHrw(weights, family)
    rng = np.random.default_rng(seed)
    digests = rng.integers(0, 2**64, size=samples, dtype=np.uint64)
    choice = layer.choose_batch(digests)
    counts = np.bincount(choice, minlength=len(layer.classes))
    return {c: counts[i] / samples for i, c in enumerate(layer.classes)}


def calibrate_weights(fractions: dict[Hashable, float],
                      family: str | HashFamily = MIX64,
                      samples: int = 200_000,
                      iterations: int = 60,
                      seed: int = 12345,
                      tol: float = 5e-3) -> dict[Hashable, float]:
    """Fit class weights matching arbitrary target *fractions* (≥ 2 classes).

    Stochastic-approximation fit: adjust each weight proportionally to the
    error between its empirical and target share, re-normalizing the minimum
    weight to zero each round.  Deterministic for a fixed *seed*.

    Multi-class fits are memoized on the rounded fraction vector plus the
    fit parameters, so per-epoch retunes that revisit a market state skip
    the numeric iteration (see :data:`weight_fit_stats`).  A fresh dict is
    returned on every call — callers may mutate the result freely.
    """
    if abs(sum(fractions.values()) - 1.0) > 1e-9:
        raise ValueError("target fractions must sum to 1")
    if any(f < 0 for f in fractions.values()):
        raise ValueError("target fractions must be non-negative")
    classes = list(fractions)
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    fam = get_family(family)
    m = float(fam.modulus)
    if len(classes) == 2:
        weight_fit_stats.closed_form += 1
        w0, w1 = two_class_weights(fractions[classes[0]], fam)
        return {classes[0]: w0, classes[1]: w1}

    token = (fam.name, samples, iterations, seed, float(tol),
             tuple((c, round(float(fractions[c]), _FIT_KEY_DECIMALS))
                   for c in classes))
    cached = _FIT_CACHE.get(token)
    if cached is not None:
        _FIT_CACHE.move_to_end(token)
        weight_fit_stats.fit_hits += 1
        return dict(cached)
    weight_fit_stats.fit_misses += 1

    rng = np.random.default_rng(seed)
    digests = rng.integers(0, 2**64, size=samples, dtype=np.uint64)
    weights = {c: 0.0 for c in classes}
    step = 0.4 * m
    for _ in range(iterations):
        layer = WeightedClassHrw(weights, fam)
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
    _FIT_CACHE[token] = dict(weights)
    while len(_FIT_CACHE) > _FIT_CACHE_SIZE:
        _FIT_CACHE.popitem(last=False)
    return weights
