"""Placement substrate: HRW / weighted-class HRW, consistent hashing, modulo."""

from .hrw import (HashFamily, HrwHasher, MIX64, TR98, WeightedClassHrw, fnv1a,
                  hash_mix64, hash_mix64_batch, hash_tr98, hash_tr98_batch,
                  stable_digest)
from .weights import (WeightFitStats, achieved_fractions, calibrate_weights,
                      own_victim_weights,
                      two_class_weights, weight_fit_stats)
from .consistent import ConsistentHashRing
from .modulo import ModuloPlacer

__all__ = [
    "HashFamily", "HrwHasher", "WeightedClassHrw", "MIX64", "TR98",
    "hash_mix64", "hash_tr98", "hash_mix64_batch", "hash_tr98_batch",
    "fnv1a", "stable_digest",
    "two_class_weights", "own_victim_weights", "achieved_fractions",
    "calibrate_weights", "WeightFitStats", "weight_fit_stats",
    "ConsistentHashRing", "ModuloPlacer",
]
