"""Placement substrate: HRW / weighted-class HRW, consistent hashing, modulo."""

from .hrw import (MODULUS, HrwHasher, WeightedClassHrw, fnv1a, hash_mix64,
                  hash_mix64_batch2, stable_digest)
from .weights import (achieved_fractions, calibrate_weights,
                      own_victim_weights, two_class_weights)
from .consistent import ConsistentHashRing
from .modulo import ModuloPlacer

__all__ = [
    "HrwHasher", "WeightedClassHrw", "MODULUS",
    "hash_mix64", "hash_mix64_batch2",
    "fnv1a", "stable_digest",
    "two_class_weights", "own_victim_weights", "achieved_fractions",
    "calibrate_weights",
    "ConsistentHashRing", "ModuloPlacer",
]
