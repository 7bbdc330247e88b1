"""Highest Random Weight (rendezvous) hashing, plain and class-weighted.

MemFSS's data placement (paper §III-B) is a **two-layer** scheme:

1. *Class layer* — every node belongs to a class (``own`` or ``victim``;
   more classes may be added dynamically).  For a key ``k`` each class
   ``C`` scores ``H(C, k) - W_C`` where ``W_C`` is the class *weight*;
   the highest score wins.  Subtracting a larger weight sends *less* data
   to that class, which is how MemFSS throttles the traffic imposed on
   victim reservations.
2. *Node layer* — within the winning class, plain HRW (Thaler &
   Ravishankar 1998) places the key uniformly: each node scores
   ``H(node, k)`` and the maximum wins.  The runner-up nodes provide the
   natural replica targets (§III-E) and the lazy-migration lookup chain
   (§V-C).

Both layers inherit HRW's minimal-disruption property: adding or removing
a node (or class) only remaps the keys that the new arrangement assigns
differently — O(K/N) of them.

The hash is a SplitMix64-style 64-bit finalizer (:func:`hash_mix64`),
uniform on ``[0, MODULUS)``; :func:`hash_mix64_batch2` is its grid form,
used by every batch placement path.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Hashable

import numpy as np

__all__ = [
    "stable_digest",
    "fnv1a",
    "hash_mix64",
    "hash_mix64_batch2",
    "MODULUS",
    "HrwHasher",
    "WeightedClassHrw",
]

_U64 = 0xFFFFFFFFFFFFFFFF
#: The hash's range: every score is in ``[0, MODULUS)``, and a class
#: weight of ``MODULUS`` starves its class.
MODULUS = 1 << 64

FNV_OFFSET = 1469598103934665603
_FNV_PRIME = 1099511628211


def fnv1a(data: bytes, state: int = FNV_OFFSET) -> int:
    """FNV-1a over *data*, continuing from *state*.

    Chainable: ``fnv1a(a + b) == fnv1a(b, fnv1a(a))``, which lets callers
    checkpoint the digest of a shared prefix (see
    :func:`repro.fs.striping.stripe_digest_array`).
    """
    h = state
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


def stable_digest(value: Hashable) -> int:
    """Deterministic 64-bit digest of a key or node identifier.

    Python's built-in ``hash`` is salted per process; this FNV-1a digest is
    stable across runs, which placement decisions must be (stripe locations
    are persisted in metadata).
    """
    data = repr(value).encode() if not isinstance(value, (bytes, bytearray)) \
        else bytes(value)
    return fnv1a(data)


def hash_mix64(seed: int, digest: int) -> int:
    """SplitMix64 finalizer over (seed, digest); uniform on [0, 2^64)."""
    z = (seed ^ (digest * 0x9E3779B97F4A7C15)) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return (z ^ (z >> 31)) & _U64


def hash_mix64_batch2(seeds: np.ndarray, digests: np.ndarray) -> np.ndarray:
    """Grid-vectorized :func:`hash_mix64`: seed column × digest row.

    Returns shape ``(len(seeds), len(digests))`` uint64, element
    ``[i, j]`` equal to ``hash_mix64(seeds[i], digests[j])`` bit for bit
    (uint64 integer arithmetic wraps exactly like the masked scalar).
    One broadcast scores every node seed at once — the dominant cost on
    ×16/×64 fabrics, where every placement scores thousands of seeds.
    """
    s = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    d = np.asarray(digests, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = s ^ (d * np.uint64(0x9E3779B97F4A7C15))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


class HrwHasher:
    """Plain HRW over a set of nodes: uniform placement, ranked runners-up."""

    def __init__(self, nodes: Iterable[Hashable]):
        self._nodes: tuple[Hashable, ...] = tuple(nodes)
        seen = set()
        for n in self._nodes:
            if n in seen:
                raise ValueError(f"duplicate node {n!r}")
            seen.add(n)
        if not self._nodes:
            raise ValueError("HrwHasher needs at least one node")
        self._seeds: list[int] = [stable_digest(n) for n in self._nodes]
        self._seed_arr = np.asarray(self._seeds, dtype=np.uint64)

    @property
    def nodes(self) -> tuple[Hashable, ...]:
        return self._nodes

    def scores_digest(self, digest: int) -> list[int]:
        """Per-node scores of an already-digested key (digest computed once
        by the caller and threaded through both placement layers)."""
        return [hash_mix64(s, digest) for s in self._seeds]

    def scores(self, key: Hashable) -> list[int]:
        return self.scores_digest(stable_digest(key))

    def place_digest(self, digest: int) -> Hashable:
        sc = self.scores_digest(digest)
        return self._nodes[max(range(len(sc)), key=sc.__getitem__)]

    def place(self, key: Hashable) -> Hashable:
        """The node with the highest random weight for *key*."""
        return self.place_digest(stable_digest(key))

    def ranked_digest(self, digest: int,
                      k: int | None = None) -> list[Hashable]:
        sc = self.scores_digest(digest)
        order = sorted(range(len(sc)), key=lambda i: (-sc[i], i))
        if k is not None:
            order = order[:k]
        return [self._nodes[i] for i in order]

    def ranked(self, key: Hashable, k: int | None = None) -> list[Hashable]:
        """Nodes ordered by descending score — replica / fallback chain."""
        return self.ranked_digest(stable_digest(key), k)

    def score_batch(self, digests: np.ndarray) -> np.ndarray:
        """Vectorized scores, shape ``(n_nodes, n_digests)`` (uint64).

        One grid broadcast over all node seeds at once (see
        :func:`hash_mix64_batch2`)."""
        return hash_mix64_batch2(self._seed_arr, digests)

    def place_batch(self, digests: np.ndarray) -> np.ndarray:
        """Vectorized placement: index into :attr:`nodes` for each digest."""
        return np.argmax(self.score_batch(digests), axis=0)

    def rank_batch(self, digests: np.ndarray) -> np.ndarray:
        """Vectorized replica chains: node indices by descending score,
        shape ``(n_digests, n_nodes)``.  Row *i* equals the indices of
        :meth:`ranked` for digest *i* (ties break on the lower index, as in
        the scalar sort)."""
        scores = self.score_batch(digests)
        # uint64 cannot be negated; complementing reverses the order and a
        # stable ascending argsort then breaks ties on the lower node index.
        inverted = np.uint64(_U64) - scores
        return np.argsort(inverted, axis=0, kind="stable").T

    def with_nodes(self, nodes: Iterable[Hashable]) -> "HrwHasher":
        """A new hasher over a different node set (HRW is stateless)."""
        return HrwHasher(nodes)


class WeightedClassHrw:
    """The class layer: score(C, k) = H(C, k) − W_C, highest wins.

    Weights are absolute offsets in hash-value units (0 ≤ W ≤ MODULUS);
    :mod:`repro.hashing.weights` converts a target data fraction into
    weight offsets.
    """

    def __init__(self, class_weights: dict[Hashable, float]):
        if not class_weights:
            raise ValueError("need at least one class")
        for c, w in class_weights.items():
            # W == MODULUS is allowed: it starves the class entirely
            # (α = 0 % / 100 % endpoints of Fig. 2).
            if w < 0 or w > MODULUS:
                raise ValueError(
                    f"class {c!r}: weight {w} outside [0, MODULUS]")
        self._classes = list(class_weights)
        self._weights = dict(class_weights)
        self._seeds = {c: stable_digest(("class", c)) for c in self._classes}
        self._seed_arr = np.asarray([self._seeds[c] for c in self._classes],
                                    dtype=np.uint64)
        self._weight_col = np.asarray(
            [self._weights[c] for c in self._classes],
            dtype=np.float64).reshape(-1, 1)

    @property
    def classes(self) -> tuple[Hashable, ...]:
        return tuple(self._classes)

    def weight(self, cls: Hashable) -> float:
        return self._weights[cls]

    def scores_digest(self, digest: int) -> dict[Hashable, float]:
        """Weighted per-class scores of an already-digested key."""
        return {c: hash_mix64(self._seeds[c], digest) - self._weights[c]
                for c in self._classes}

    def scores(self, key: Hashable) -> dict[Hashable, float]:
        return self.scores_digest(stable_digest(key))

    def choose_class(self, key: Hashable) -> Hashable:
        sc = self.scores(key)
        # Deterministic tie-break on class registration order.
        best = self._classes[0]
        best_score = sc[best]
        for c in self._classes[1:]:
            if sc[c] > best_score:
                best, best_score = c, sc[c]
        return best

    def score_batch(self, digests: np.ndarray) -> np.ndarray:
        """Vectorized weighted scores, shape ``(n_classes, n_digests)``.

        float64, matching the scalar path: Python's ``int - float`` also
        rounds the hash to double precision before subtracting.
        """
        grid = hash_mix64_batch2(self._seed_arr, digests)
        # astype-then-subtract broadcasts elementwise over the same
        # operands as the old per-class rows — identical float64 results.
        return grid.astype(np.float64) - self._weight_col

    def choose_batch(self, digests: np.ndarray) -> np.ndarray:
        """Vectorized class choice: index into :attr:`classes`."""
        return np.argmax(self.score_batch(digests), axis=0)

    def rank_batch(self, digests: np.ndarray) -> np.ndarray:
        """Vectorized class rankings by descending weighted score, shape
        ``(n_digests, n_classes)``; ties keep registration order, like the
        scalar stable sort."""
        return np.argsort(-self.score_batch(digests), axis=0,
                          kind="stable").T

    def with_class(self, cls: Hashable, weight: float) -> "WeightedClassHrw":
        """A new layer with an added (or re-weighted) class — used when a
        victim class joins or leaves at runtime (§III-D)."""
        weights = dict(self._weights)
        weights[cls] = weight
        return WeightedClassHrw(weights)

    def without_class(self, cls: Hashable) -> "WeightedClassHrw":
        weights = dict(self._weights)
        weights.pop(cls, None)
        if not weights:
            raise ValueError("cannot remove the last class")
        return WeightedClassHrw(weights)
