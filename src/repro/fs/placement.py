"""Two-layer stripe placement (paper §III-B), batch-first.

Layer 1 picks the node *class* by weighted HRW; layer 2 picks the node
within the class by plain HRW.  (The declarative config object is
:class:`repro.core.policy.PlacementPolicy`.)  A :class:`PlacementMap` is
immutable — membership changes (a victim class joining or leaving)
produce a *new* policy — because every file's metadata records the
policy under which its stripes were placed, and reads must be able to
reconstruct exactly that placement (:meth:`PlacementMap.from_meta`).

Immutability is what makes the two amortizations here safe:

- **Policy interning.**  :meth:`PlacementMap.from_meta` returns one
  shared instance per distinct metadata snapshot (an LRU-bounded intern
  cache), so per-request reads stop rebuilding hashers.
- **Stripe plans.**  :class:`StripePlan` resolves class, primary node and
  replica/erasure chains for *all* keys of a file in one vectorized pass
  (:meth:`PlacementMap.plan_file`, cached per policy), replacing the
  per-stripe scalar loops on the write/read/unlink/migrate paths.

Planner cache behaviour is observable through :data:`planner_stats`
(snapshotted as ``planner`` by the metrics registry).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Mapping, Sequence

import numpy as np

from ..counters import Counters
from ..hashing import HrwHasher, WeightedClassHrw
from ..hashing.hrw import stable_digest
from .erasure import group_layout, parity_key
from .metadata import FileMeta
from .striping import stripe_digest_array, stripe_key

__all__ = ["ClassSpec", "PlacementMap", "StripePlan", "PlannerStats",
           "planner_stats", "clear_placement_caches",
           "CodingSets", "CodedAssignment", "assign_coded",
           "assign_coded_scalar"]


class PlannerStats(Counters):
    """Process-wide planner counters (policy interning + stripe plans).

    ``stripes_resolved`` counts keys whose placement was served through a
    :class:`StripePlan` — the work the scalar path would have done one key
    at a time.
    """

    _COUNTERS = ("policy_hits", "policy_misses", "plan_hits", "plan_misses",
                 "stripes_resolved")
    __slots__ = _COUNTERS


planner_stats = PlannerStats()

#: Interned policies, keyed by their ordered class snapshot.
_POLICY_CACHE: "OrderedDict[tuple, PlacementMap]" = OrderedDict()
_POLICY_CACHE_SIZE = 128
#: Per-policy plan cache bound (plans hold O(n_keys × n_nodes) arrays).
_PLAN_CACHE_SIZE = 64


def _policy_token(weights: Mapping[str, float],
                  members: Mapping[str, Sequence[str]]) -> tuple:
    """Intern-cache key of a policy snapshot: ``(class, weight, nodes)``
    per class, in class order.  Takes the :class:`FileMeta` mappings as
    stored, so :meth:`PlacementMap.from_meta` keys a lookup without
    building a policy."""
    return tuple((c, float(weights[c]), tuple(members[c])) for c in weights)


def clear_placement_caches() -> None:
    """Drop interned policies, cached plans, and digest arrays (tests and
    cold-path benchmarks)."""
    _POLICY_CACHE.clear()
    stripe_digest_array.cache_clear()
    planner_stats.reset()


@dataclass(frozen=True)
class ClassSpec:
    """One node class: its HRW weight and member node names."""

    weight: float
    nodes: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate nodes in class")


class StripePlan:
    """Vectorized placement of many keys under one immutable policy.

    Construction resolves the layer-1 class and layer-2 primary node for
    every key in one batch pass; the full replica / lazy-lookup chains
    (:meth:`chain`) are materialized lazily — also vectorized, once — the
    first time any chain deeper than the primary is needed.  All results
    are identical to the scalar ``place`` / ``class_of`` / ``ranked``
    calls, key by key.
    """

    __slots__ = ("policy", "keys", "digests", "_class_order", "_win",
                 "_primary_idx", "_node_orders", "_primaries", "_index")

    def __init__(self, policy: "PlacementMap",
                 keys: Sequence[Hashable], digests: np.ndarray):
        if len(keys) != len(digests):
            raise ValueError("one digest per key required")
        self.policy = policy
        self.keys = tuple(keys)
        d = np.ascontiguousarray(digests, dtype=np.uint64)
        self.digests = d
        ne = policy._ne_classes
        # Class scores restricted to non-empty classes: the scalar path
        # ranks all classes then drops empty ones, and the stable sort
        # preserves the relative order of the survivors — so ranking the
        # non-empty subset directly is equivalent.
        all_scores = policy._layer1.score_batch(d)
        cls_scores = all_scores[policy._ne_rows]
        self._class_order = np.argsort(-cls_scores, axis=0, kind="stable").T
        win = (self._class_order[:, 0] if len(d)
               else np.empty(0, dtype=np.int64))
        self._win = win
        # Primary node per key: group the keys by winning class, one
        # argmax over that class's vectorized node scores per group.
        primary = np.empty(len(d), dtype=np.int64)
        names = np.empty(len(d), dtype=object)
        for ci, cname in enumerate(ne):
            mask = win == ci
            if not mask.any():
                continue
            hasher = policy._layer2[cname]
            idx = np.argmax(hasher.score_batch(d[mask]), axis=0)
            primary[mask] = idx
            names[mask] = np.asarray(hasher.nodes, dtype=object)[idx]
        self._primary_idx = primary
        self._primaries = tuple(names.tolist())
        self._node_orders: dict[str, np.ndarray] | None = None
        self._index: dict[Hashable, int] | None = None

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def primaries(self) -> tuple[str, ...]:
        """Primary node of every key, in key order."""
        return self._primaries

    def primary(self, i: int) -> str:
        return self._primaries[i]

    def class_of(self, i: int) -> str:
        """Winning (non-empty) class of key *i*."""
        return self.policy._ne_classes[int(self._win[i])]

    def index_of(self, key: Hashable) -> int:
        """Position of *key* in this plan (for parity/sibling lookups)."""
        if self._index is None:
            self._index = {k: i for i, k in enumerate(self.keys)}
        return self._index[key]

    def _ensure_orders(self) -> None:
        if self._node_orders is None:
            self._node_orders = {
                cname: self.policy._layer2[cname].rank_batch(self.digests)
                for cname in self.policy._ne_classes}

    def chain(self, i: int, k: int | None = None) -> list[str]:
        """Replica / lazy-lookup chain of key *i*: nodes of the winning
        class by descending HRW score, spilling into the next-ranked class
        (paper §III-E) — identical to ``policy.ranked(keys[i], k)``.
        Only the first *k* ranks are converted, so a chain costs O(k)."""
        if k == 1:
            return [self._primaries[i]]
        self._ensure_orders()
        policy = self.policy
        out: list[str] = []
        for ci in self._class_order[i].tolist():
            cname = policy._ne_classes[ci]
            nodes = policy._layer2[cname].nodes
            row = self._node_orders[cname][i]
            if k is not None:
                row = row[:k - len(out)]
            out.extend([nodes[j] for j in row.tolist()])
            if k is not None and len(out) >= k:
                return out
        return out


@dataclass(frozen=True)
class CodingSets:
    """Hydra-style bounded placement groups keyed by failure domain.

    ``domains`` maps node name → failure domain (the tenant / reservation
    owner whose revocation would seize that node; see
    :class:`~repro.cluster.reservation.ScavengeOffer`).  Nodes *not* in
    the map (the scavenger's own nodes) are their own failure domain and
    are never restricted to a set — only the victim class is carved.

    ``set_size`` bounds each placement group ("CodingSet"): the mapped
    nodes are dealt domain-round-robin into ``ceil(n / set_size)``
    groups, so every group spans as many distinct domains as possible
    and a correlated revocation (one whole domain) can touch at most a
    few groups.  ``None`` keeps one unbounded group — pure domain
    anti-affinity without blast-radius bounding.

    The object is a pure value: equal snapshots assign identically, and
    it round-trips through :class:`~repro.fs.metadata.FileMeta` so reads
    and repair reconstruct the write-time assignment exactly.
    """

    domains: tuple[tuple[str, str], ...]
    set_size: int | None = None

    def __post_init__(self):
        names = [n for n, _ in self.domains]
        if len(set(names)) != len(names):
            raise ValueError("duplicate node in CodingSets domain map")
        if self.set_size is not None and self.set_size < 2:
            raise ValueError("set_size must be >= 2 (or None)")

    @classmethod
    def build(cls, domain_of: Mapping[str, str],
              set_size: int | None = None) -> "CodingSets":
        return cls(tuple(sorted((str(n), str(d))
                                for n, d in domain_of.items())),
                   set_size)

    @cached_property
    def domain_map(self) -> dict[str, str]:
        return dict(self.domains)

    @cached_property
    def groups(self) -> tuple[tuple[str, ...], ...]:
        """The bounded placement groups (a partition of the mapped nodes).

        Nodes are ordered domain-round-robin (sorted domains, sorted
        nodes within a domain) and chunked into consecutive runs of
        ``set_size``, maximizing distinct domains per group.  Purely a
        function of the snapshot — no RNG, no ambient state.
        """
        by_domain: dict[str, list[str]] = {}
        for node, dom in self.domains:
            by_domain.setdefault(dom, []).append(node)
        queues = [sorted(by_domain[d]) for d in sorted(by_domain)]
        ordered: list[str] = []
        while any(queues):
            for q in queues:
                if q:
                    ordered.append(q.pop(0))
        if not ordered:
            return ()
        size = self.set_size or len(ordered)
        return tuple(tuple(ordered[i:i + size])
                     for i in range(0, len(ordered), size))

    def group_index(self, inode: int, gi: int) -> int:
        """The placement group serving erasure group *gi* of *inode*."""
        n = len(self.groups)
        if n <= 1:
            return 0
        return stable_digest(("codingset", inode, gi)) % n

    def token(self) -> tuple:
        return (self.set_size, self.domains)

    # -- metadata round trip ------------------------------------------------------
    def to_doc(self) -> dict:
        return {"set_size": self.set_size,
                "domains": {n: d for n, d in self.domains}}

    @classmethod
    def from_doc(cls, doc: dict) -> "CodingSets":
        return cls.build(doc.get("domains", {}), doc.get("set_size"))


class CodedAssignment:
    """Domain-constrained targets for every key of a :class:`StripePlan`.

    ``targets[i]`` is the node that fragment ``plan.keys[i]`` *should*
    live on: the highest-HRW-ranked node of its own chain whose failure
    domain is not already used by another fragment of the same erasure
    group (and, when the CodingSets are bounded, whose node sits in the
    group's placement set).  Because targets never leave the fragment's
    own chain, the plain full-chain walk (reads, repair source search,
    evacuation) still finds every fragment — the assignment only *ranks*
    differently, it does not teleport keys.

    ``excludes[i]`` is the set of nodes a capacity spill of fragment *i*
    must avoid (other fragments' nodes plus every node sharing their
    domains).  ``set_spills`` counts fragments that had to leave their
    bounded set; ``domain_violations`` counts fragments that could not
    get a distinct domain at all (fewer live domains than fragments).
    """

    __slots__ = ("targets", "excludes", "set_spills", "domain_violations")

    def __init__(self, targets, excludes, set_spills, domain_violations):
        self.targets: tuple[str, ...] = tuple(targets)
        self.excludes: tuple[frozenset, ...] = tuple(excludes)
        self.set_spills = set_spills
        self.domain_violations = domain_violations

    def __len__(self) -> int:
        return len(self.targets)


def _assign_group(chains: list[list[str]], cs: CodingSets,
                  allowed: frozenset | None):
    """Greedy domain-distinct pick for one erasure group's fragments.

    Three-pass fallback ladder per fragment, walking its HRW chain in
    rank order: (1) unused node, unused domain, inside the bounded set;
    (2) unused node, unused domain, anywhere on the chain (counted as a
    set spill); (3) any unused node (counted as a domain violation —
    there are fewer live domains than fragments).  Deterministic: pure
    function of the chains and the snapshot.
    """
    dom = cs.domain_map
    used_nodes: set[str] = set()
    used_doms: set[str] = set()
    targets: list[str] = []
    set_spills = 0
    violations = 0
    for chain in chains:
        pick = None
        for node in chain:
            if node in used_nodes:
                continue
            d = dom.get(node)
            if d is not None:
                if d in used_doms:
                    continue
                if allowed is not None and node not in allowed:
                    continue
            pick = node
            break
        if pick is None and allowed is not None:
            set_spills += 1
            for node in chain:
                if node in used_nodes:
                    continue
                d = dom.get(node)
                if d is not None and d in used_doms:
                    continue
                pick = node
                break
        if pick is None:
            violations += 1
            for node in chain:
                if node not in used_nodes:
                    pick = node
                    break
        if pick is None:
            # Degenerate: fewer live nodes than fragments.  Reuse the
            # chain head so the fragment still lands somewhere findable.
            pick = chain[0]
        targets.append(pick)
        used_nodes.add(pick)
        d = dom.get(pick)
        if d is not None:
            used_doms.add(d)
    return targets, set_spills, violations


def _group_positions(n_stripes: int, erasure: tuple[int, int]):
    """Fragment positions (plan-key indices) of every erasure group."""
    k, m = erasure
    out = []
    for gi, (first, count) in enumerate(group_layout(n_stripes, k)):
        data = list(range(first, first + count))
        parity = [n_stripes + gi * m + j for j in range(m)]
        out.append((gi, data + parity))
    return out


def _coded_from_chains(chain_of, inode: int, n_stripes: int,
                       erasure: tuple[int, int],
                       cs: CodingSets) -> CodedAssignment:
    dom = cs.domain_map
    groups = cs.groups
    n_keys = n_stripes + len(group_layout(n_stripes, erasure[0])) \
        * erasure[1]
    targets: list[str | None] = [None] * n_keys
    excludes: list[frozenset] = [frozenset()] * n_keys
    set_spills = 0
    violations = 0
    for gi, positions in _group_positions(n_stripes, erasure):
        allowed = (frozenset(groups[cs.group_index(inode, gi)])
                   if len(groups) > 1 else None)
        chains = [chain_of(i) for i in positions]
        picks, spills, viols = _assign_group(chains, cs, allowed)
        set_spills += spills
        violations += viols
        group_doms = [dom.get(t) for t in picks]
        for slot, i in enumerate(positions):
            targets[i] = picks[slot]
            other_nodes = {t for s, t in enumerate(picks) if s != slot}
            other_doms = {d for s, d in enumerate(group_doms)
                          if s != slot and d is not None}
            banned = other_nodes | {n for n, d in cs.domains
                                    if d in other_doms}
            excludes[i] = frozenset(banned)
    return CodedAssignment(targets, excludes, set_spills, violations)


def assign_coded(plan: "StripePlan", n_stripes: int,
                 erasure: tuple[int, int],
                 cs: CodingSets) -> CodedAssignment:
    """Batch path: domain-constrained assignment over a file's plan."""
    if len(plan) != n_stripes + len(group_layout(n_stripes, erasure[0])) \
            * erasure[1]:
        raise ValueError("plan does not match n_stripes/erasure")
    return _coded_from_chains(lambda i: plan.chain(i), _inode_of(plan),
                              n_stripes, erasure, cs)


def _inode_of(plan: "StripePlan") -> int:
    # Stripe keys are ("stripe", inode, idx)-shaped tuples; recover the
    # inode from the first key so callers don't have to pass it twice.
    if not plan.keys:
        return 0
    key = plan.keys[0]
    return int(key[1])


def assign_coded_scalar(policy: "PlacementMap", inode: int, n_stripes: int,
                        erasure: tuple[int, int],
                        cs: CodingSets) -> CodedAssignment:
    """Scalar reference path (``policy.ranked`` per key) — the oracle the
    hypothesis suite pins :func:`assign_coded` against, bit for bit."""
    keys: list[Hashable] = [stripe_key(inode, i) for i in range(n_stripes)]
    k, m = erasure
    for gi, _ in enumerate(group_layout(n_stripes, k)):
        keys.extend(parity_key(inode, gi, j) for j in range(m))
    return _coded_from_chains(lambda i: policy.ranked(keys[i]),
                              inode, n_stripes, erasure, cs)


class PlacementMap:
    """Immutable two-layer placement over named node classes."""

    def __init__(self, classes: dict[str, ClassSpec]):
        if not classes:
            raise ValueError("need at least one class")
        all_nodes = [n for spec in classes.values() for n in spec.nodes]
        if len(set(all_nodes)) != len(all_nodes):
            raise ValueError("a node may belong to only one class")
        if not any(spec.nodes for spec in classes.values()):
            raise ValueError("at least one class must have nodes")
        self._classes = dict(classes)
        self._layer1 = WeightedClassHrw(
            {name: spec.weight for name, spec in classes.items()})
        self._layer2 = {name: HrwHasher(spec.nodes)
                        for name, spec in classes.items() if spec.nodes}
        self._ne_classes = [name for name, spec in classes.items()
                            if spec.nodes]
        self._ne_rows = np.asarray(
            [i for i, spec in enumerate(classes.values()) if spec.nodes],
            dtype=np.intp)
        self._plans: "OrderedDict[tuple, StripePlan]" = OrderedDict()
        self._coded: "OrderedDict[tuple, CodedAssignment]" = OrderedDict()

    # -- introspection ------------------------------------------------------------
    @property
    def classes(self) -> dict[str, ClassSpec]:
        return dict(self._classes)

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(self._classes)

    def nodes_of(self, cls: str) -> tuple[str, ...]:
        return self._classes[cls].nodes

    @property
    def all_nodes(self) -> tuple[str, ...]:
        return tuple(n for spec in self._classes.values()
                     for n in spec.nodes)

    # -- placement ---------------------------------------------------------------
    def _class_ranking_digest(self, digest: int) -> list[str]:
        sc = self._layer1.scores_digest(digest)
        order = sorted(self._classes, key=lambda c: -sc[c])
        return [c for c in order if self._classes[c].nodes]

    def class_ranking(self, key: Hashable) -> list[str]:
        """Classes by descending weighted score, skipping empty classes."""
        return self._class_ranking_digest(stable_digest(key))

    def class_of(self, key: Hashable) -> str:
        return self._class_ranking_digest(stable_digest(key))[0]

    def place(self, key: Hashable) -> str:
        """The node storing *key*'s primary copy."""
        digest = stable_digest(key)
        cls = self._class_ranking_digest(digest)[0]
        return self._layer2[cls].place_digest(digest)

    def ranked(self, key: Hashable, k: int | None = None) -> list[str]:
        """Replica / lazy-lookup chain: nodes of the winning class by
        descending HRW score, spilling into the next-ranked class if the
        winning class is smaller than *k* (paper §III-E)."""
        digest = stable_digest(key)
        out: list[str] = []
        for cls in self._class_ranking_digest(digest):
            out.extend(self._layer2[cls].ranked_digest(digest))
            if k is not None and len(out) >= k:
                return out[:k]
        return out if k is None else out[:k]

    # -- batch planning -----------------------------------------------------------
    def plan(self, keys: Sequence[Hashable],
             digests: np.ndarray | None = None) -> StripePlan:
        """Resolve the placement of *keys* in one vectorized pass."""
        if digests is None:
            digests = np.fromiter((stable_digest(k) for k in keys),
                                  dtype=np.uint64, count=len(keys))
        planner_stats.stripes_resolved += len(keys)
        return StripePlan(self, keys, digests)

    def plan_file(self, inode: int, n_stripes: int,
                  erasure: tuple[int, int] | None = None) -> StripePlan:
        """The (cached) plan for one file: all stripe keys, plus the parity
        keys of its erasure groups when *erasure* = ``(k, m)`` is set.

        Plans are memoized per policy instance; combined with policy
        interning (:meth:`from_meta`) repeated reads of a file hit a fully
        resolved plan instead of re-placing every stripe.
        """
        token = (inode, n_stripes, erasure)
        plan = self._plans.get(token)
        if plan is not None:
            self._plans.move_to_end(token)
            planner_stats.plan_hits += 1
            planner_stats.stripes_resolved += len(plan)
            return plan
        planner_stats.plan_misses += 1
        keys: list[Hashable] = [stripe_key(inode, i)
                                for i in range(n_stripes)]
        digests = np.asarray(stripe_digest_array(inode, n_stripes))
        if erasure is not None:
            k, m = erasure
            pkeys = [parity_key(inode, gi, j)
                     for gi, _ in enumerate(group_layout(n_stripes, k))
                     for j in range(m)]
            if pkeys:
                keys.extend(pkeys)
                pdig = np.fromiter((stable_digest(pk) for pk in pkeys),
                                   dtype=np.uint64, count=len(pkeys))
                digests = np.concatenate([digests, pdig])
        plan = self.plan(keys, digests)
        self._plans[token] = plan
        while len(self._plans) > _PLAN_CACHE_SIZE:
            self._plans.popitem(last=False)
        return plan

    def coded_file(self, inode: int, n_stripes: int,
                   erasure: tuple[int, int],
                   cs: CodingSets) -> CodedAssignment:
        """The (cached) domain-constrained assignment for one coded file.

        Memoized per policy instance keyed by the CodingSets snapshot, so
        repeated reads/repairs of a file under an interned policy reuse
        one assignment the way :meth:`plan_file` reuses plans.
        """
        token = (inode, n_stripes, erasure, cs.token())
        asg = self._coded.get(token)
        if asg is not None:
            self._coded.move_to_end(token)
            return asg
        plan = self.plan_file(inode, n_stripes, erasure=erasure)
        asg = assign_coded(plan, n_stripes, erasure, cs)
        self._coded[token] = asg
        while len(self._coded) > _PLAN_CACHE_SIZE:
            self._coded.popitem(last=False)
        return asg

    # -- metadata round trip --------------------------------------------------------
    def snapshot(self) -> tuple[dict[str, float], dict[str, list[str]]]:
        """(weights, members) as stored in :class:`FileMeta`."""
        weights = {c: spec.weight for c, spec in self._classes.items()}
        members = {c: list(spec.nodes) for c, spec in self._classes.items()}
        return weights, members

    def _intern_token(self) -> tuple:
        return _policy_token(*self.snapshot())

    @staticmethod
    def _intern_get(token: tuple) -> "PlacementMap | None":
        """The interned policy for *token* (counted as a hit), or None."""
        cached = _POLICY_CACHE.get(token)
        if cached is not None:
            _POLICY_CACHE.move_to_end(token)
            planner_stats.policy_hits += 1
        return cached

    @classmethod
    def _intern_put(cls, token: tuple,
                    policy: "PlacementMap") -> "PlacementMap":
        """Intern *policy* under *token* (counted as a miss)."""
        planner_stats.policy_misses += 1
        _POLICY_CACHE[token] = policy
        while len(_POLICY_CACHE) > _POLICY_CACHE_SIZE:
            _POLICY_CACHE.popitem(last=False)
        return policy

    @classmethod
    def intern(cls, policy: "PlacementMap") -> "PlacementMap":
        """The canonical shared instance for *policy*'s snapshot.

        Policies are immutable, so call sites that rebuild equal policies
        (metadata reads, eviction sweeps) can share one instance — and with
        it the per-policy plan cache.
        """
        token = policy._intern_token()
        cached = cls._intern_get(token)
        if cached is not None:
            return cached
        return cls._intern_put(token, policy)

    @classmethod
    def from_meta(cls, meta: FileMeta) -> "PlacementMap":
        """The (interned) policy a file was written under.

        Reconstruction is keyed by the metadata snapshot, so repeated
        reads/unlinks of files written under the same policy reuse one
        instance instead of rebuilding the hashers per call.
        """
        token = _policy_token(meta.class_weights, meta.class_members)
        cached = cls._intern_get(token)
        if cached is not None:
            return cached
        classes = {name: ClassSpec(meta.class_weights[name],
                                   tuple(meta.class_members[name]))
                   for name in meta.class_weights}
        return cls._intern_put(token, cls(classes))

    # -- evolution ---------------------------------------------------------------
    def with_class(self, name: str, weight: float,
                   nodes: tuple[str, ...]) -> "PlacementMap":
        classes = dict(self._classes)
        classes[name] = ClassSpec(weight, tuple(nodes))
        return PlacementMap(classes)

    def without_class(self, name: str) -> "PlacementMap":
        classes = dict(self._classes)
        if name not in classes:
            raise KeyError(name)
        del classes[name]
        return PlacementMap(classes)

    def without_node(self, node: str) -> "PlacementMap":
        """Drop one node (failure / eviction) from whichever class holds it."""
        classes = {}
        found = False
        for cname, spec in self._classes.items():
            if node in spec.nodes:
                found = True
                rest = tuple(n for n in spec.nodes if n != node)
                classes[cname] = ClassSpec(spec.weight, rest)
            else:
                classes[cname] = spec
        if not found:
            raise KeyError(node)
        return PlacementMap(classes)

    def without_nodes(self, drop) -> "PlacementMap":
        """The interned policy without every node in *drop* (a container;
        names this policy lacks are ignored).

        Equal to ``PlacementMap.intern`` of chained :meth:`without_node`
        calls, counters included, but the restricted snapshot is looked
        up before anything is built: hashers are built only on an intern
        miss.  Raises ValueError when no node is left.
        """
        weights, members = {}, {}
        dropped = False
        for cname, spec in self._classes.items():
            rest = tuple(n for n in spec.nodes if n not in drop)
            dropped = dropped or len(rest) != len(spec.nodes)
            weights[cname] = spec.weight
            members[cname] = rest
        token = _policy_token(weights, members)
        cached = self._intern_get(token)
        if cached is not None:
            return cached
        if not dropped:
            return self._intern_put(token, self)
        return self._intern_put(token, PlacementMap(
            {c: ClassSpec(weights[c], members[c]) for c in weights}))

    def reweighted(self, weights: dict[str, float]) -> "PlacementMap":
        classes = {c: ClassSpec(weights.get(c, spec.weight), spec.nodes)
                   for c, spec in self._classes.items()}
        return PlacementMap(classes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{c}({len(s.nodes)}n,w={s.weight:.3g})"
                          for c, s in self._classes.items())
        return f"<PlacementMap {parts}>"

