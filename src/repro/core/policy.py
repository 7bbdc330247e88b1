"""The unified placement policy: every placement knob in one object.

A :class:`PlacementPolicy` holds every setting that steers placement:
named node classes with *target data fractions* (or explicit HRW
weights) and the redundancy policy (replication or erasure coding).  It
is the one placement setting of a
deployment: :attr:`~repro.core.deployment.DeploymentConfig.policy` is
always set and defaults to the paper's ``own_victim(0.25)`` split.  It
is frozen, hashable and picklable, so it rides inside
:class:`~repro.core.deployment.DeploymentConfig` across the process-pool
spawn boundary and into scenario fingerprints unchanged.

The policy is *declarative*: it names classes and targets but no concrete
nodes.  :meth:`PlacementPolicy.materialize` binds it to a membership map
and returns the runtime :class:`~repro.fs.placement.PlacementMap`.

Fractions become weights through the two-class closed form (bit-identical
to :func:`repro.hashing.own_victim_weights`) or the
:func:`repro.hashing.calibrate_weights` numeric fit for three classes
and up.  The market controller (:mod:`repro.market`) retunes placement
by *retargeting* a policy each epoch and diffing the resulting stripe
plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from ..fs.placement import ClassSpec, PlacementMap
from ..hashing import calibrate_weights

__all__ = ["ClassTarget", "PlacementPolicy"]

#: Tolerance for "fractions sum to one" validation.
_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ClassTarget:
    """One class's share of the data: a target *fraction* (converted to an
    HRW weight by calibration) or an explicit *weight* (used verbatim).
    Exactly one of the two must be set."""

    fraction: float | None = None
    weight: float | None = None

    def __post_init__(self):
        if (self.fraction is None) == (self.weight is None):
            raise ValueError("set exactly one of fraction / weight")
        if self.fraction is not None and not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], "
                             f"got {self.fraction}")
        if self.weight is not None and self.weight < 0.0:
            raise ValueError("weight must be >= 0")


@dataclass(frozen=True)
class PlacementPolicy:
    """Frozen, picklable description of a placement regime.

    ``classes`` is an *ordered* tuple of ``(name, ClassTarget)`` pairs —
    order matters because the two-class closed form and the calibration
    fit are keyed on it, and because deployments materialize classes in
    declaration order.  Build one with :meth:`make` (dict-friendly) or
    :meth:`own_victim` (the paper's two-class split).
    """

    classes: tuple[tuple[str, ClassTarget], ...]
    replication: int = 1
    erasure: tuple[int, int] | None = None

    def __post_init__(self):
        if not self.classes:
            raise ValueError("need at least one class")
        names = [name for name, _ in self.classes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate class names")
        for name, target in self.classes:
            if not isinstance(target, ClassTarget):
                raise TypeError(f"class {name!r}: expected ClassTarget, "
                                f"got {type(target).__name__}")
        fracs = [t.fraction for _, t in self.classes]
        if any(f is not None for f in fracs):
            if any(f is None for f in fracs):
                raise ValueError("mix of fraction- and weight-targeted "
                                 "classes; pick one scheme")
            if abs(sum(fracs) - 1.0) > _SUM_TOL:
                raise ValueError("target fractions must sum to 1")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.erasure is not None:
            k, m = self.erasure
            if k < 1 or m < 1:
                raise ValueError("erasure (k, m) must both be >= 1")

    # -- construction -------------------------------------------------------------
    @classmethod
    def make(cls, classes: Mapping[str, float | ClassTarget], *,
             replication: int = 1, erasure: tuple[int, int] | None = None,
             ) -> "PlacementPolicy":
        """Build a policy from ``{name: fraction}`` (floats are target
        fractions) or ``{name: ClassTarget(...)}`` for explicit weights."""
        pairs = tuple(
            (name, t if isinstance(t, ClassTarget)
             else ClassTarget(fraction=float(t)))
            for name, t in classes.items())
        return cls(classes=pairs, replication=replication, erasure=erasure)

    @classmethod
    def own_victim(cls, alpha: float, **kwargs) -> "PlacementPolicy":
        """The paper's split: fraction *alpha* on own nodes, the rest on
        scavenged victims."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        return cls.make({"own": alpha, "victim": 1.0 - alpha}, **kwargs)

    # -- introspection ------------------------------------------------------------
    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.classes)

    @property
    def by_fraction(self) -> bool:
        """True when classes are targeted by data fraction (calibrated)."""
        return self.classes[0][1].fraction is not None

    def fractions(self) -> dict[str, float]:
        """Target data fraction per class (fraction-targeted policies)."""
        if not self.by_fraction:
            raise ValueError("policy uses explicit weights, not fractions")
        return {name: t.fraction for name, t in self.classes}

    def target(self, name: str) -> ClassTarget:
        for cname, t in self.classes:
            if cname == name:
                return t
        raise KeyError(name)

    @property
    def alpha(self) -> float | None:
        """The ``own`` fraction, when this is an own/victim-style policy."""
        for cname, t in self.classes:
            if cname == "own" and t.fraction is not None:
                return t.fraction
        return None

    # -- weights ------------------------------------------------------------------
    def weights(self) -> dict[str, float]:
        """HRW class weights realizing the targets.

        Explicit-weight policies return their weights verbatim.
        Fraction-targeted policies go through
        :func:`repro.hashing.calibrate_weights`: the closed form for two
        classes (bit-identical to ``own_victim_weights(alpha)``) and the
        numeric fit for three and up.
        """
        if not self.by_fraction:
            return {name: t.weight for name, t in self.classes}
        if len(self.classes) == 1:
            return {self.classes[0][0]: 0.0}
        return calibrate_weights(self.fractions())

    # -- materialization ----------------------------------------------------------
    def materialize(self, members: Mapping[str, Sequence[str]],
                    ) -> PlacementMap:
        """Bind the policy to concrete nodes: the runtime
        :class:`~repro.fs.placement.PlacementMap` over the classes present
        in *members* (classes without members yet — e.g. victims before
        any lease lands — are simply omitted, matching how deployments
        grow the victim class through the scavenger).  Not interned here:
        consumers like :class:`~repro.fs.memfss.MemFSS` intern on intake,
        exactly as they did for hand-built maps."""
        weights = self.weights()
        classes = {name: ClassSpec(weights[name],
                                   tuple(members[name]))
                   for name, _ in self.classes if name in members}
        return PlacementMap(classes)

    # -- evolution ----------------------------------------------------------------
    def retargeted(self, fractions: Mapping[str, float],
                   ) -> "PlacementPolicy":
        """A new policy with the given target fractions (every class must
        be covered; the vector must sum to 1)."""
        missing = set(self.class_names) - set(fractions)
        extra = set(fractions) - set(self.class_names)
        if missing or extra:
            raise ValueError(f"fraction vector mismatch: missing={missing}, "
                             f"unknown={extra}")
        pairs = tuple((name, ClassTarget(fraction=float(fractions[name])))
                      for name, _ in self.classes)
        return replace(self, classes=pairs)

    def with_fraction(self, name: str, fraction: float) -> "PlacementPolicy":
        """Set one class's fraction, rescaling the others proportionally
        so the vector still sums to 1 (two-class: the classic α flip)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        current = self.fractions()
        if name not in current:
            raise KeyError(name)
        rest = {c: f for c, f in current.items() if c != name}
        rest_sum = sum(rest.values())
        remaining = 1.0 - fraction
        out = {name: fraction}
        if not rest:
            if not math.isclose(fraction, 1.0):
                raise ValueError("single-class policy must keep fraction 1")
        elif rest_sum <= _SUM_TOL:
            # Degenerate: split the remainder evenly.
            for c in rest:
                out[c] = remaining / len(rest)
        else:
            for c, f in rest.items():
                out[c] = f * remaining / rest_sum
        return self.retargeted(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{name}={t.fraction:.3g}" if t.fraction is not None
            else f"{name}:w={t.weight:.3g}"
            for name, t in self.classes)
        return f"<PlacementPolicy {parts}>"
