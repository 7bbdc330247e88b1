"""Declarative scenario descriptions with stable content fingerprints.

A :class:`ScenarioSpec` names one independent simulation: an experiment
*kind* (registered in :mod:`repro.exec.scenarios`), the
:class:`~repro.core.deployment.DeploymentConfig` it deploys, free-form
workload parameters, and an optional seed override.  Specs are frozen,
hashable, and picklable (they cross the spawn boundary of the stealing
backend), and hash to a *content fingerprint* — the canonical-JSON SHA-256
of every field — which, salted with the running code version, addresses
the on-disk result store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any

from ..core.deployment import DeploymentConfig

__all__ = ["ScenarioSpec"]


def _freeze(value: Any) -> Any:
    """Normalize a parameter value into a hashable, order-stable form."""
    if isinstance(value, dict):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(v) for v in value))
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"unsupported scenario parameter type: {type(value)!r}")


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` for JSON rendering: pair-tuples back to
    dicts, other tuples to lists."""
    if isinstance(value, tuple):
        if value and all(isinstance(p, tuple) and len(p) == 2
                         and isinstance(p[0], str) for p in value):
            return {k: _thaw(v) for k, v in value}
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One independent simulation, described by value.

    ``seed`` of ``None`` defers to ``config.seed``; an integer overrides
    it, which is how sweeps give every scenario its own deterministic
    stream without building one config per point.
    """

    kind: str
    config: DeploymentConfig | None = None
    params: tuple = ()
    seed: int | None = None

    @classmethod
    def make(cls, kind: str, config: DeploymentConfig | None = None,
             seed: int | None = None, **params: Any) -> "ScenarioSpec":
        """Build a spec from keyword parameters (dicts/lists allowed —
        they are normalized into order-stable tuples)."""
        frozen = tuple(sorted((name, _freeze(value))
                              for name, value in params.items()))
        return cls(kind=kind, config=config, params=frozen, seed=seed)

    # -- parameter access ---------------------------------------------------------
    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return _thaw(value)
        return default

    def param_dict(self) -> dict[str, Any]:
        return {key: _thaw(value) for key, value in self.params}

    def deployment_config(self) -> DeploymentConfig:
        """The config this scenario deploys, seed override applied."""
        cfg = self.config if self.config is not None else DeploymentConfig()
        if self.seed is not None and self.seed != cfg.seed:
            cfg = dataclasses.replace(cfg, seed=self.seed)
        return cfg

    # -- identity -----------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """Canonical JSON-safe rendering (the fingerprint input)."""
        config = (None if self.config is None
                  else dataclasses.asdict(self.config))
        return {"kind": self.kind, "seed": self.seed, "config": config,
                "params": self.param_dict()}

    def spec_key(self) -> str:
        """Content hash of the spec alone (no code-version salt) — the
        store's stable address for *this scenario* across code versions."""
        blob = json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def fingerprint(self, salt: str = "") -> str:
        """Content fingerprint of spec + code-version *salt*: two specs
        (or code versions) agree on it iff their payloads must agree."""
        blob = json.dumps({"salt": salt, "spec": self.as_dict()},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def cost_hint(self) -> float:
        """Coarse relative runtime hint for scheduling, unitless.

        Used by the work-stealing scheduler to order a *cold* queue
        longest-expected-first when no measured estimate exists yet
        (warm queues use the store's recorded wall times instead).  The
        hint only has to rank specs of one sweep against each other, so
        it multiplies the parameters that dominate simulated work:
        task-bag size × file size for dd-style scenarios, cluster scale
        squared (the solver's component sizes grow with the fabric),
        and tenant-suite scale.  Specs with none of these tie at 1.0
        and keep spec order.
        """
        hint = 1.0
        n_tasks = self.param("n_tasks")
        if n_tasks is not None:
            hint *= float(n_tasks)
        file_size = self.param("file_size")
        if file_size is not None:
            hint *= float(file_size) / 2 ** 20
        suite_scale = self.param("suite_scale")
        if suite_scale is not None:
            hint *= float(suite_scale)
        if self.config is not None and self.config.scale > 1:
            hint *= float(self.config.scale) ** 2
        return hint

    def label(self) -> str:
        """Short human-readable tag for logs and errors."""
        alpha = self.param("alpha")
        bits = [self.kind] + [f"{k}={v}" for k, v in (
            ("alpha", alpha), ("suite", self.param("suite")),
            ("workload", self.param("workload"))) if v is not None]
        return ":".join(str(b) for b in bits)
