"""Scientific-workflow DAG model (paper §II-A).

Workflows are "applications composed of many tasks linked through data
dependencies ... typically described by directed acyclic graphs".  Tasks
communicate through *files*: a task is ready when every task producing one
of its input files has completed.  Tasks carry a compute demand
(core-seconds at a core width) and file I/O specs; the engine turns these
into simulator resource demands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["FileSpec", "Task", "Workflow", "CycleError"]


class CycleError(ValueError):
    """The task graph has a cycle (not a DAG)."""


@dataclass(frozen=True)
class FileSpec:
    """One logical file a task reads or writes.

    ``n_files > 1`` marks a *bundle*: one logical file standing for many
    small application files of the same aggregate size (Montage writes
    thousands of 1-4 MB files; simulating each individually would be
    needless event-count without changing any byte flow — the request count
    is preserved through the store's batch accounting).
    """

    path: str
    nbytes: float = 0.0
    n_files: int = 1

    def __post_init__(self):
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.n_files < 1:
            raise ValueError("n_files must be >= 1")


@dataclass
class Task:
    """One workflow task."""

    id: str
    stage: str
    compute_seconds: float = 0.0     # total core-seconds of work
    cores: int = 1                   # maximum width of the compute
    inputs: tuple[FileSpec, ...] = ()
    outputs: tuple[FileSpec, ...] = ()
    extra_deps: tuple[str, ...] = ()  # control dependencies (task ids)
    # > 1 interleaves input reads with compute in that many slices — the
    # streaming-I/O pattern of BLAST-style tasks that read their database
    # throughout the computation instead of staging it up front.
    io_slices: int = 1

    def __post_init__(self):
        if self.compute_seconds < 0:
            raise ValueError(f"{self.id}: compute_seconds must be >= 0")
        if self.cores < 1:
            raise ValueError(f"{self.id}: cores must be >= 1")
        if self.io_slices < 1:
            raise ValueError(f"{self.id}: io_slices must be >= 1")

    @property
    def input_bytes(self) -> float:
        return sum(f.nbytes for f in self.inputs)

    @property
    def output_bytes(self) -> float:
        return sum(f.nbytes for f in self.outputs)


class Workflow:
    """A validated task DAG with file-dependency resolution."""

    def __init__(self, name: str, tasks: Iterable[Task]):
        self.name = name
        self.tasks: dict[str, Task] = {}
        for t in tasks:
            if t.id in self.tasks:
                raise ValueError(f"duplicate task id {t.id!r}")
            self.tasks[t.id] = t
        self._producer: dict[str, str] = {}
        for t in self.tasks.values():
            for f in t.outputs:
                if f.path in self._producer:
                    raise ValueError(
                        f"{f.path!r} produced by both "
                        f"{self._producer[f.path]!r} and {t.id!r}")
                self._producer[f.path] = t.id
        self._deps: dict[str, frozenset[str]] = {}
        for t in self.tasks.values():
            deps = set(t.extra_deps)
            for f in t.inputs:
                prod = self._producer.get(f.path)
                if prod is not None and prod != t.id:
                    deps.add(prod)
            unknown = deps - self.tasks.keys()
            if unknown:
                raise ValueError(f"{t.id}: unknown dependencies {unknown}")
            self._deps[t.id] = frozenset(deps)
        self._check_acyclic()

    # -- structure -------------------------------------------------------------
    def dependencies(self, task_id: str) -> frozenset[str]:
        return self._deps[task_id]

    def producer_of(self, path: str) -> str | None:
        return self._producer.get(path)

    def consumers_of(self, path: str) -> list[str]:
        return [t.id for t in self.tasks.values()
                if any(f.path == path for f in t.inputs)]

    def external_inputs(self) -> list[str]:
        """Paths read by some task but produced by none (staged-in data)."""
        read = {f.path for t in self.tasks.values() for f in t.inputs}
        return sorted(read - self._producer.keys())

    def stages(self) -> list[str]:
        """Stage names in first-appearance order."""
        seen: list[str] = []
        for t in self.tasks.values():
            if t.stage not in seen:
                seen.append(t.stage)
        return seen

    def stage_tasks(self, stage: str) -> list[Task]:
        return [t for t in self.tasks.values() if t.stage == stage]

    def _check_acyclic(self) -> None:
        order = self.topological_order()
        if len(order) != len(self.tasks):
            raise CycleError(f"workflow {self.name!r} has a cycle")

    def topological_order(self) -> list[str]:
        indeg = {tid: len(deps) for tid, deps in self._deps.items()}
        rdeps: dict[str, list[str]] = {tid: [] for tid in self.tasks}
        for tid, deps in self._deps.items():
            for d in deps:
                rdeps[d].append(tid)
        ready = sorted(tid for tid, d in indeg.items() if d == 0)
        out: list[str] = []
        while ready:
            tid = ready.pop(0)
            out.append(tid)
            for succ in sorted(rdeps[tid]):
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        return out

    # -- aggregate metrics ----------------------------------------------------------
    @property
    def total_compute_seconds(self) -> float:
        return sum(t.compute_seconds for t in self.tasks.values())

    @property
    def total_output_bytes(self) -> float:
        return sum(t.output_bytes for t in self.tasks.values())

    def critical_path_seconds(self) -> float:
        """Longest chain of compute time through the DAG (I/O excluded)."""
        finish: dict[str, float] = {}
        for tid in self.topological_order():
            t = self.tasks[tid]
            start = max((finish[d] for d in self._deps[tid]), default=0.0)
            finish[tid] = start + t.compute_seconds / t.cores
        return max(finish.values(), default=0.0)

    def __len__(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workflow {self.name}: {len(self.tasks)} tasks>"
