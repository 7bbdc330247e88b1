"""The benchmark's workloads: user paths through the program's public
entry points, run as a closed loop of cells in this one process.

* ``fig2_sweep`` — the Fig. 2 dd-bag α sweep through ``run_scenario``,
  plus one α = 0.25 cell on the ×64 DAS-5 (4352 nodes).
* ``plan_hpcc_montage`` — a cold ``plan_capacity`` for one HPCC tenant
  under Montage through a serial ``SweepRunner`` over a ``ResultStore``
  in a fresh directory, then the same plan again, warm.
* ``storm_repair`` — ``exec.availability.run_point`` over the three
  redundancy postures × several storm seeds at scale ×4.

A workload's seed reaches the program only through the specs it builds
(``DeploymentConfig.seed``, the storm seeds).  Every cell's output is
reduced to a canonical-JSON digest; :class:`Pass` compares it against
the shipped reference for that seed and checks the workload's
invariants, counting any mismatch or exception as a failed cell.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import replace

from repro.core.deployment import DeploymentConfig
from repro.exec.availability import MODES, run_point
from repro.exec.planner import plan_capacity
from repro.exec.runner import SweepRunner
from repro.exec.scenarios import fig2_spec, run_scenario
from repro.exec.store import ResultStore
from repro.units import GB, MB

__all__ = ["WORKLOADS", "SIZES", "Pass", "digest"]

#: The five data splits of Fig. 2 (fraction of data on own nodes).
FIG2_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
#: Fig. 2 runtimes tie at α ≤ 0.5 (a documented paper deviation); the
#: monotonicity invariant tolerates that much relative dip.
FIG2_TIE_TOL = 0.01

#: Cell sizes.  ``full`` is what the benchmark measures; ``tiny`` keeps
#: the self-test fast while driving the same code paths.
SIZES = {
    "full": {
        "fig2_tasks": 64, "fig2_file": 1 * GB,
        "x64_tasks": 64, "x64_file": 128 * MB,
        "plan_width": 24, "plan_warmup": 10.0, "plan_bound_pct": 0.5,
        "storm_seeds": 12, "storm_scale": 4,
    },
    "tiny": {
        "fig2_tasks": 32, "fig2_file": 128 * MB,
        "x64_tasks": 4, "x64_file": 32 * MB,
        "plan_width": 8, "plan_warmup": 10.0, "plan_bound_pct": 0.3,
        "storm_seeds": 1, "storm_scale": 1,
    },
}

#: The CLI's ``memfss plan`` deployment (8 own + 32 victims).
PLAN_OWN, PLAN_VICTIMS = 8, 32
PLAN_MIX = {"hpcc": 1}
#: Three grid points so the binary search must probe the interior one:
#: each size's bound sits between its slowdowns at α = 0 and α = 1.
PLAN_GRID = (0.0, 0.5, 1.0)
#: Montage's preset shape, narrowed so one loaded cell takes seconds.
PLAN_MONTAGE = {"width": 96, "compute_scale": 0.02,
                "parallel_task_scale": 2.0}

STORM_FRACTION = 0.17       # one tenant domain of six
#: Fields of a plan report that record provenance (how many scenarios
#: ran) rather than the answer; a warm re-plan differs only in these.
PLAN_PROVENANCE = ("simulated", "simulations_run")


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=True).encode()


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj)).hexdigest()[:32]


def _strip(obj, keys):
    if isinstance(obj, dict):
        return {k: _strip(v, keys) for k, v in obj.items() if k not in keys}
    if isinstance(obj, list):
        return [_strip(v, keys) for v in obj]
    return obj


class Pass:
    """One pass of a workload: its cells, their digests and failures.

    *reference* maps cell name → expected digest for this seed (empty
    for seeds without one).  *after_cell(name)* runs after every cell,
    raised or not — the harness harvests counters there.  ``spans``
    holds each cell's start and end in host time.
    """

    def __init__(self, reference: dict[str, str], after_cell=None):
        self.reference = reference
        self.after_cell = after_cell
        self.digests: dict[str, str | None] = {}
        self.spans: dict[str, tuple[float, float]] = {}
        self.failed: set[str] = set()

    def cell(self, name: str, fn):
        """Run one cell; returns its output, or None if it raised."""
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:
            print(f"cell {name} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            self.digests[name] = None
            self.failed.add(name)
            return None
        finally:
            self.spans[name] = (t0, time.perf_counter())
            if self.after_cell is not None:
                self.after_cell(name)
        d = self.digests[name] = digest(out)
        want = self.reference.get(name)
        if want is not None and want != d:
            print(f"cell {name}: output digest {d} != reference {want}",
                  file=sys.stderr)
            self.failed.add(name)
        return out

    def check(self, name: str, ok: bool, why: str) -> None:
        if not ok:
            print(f"cell {name}: invariant broken: {why}", file=sys.stderr)
            self.failed.add(name)

    @property
    def attempted(self) -> int:
        return len(self.digests)


def fig2_sweep(p: Pass, seed: int, size: dict) -> None:
    cfg = DeploymentConfig(seed=seed)
    prev = None
    for alpha in FIG2_ALPHAS:
        name = f"alpha={alpha}"
        out = p.cell(name, lambda: run_scenario(fig2_spec(
            alpha, n_tasks=size["fig2_tasks"], file_size=size["fig2_file"],
            config=cfg)))
        if out is None:
            prev = None
            continue
        runtime = out["runtime_s"]
        if prev is not None:
            p.check(name, runtime >= prev * (1.0 - FIG2_TIE_TOL),
                    f"runtime {runtime} fell below {prev} at the previous α")
        prev = runtime
    # The paper's 68-node setup (8 own + 60 victims) scaled ×64.
    big = replace(cfg, n_victim=60, scale=64)
    p.cell("x64-alpha=0.25", lambda: run_scenario(fig2_spec(
        0.25, n_tasks=size["x64_tasks"], file_size=size["x64_file"],
        config=big)))


def plan_hpcc_montage(p: Pass, seed: int, size: dict, workdir: str) -> None:
    root = tempfile.mkdtemp(prefix="store-", dir=workdir)
    try:
        runner = SweepRunner(backend="serial", cache=ResultStore(root))
        cfg = DeploymentConfig(n_own=PLAN_OWN, n_victim=PLAN_VICTIMS,
                               seed=seed)
        kwargs = dict(PLAN_MONTAGE, width=size["plan_width"])

        def plan():
            return plan_capacity(
                PLAN_MIX, bound_pct=size["plan_bound_pct"],
                workload="montage", workload_kwargs=kwargs,
                alpha_grid=PLAN_GRID, config=cfg,
                warmup=size["plan_warmup"], runner=runner)

        cold = p.cell("plan-cold", plan)
        if cold is not None:
            probed = {ev["alpha"] for ev in cold["evaluations"]}
            p.check("plan-cold", bool(probed - {PLAN_GRID[0], PLAN_GRID[-1]}),
                    f"binary search probed only {sorted(probed)}")
        warm = p.cell("plan-warm", plan)
        if warm is not None:
            p.check("plan-warm", warm["simulations_run"] == 0,
                    f"warm re-plan ran {warm['simulations_run']} "
                    f"simulations")
            p.check("plan-warm", cold is not None and
                    canonical(_strip(warm, PLAN_PROVENANCE))
                    == canonical(_strip(cold, PLAN_PROVENANCE)),
                    "warm report differs from the cold one")
    finally:
        shutil.rmtree(root, ignore_errors=True)


def storm_repair(p: Pass, seed: int, size: dict) -> None:
    n = size["storm_seeds"]
    for mode in MODES:
        for storm_seed in range(seed * n, seed * n + n):
            name = f"{mode}-s{storm_seed}"
            out = p.cell(name, lambda: run_point(
                mode, storm_seed, scale=size["storm_scale"],
                storm_fraction=STORM_FRACTION))
            if out is not None and mode == "ec_groups":
                p.check(name, out["files_lost"] == 0
                        and out["pre_storm_lost"] == 0,
                        f"lost {out['files_lost']} files "
                        f"({out['pre_storm_lost']} before the storm)")


#: name -> pass function; ``plan_hpcc_montage`` also takes a work dir.
WORKLOADS = {
    "fig2_sweep": fig2_sweep,
    "plan_hpcc_montage": plan_hpcc_montage,
    "storm_repair": storm_repair,
}
