"""Shared machinery for the paper-reproduction benchmarks.

Each ``bench_*`` file regenerates one table or figure.  Experiments run at
a *reduced but shape-preserving* scale (documented per bench): background
workflows keep the paper's per-second traffic intensity but loop smaller
bags, and tenant benchmarks shrink proportionally (slowdown ratios are
scale-free).

The expensive sweeps (Fig. 2, the Fig. 3-6 slowdown tables, Table II /
Fig. 7) run through one :class:`~repro.exec.ResultStore` under
``.repro-store/`` (``REPRO_STORE_DIR`` overrides), salted by the code
version: a warm re-run simulates nothing, and any edit under
``src/repro`` re-simulates instead of serving a stale result.  Every
bench publishes its numbers with :func:`write_result` as JSON under
``benchmarks/results`` — artifacts for EXPERIMENTS.md and CI uploads,
never read back.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core import DeploymentConfig
from repro.exec import ResultStore, slowdown_sweep
from repro.units import MB

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Worker processes for the slowdown fan-out (the baseline and each
#: workload run are independent scenarios); serial by default so bench
#: wall times stay comparable across machines.
BENCH_JOBS = int(os.environ.get("BENCH_JOBS", "1"))

#: Tenant input scales used by the benches (slowdown ratios are
#: scale-free; smaller inputs just shorten the wall time).
HPCC_SCALE = 0.4
HIBENCH_SCALE = 0.4

_SUITE_SCALES = {"hpcc": HPCC_SCALE, "hibench-hadoop": HIBENCH_SCALE,
                 "hibench-spark": HIBENCH_SCALE}


def write_result(key: str, data: dict) -> None:
    """Publish *data* as ``results/<key>.json`` (write-only artifact)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{key}.json").write_text(
        json.dumps(data, indent=2, sort_keys=True))


def _suite_config(alpha: float) -> DeploymentConfig:
    # 64 MB stripes halve the event rate of the background loop; the
    # interference channels integrate store *bytes*, so slowdowns are
    # insensitive to the stripe size (see bench_ablation_stripe).
    return DeploymentConfig(alpha=alpha, stripe_size=64 * MB)


def slowdown_table(suite: str, alpha: float,
                   workloads: tuple[str, ...] = ("Montage", "BLAST", "dd"),
                   ) -> dict:
    """Slowdowns of every benchmark in *suite* under each workload.

    Returns ``{"baseline": {...}, "slowdowns": {workload: {bench: pct}}}``
    and publishes it as ``results/slowdown-<suite>-alpha<n>.json``.  The
    baseline and per-workload runs are independent scenarios fanned out
    through :func:`repro.exec.slowdown_sweep` over the shared result
    store (``BENCH_JOBS=N`` runs them on N worker processes,
    byte-identically).
    """
    t0 = time.time()
    sweep = slowdown_sweep(_suite_config(alpha), suite,
                           _SUITE_SCALES[suite], workloads=workloads,
                           warmup=30.0, jobs=BENCH_JOBS,
                           cache=ResultStore())
    baseline = sweep[None]
    out: dict = {"suite": suite, "alpha": alpha, "baseline": baseline,
                 "slowdowns": {}}
    for wl in workloads:
        loaded = sweep[wl]
        out["slowdowns"][wl] = {
            bench: (loaded[bench] / baseline[bench] - 1.0) * 100.0
            for bench in baseline}
    out["wall_seconds"] = time.time() - t0
    write_result(f"slowdown-{suite}-alpha{int(alpha * 100)}", out)
    return out
