"""Command-line entry point: run any of the paper's experiments.

::

    memfss fig2   [--tasks 256] [-j N] [--no-cache]
    memfss fig3   [--alpha 0.25] [--workload dd] [-j N] [--no-cache]
    memfss fig4   [--alpha 0.25] [--workload dd] [-j N] [--no-cache]
    memfss fig5   [--workload dd] [-j N] [--no-cache]
    memfss table2 [--scale 8] [-j N] [--no-cache]
    memfss table1
    memfss plan   --hpcc 3 --bound 5 [--workload dd] [-j N] [--out plan.json]

Each command prints the corresponding table or series as text.  Every
figure is a sweep of independent simulations, so ``-j/--jobs N`` fans
them out over N work-stealing worker processes (byte-identical to the
serial run), and results are kept in the content-addressed result store
under ``.repro-store/`` (override with ``REPRO_STORE_DIR``;
``--no-cache`` bypasses it), salted by the code version, so a warm
re-run is near-instant and a code change re-simulates.  ``plan`` is the
what-if capacity planner: it binary-searches the smallest own-fraction
α whose tenant mix stays under a slowdown bound, over the same store,
so a warm store answers without simulating.  ``--profile`` wraps the
command in cProfile, leaving ``results/profile-<cmd>.pstats``/``.txt``
for perf work.  The benchmark suite under ``benchmarks/`` runs the same
experiments with shape assertions; the CLI is the quick interactive way
to poke at one scenario.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path

from .core import (DeploymentConfig, baseline_sweep, normalized)
from .core.slowdown import SlowdownResult
from .data import TABLE_I
from .exec import (ResultStore, consumption_specs, run_consumption_points,
                   slowdown_sweep)
from .metrics import render_table
from .units import GB, MB
from .workflows import MONTAGE_PAPER_WIDTH

#: Scavenging workloads at CLI scale: name → (builder name, kwargs),
#: resolved by the scenario executor (specs carry names, not callables).
WORKLOADS = {
    "montage": ("montage", {"width": 96, "compute_scale": 0.02,
                            "parallel_task_scale": 2.0}),
    "blast": ("blast", {"n_searches": 256, "split_seconds": 10.0,
                        "search_seconds": 60.0}),
    "dd": ("dd", {"n_tasks": 128, "file_size": 128 * MB}),
}


def _cache_from(args) -> ResultStore | None:
    return ResultStore() if getattr(args, "cache", False) else None


def _profiled(handler, args) -> int:
    """Run *handler* under cProfile; write pstats + a top-20 table.

    Artifacts land in ``results/`` next to the benchmark result JSONs:
    ``profile-<command>.pstats`` (load with :mod:`pstats`) and
    ``profile-<command>.txt`` (top 20 by cumulative time).
    """
    prof = cProfile.Profile()
    rc = prof.runcall(handler, args)
    out = Path("results")
    out.mkdir(exist_ok=True)
    base = out / f"profile-{args.command}"
    stats = pstats.Stats(prof)
    stats.dump_stats(str(base.with_suffix(".pstats")))
    buf = io.StringIO()
    stats.stream = buf
    stats.sort_stats("cumulative").print_stats(20)
    base.with_suffix(".txt").write_text(buf.getvalue())
    print(f"profile written: {base.with_suffix('.pstats')} and "
          f"{base.with_suffix('.txt')} (top 20 cumulative)")
    return rc


def cmd_table1(_args) -> int:
    rows = [[r.study,
             "N/A" if r.cpu == (None, None) else f"<= {r.cpu[1] * 100:.0f}%",
             "N/A" if r.memory == (None, None)
             else f"<= {r.memory[1] * 100:.0f}%",
             "N/A" if r.network == (None, None)
             else f"<= {r.network[1] * 100:.0f}%",
             r.note]
            for r in TABLE_I]
    print(render_table(["Study", "CPU", "Memory", "Network", "Note"], rows,
                       title="Table I (survey data)"))
    return 0


def cmd_fig2(args) -> int:
    metrics = baseline_sweep(n_tasks=args.tasks, file_size=128 * MB,
                             config=DeploymentConfig(),
                             jobs=args.jobs, cache=_cache_from(args))
    rows = [[f"{m.alpha * 100:.0f}%", f"{m.runtime_s:.2f} s",
             f"{m.own_cpu * 100:.1f}%", f"{m.victim_cpu * 100:.2f}%",
             f"{m.victim_rx_bytes_s / MB:.0f} MB/s"]
            for m in metrics]
    print(render_table(["alpha", "runtime", "own CPU", "victim CPU",
                        "victim ingest"], rows,
                       title=f"Fig. 2 baseline ({args.tasks} dd tasks)"))
    return 0


def _slowdown(args, suite: str, suite_scale: float, title: str) -> int:
    config = DeploymentConfig().with_alpha(args.alpha)
    builder, kwargs = WORKLOADS[args.workload]
    sweep = slowdown_sweep(config, suite, suite_scale,
                           workloads=(builder,), workload_kwargs=kwargs,
                           warmup=45.0, jobs=args.jobs,
                           cache=_cache_from(args))
    baseline, loaded = sweep[None], sweep[builder]
    results = [SlowdownResult(b, baseline[b], loaded[b]) for b in baseline]
    rows = [[r.benchmark, f"{r.baseline_s:.1f} s", f"{r.loaded_s:.1f} s",
             f"{r.slowdown_pct:.2f}%"]
            for r in results]
    print(render_table(["benchmark", "baseline", "scavenged", "slowdown"],
                       rows, title=title))
    return 0


def cmd_fig3(args) -> int:
    return _slowdown(args, "hpcc", 0.5,
                     f"Fig. 3: HPCC under {args.workload}, "
                     f"alpha={args.alpha}")


def cmd_fig4(args) -> int:
    return _slowdown(args, "hibench-hadoop", 1.0,
                     f"Fig. 4: HiBench Hadoop under {args.workload}, "
                     f"alpha={args.alpha}")


def cmd_fig5(args) -> int:
    args.alpha = 0.5
    return _slowdown(args, "hibench-spark", 1.0,
                     f"Fig. 5: HiBench Spark under {args.workload}, "
                     "alpha=0.5")


def cmd_table2(args) -> int:
    scale = args.scale
    width = MONTAGE_PAPER_WIDTH // scale
    own_cap = 60 * GB / scale
    vic_mem = 28 * GB / scale
    specs = consumption_specs(
        "montage", {"width": width, "parallel_task_scale": float(scale)},
        standalone_nodes=(20, 19), scavenging_own=(4, 8, 16),
        total_nodes=40, victim_memory=vic_mem,
        own_store_capacity=own_cap)
    points = run_consumption_points(specs, jobs=args.jobs,
                                    cache=_cache_from(args))
    rows = []
    for p in points:
        if not p.fits:
            cell = p.degraded.render() if p.degraded else "unable to run"
            rows.append([p.label, str(p.n_nodes), cell, "-"])
        else:
            rows.append([p.label, str(p.n_nodes), f"{p.runtime_s:.0f} s",
                         f"{p.node_hours:.2f}"])
    print(render_table(["run", "own nodes", "runtime", "node-hours"], rows,
                       title=f"Table II (data scale 1/{scale})"))
    base = points[0]
    for row in normalized([p for p in points if p.fits], base):
        print(f"  {row['label']}: runtime x{row['norm_runtime']:.3f}, "
              f"node-hours x{row['norm_node_hours']:.3f}")
    return 0


def cmd_plan(args) -> int:
    """What-if capacity planning over the persistent result store."""
    import json

    from .exec import SweepRunner, plan_capacity

    mix = {"hpcc": args.hpcc, "hibench-hadoop": args.hadoop,
           "hibench-spark": args.spark}
    if not any(n > 0 for n in mix.values()):
        print("empty job mix: give at least one of --hpcc/--hadoop/"
              "--spark a positive count", file=sys.stderr)
        return 2
    builder, kwargs = WORKLOADS[args.workload]
    store = ResultStore(max_bytes=args.store_bytes)
    runner = SweepRunner(jobs=args.jobs, cache=store)
    config = DeploymentConfig(n_own=args.own, n_victim=args.victims)
    report = plan_capacity(
        mix, bound_pct=args.bound, workload=builder,
        workload_kwargs=kwargs, alpha_grid=tuple(args.grid),
        config=config, warmup=45.0, runner=runner)
    rows = [[f"{ev['alpha']:.3f}", f"{ev['weighted_mean_pct']:.2f}%",
             f"{ev['max_class_pct']:.2f}%",
             "yes" if ev["feasible"] else "no", str(ev["simulated"])]
            for ev in sorted(report["evaluations"],
                             key=lambda e: e["alpha"])]
    mix_label = ", ".join(f"{n}x {cls}" for cls, n in report["mix"].items())
    print(render_table(
        ["alpha", "weighted slowdown", "worst class", "fits", "simulated"],
        rows, title=f"capacity plan: {mix_label} under {args.workload}, "
                    f"bound {args.bound:.1f}%"))
    if report["feasible"]:
        print(f"minimum alpha {report['alpha_min']:.3f} -> scavenger may "
              f"place {report['victim_share'] * 100:.1f}% of its data on "
              f"victim memory ({report['simulations_run']} simulations, "
              f"rest from the store)")
    else:
        print(f"infeasible: even alpha={max(report['alpha_grid']):.3f} "
              f"exceeds the {args.bound:.1f}% bound")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written: {out}")
    return 0 if report["feasible"] else 1


def cmd_market(args) -> int:
    # Lazy: the market layer sits above the core deployment modules.
    from .market import market_mode_specs, run_market
    rows = []
    lost = 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        runs = {}
        for spec in market_mode_specs(
                seed, n_tasks=args.tasks, n_events=args.events,
                epoch=args.epoch, alpha=args.static_alpha):
            out = run_market(spec)
            runs[out["mode"]] = out
        calm = runs["calm"]

        def mean_slowdown(mode):
            ratios = [runs[mode]["task_s"][t] / calm["task_s"][t]
                      for t in calm["task_s"]]
            return sum(ratios) / len(ratios)

        ctl = runs["controller"]
        lost += sum(len(runs[m]["lost_files"]) for m in runs)
        rows.append([str(seed),
                     f"{mean_slowdown('static'):.4f}",
                     f"{mean_slowdown('controller'):.4f}",
                     f"{ctl['final_alpha']:.3f}",
                     str(ctl["market"]["retunes"]),
                     f"{ctl['market']['bytes_migrated'] / MB:.0f} MB"])
    print(render_table(
        ["seed", f"static a={args.static_alpha:.0%}", "controller",
         "final a", "retunes", "migrated"],
        rows, title=f"market: mean slowdown vs calm ({args.tasks} dd "
                    f"tasks, {args.events} churn events)"))
    if lost:
        print(f"DATA LOSS: {lost} files failed the read-back audit")
        return 1
    return 0


def cmd_avail(args) -> int:
    """Availability frontier / revocation-storm soak (DESIGN.md §15)."""
    from .exec.availability import run_frontier, run_storm_soak
    import json as _json
    import os as _os
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    if args.soak:
        report = run_storm_soak(seeds)
        print(f"storm soak: zero loss over {len(report['seeds'])} seeds; "
              f"{report['total_repairs']:.0f} repairs, "
              f"{report['total_repaired_bytes']:.3g} B through the "
              f"{report['bandwidth']:.3g} B/s budget "
              f"(busy {report['budget_busy_s']:.3g}s), "
              f"MTTR {report['mean_mttr_s']:.3g}s")
    else:
        report = run_frontier(seeds, scales=tuple(args.scales),
                              storm_fraction=args.storm_fraction)
        rows = [[name, f"{cell['storage_overhead']:.2f}",
                 f"{cell['mean_loss_frac']:.4f}",
                 str(cell["total_files_lost"]),
                 f"{cell['mean_degraded_read_s']:.4g}",
                 f"{cell['mean_mttr_s']:.4g}"]
                for name, cell in sorted(report["cells"].items())]
        print(render_table(
            ["cell", "overhead", "mean loss", "files lost",
             "degraded read s", "MTTR s"], rows,
            title=f"availability/overhead frontier "
                  f"({len(list(seeds))} correlated-storm seeds)"))
    if args.out:
        _os.makedirs(_os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            _json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="memfss", description="MemFSS paper-reproduction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    # Sweep-executor knobs shared by every simulating command.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                        help="fan scenarios out over N work-stealing "
                             "worker processes (default 1 = serial; "
                             "byte-identical)")
    common.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="reuse stored scenario results from "
                             ".repro-store/ (default on; --no-cache "
                             "forces re-simulation)")
    common.add_argument("--profile", action="store_true",
                        help="run under cProfile and write "
                             "results/profile-<cmd>.pstats plus a top-20 "
                             "cumulative table")

    sub.add_parser("table1", help="print the Table I survey")
    p2 = sub.add_parser("fig2", help="dd-bag baseline sweep",
                        parents=[common])
    p2.add_argument("--tasks", type=int, default=256)
    for name in ("fig3", "fig4", "fig5"):
        p = sub.add_parser(name, help=f"{name} slowdown experiment",
                           parents=[common])
        if name != "fig5":
            p.add_argument("--alpha", type=float, default=0.25)
        p.add_argument("--workload", choices=sorted(WORKLOADS),
                       default="dd")
    pt = sub.add_parser("table2", help="Montage consumption experiment",
                        parents=[common])
    pt.add_argument("--scale", type=int, default=8,
                    help="data down-scale factor (default 8)")
    pp = sub.add_parser(
        "plan", parents=[common],
        help="what-if capacity planner: job mix + slowdown bound -> "
             "minimum alpha (binary search over the result store)")
    pp.add_argument("--hpcc", type=int, default=0, metavar="N",
                    help="HPCC tenants in the mix (default 0)")
    pp.add_argument("--hadoop", type=int, default=0, metavar="N",
                    help="HiBench-Hadoop tenants in the mix (default 0)")
    pp.add_argument("--spark", type=int, default=0, metavar="N",
                    help="HiBench-Spark tenants in the mix (default 0)")
    pp.add_argument("--bound", type=float, default=5.0, metavar="PCT",
                    help="tolerated count-weighted mean slowdown in "
                         "percent (default 5.0)")
    pp.add_argument("--workload", choices=sorted(WORKLOADS), default="dd",
                    help="scavenging workload pressing on the tenants "
                         "(default dd)")
    pp.add_argument("--grid", type=float, nargs="+",
                    default=[0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75,
                             0.875, 1.0],
                    metavar="ALPHA",
                    help="candidate alpha grid (default 9 points in "
                         "[0, 1]); the answer is the smallest feasible "
                         "grid point")
    pp.add_argument("--own", type=int, default=8, metavar="N",
                    help="scavenger's own nodes in the deployment "
                         "(default 8, the paper's)")
    pp.add_argument("--victims", type=int, default=32, metavar="N",
                    help="victim nodes in the deployment (default 32, "
                         "the paper's); smaller deployments plan much "
                         "faster")
    pp.add_argument("--store-bytes", type=int, default=None, metavar="B",
                    help="byte budget for the result store (default: "
                         "unbounded); LRU+TTL eviction keeps it under")
    pp.add_argument("--out", default=None, metavar="PATH",
                    help="also write the JSON report here")
    pm = sub.add_parser(
        "market", help="lease-market sweep: controller vs static alpha")
    pm.add_argument("--seeds", type=int, default=3, metavar="N",
                    help="churn-schedule seeds to compare (default 3); "
                         "each seed runs calm/static/controller modes")
    pm.add_argument("--first-seed", type=int, default=0)
    pm.add_argument("--tasks", type=int, default=256,
                    help="dd bag size (default 256 x 64 MB)")
    pm.add_argument("--events", type=int, default=5,
                    help="lease reclaim/repost events per run (default 5)")
    pm.add_argument("--epoch", type=float, default=2.0,
                    help="market clearing period in seconds (default 2.0)")
    pm.add_argument("--static-alpha", type=float, default=0.25,
                    help="the fixed alpha of the static row (default "
                         "0.25, the paper's best)")
    pm.add_argument("--profile", action="store_true",
                    help=argparse.SUPPRESS)
    pa = sub.add_parser(
        "avail", help="availability/overhead frontier under correlated "
                      "revocation storms (replication vs EC vs "
                      "EC+CodingSets)")
    pa.add_argument("--seeds", type=int, default=8, metavar="N",
                    help="storm seeds per frontier cell (default 8)")
    pa.add_argument("--first-seed", type=int, default=0)
    pa.add_argument("--scales", type=int, nargs="+", default=[1],
                    metavar="S", help="deployment scale multipliers "
                                      "(default 1)")
    pa.add_argument("--storm-fraction", type=float, default=0.17,
                    help="fraction of tenant failure domains each storm "
                         "seizes (default 0.17 = one of the 6 domains, "
                         "the loss EC(4,1) is provisioned to survive)")
    pa.add_argument("--soak", action="store_true",
                    help="run the zero-data-loss storm soak instead of "
                         "the frontier (EC+groups, metered repair)")
    pa.add_argument("--out", default=None, metavar="PATH",
                    help="also write the JSON report here")
    pa.add_argument("--profile", action="store_true",
                    help=argparse.SUPPRESS)

    args = parser.parse_args(argv)
    handlers = {"table1": cmd_table1, "fig2": cmd_fig2, "fig3": cmd_fig3,
                "fig4": cmd_fig4, "fig5": cmd_fig5, "table2": cmd_table2,
                "market": cmd_market, "plan": cmd_plan, "avail": cmd_avail}
    handler = handlers[args.command]
    if getattr(args, "profile", False):
        return _profiled(handler, args)
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
