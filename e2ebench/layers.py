"""Per-layer metrics: definitions, and how each is computed.

:data:`PER_LAYER` is the layer → metric → workload map: every metric
names the end-to-end metric it should move and on which workload.
``BENCHMARK.json`` lists the same names, units and directions (the
self-test checks that they agree).

Times come from the span tracer (a layer's self time per traced pass);
counts come from the program's own counters — ``metrics_registry``
snapshots, of which ``solver`` is ``flownet_stats`` — harvested after
every scenario, and from span counts where the program keeps none.
"""

from __future__ import annotations

import statistics

from tracer import TARGETS

__all__ = ["PER_LAYER", "per_layer_metrics"]

_FIG2, _PLAN, _STORM = "fig2_sweep", "plan_hpcc_montage", "storm_repair"

#: (name, unit, better, moves: end-to-end metric on workloads)
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("kernel.events", "count", "lower", f"wall_s on {_PLAN}"),
    ("kernel.self_s", "s", "lower", f"wall_s on {_PLAN}"),
    ("flownet.flushes", "count", "lower",
     f"wall_s on {_PLAN} and {_FIG2}; not on {_STORM}"),
    ("flownet.coalesced", "count", "higher", f"wall_s on {_PLAN}, {_FIG2}"),
    ("flownet.rounds", "count", "lower", f"wall_s on {_PLAN}, {_FIG2}"),
    ("flownet.flows_touched", "count", "lower",
     f"wall_s on {_PLAN}, {_FIG2}"),
    ("flownet.links_touched", "count", "lower",
     f"wall_s on {_PLAN}, {_FIG2}"),
    ("flownet.walk_s", "s", "lower", f"wall_s on {_PLAN}, {_FIG2}"),
    ("flownet.fill_s", "s", "lower", f"wall_s on {_PLAN}, {_FIG2}"),
    ("flownet.settle_s", "s", "lower", f"wall_s on {_PLAN}, {_FIG2}"),
    ("flownet.flush_s", "s", "lower", f"wall_s on {_PLAN}, {_FIG2}"),
    ("flownet.coalesce_ratio", "ratio", "higher",
     f"wall_s on {_PLAN}, {_FIG2}"),
    ("fluid.submits", "count", "lower", f"wall_s on {_FIG2}"),
    ("fluid.rebalances", "count", "lower", f"wall_s on {_FIG2}"),
    ("fluid.rebalance_s", "s", "lower", f"wall_s on {_FIG2}"),
    ("fluid.settle_s", "s", "lower", f"wall_s on {_FIG2}"),
    ("monitor.samples", "count", "lower", f"wall_s on {_FIG2}"),
    ("monitor.sample_s", "s", "lower", f"wall_s on {_FIG2}"),
    ("placement.stripes_planned", "count", "lower",
     f"wall_s on {_STORM}; setup_s on {_FIG2}"),
    ("placement.plan_s", "s", "lower",
     f"wall_s on {_STORM}; setup_s on {_FIG2}"),
    ("placement.plan_hit_ratio", "ratio", "higher",
     f"wall_s on {_STORM}; setup_s on {_FIG2}"),
    ("placement.spills", "count", "lower", f"wall_s on {_STORM}"),
    ("hashing.chains", "count", "lower",
     f"wall_s on {_STORM}; setup_s on {_FIG2}"),
    ("hashing.s", "s", "lower", f"wall_s on {_STORM}; setup_s on {_FIG2}"),
    ("store.requests", "count", "lower", f"wall_s on {_STORM}"),
    ("store.bytes", "B", "lower", f"wall_s on {_STORM}"),
    ("store.retries", "count", "lower", f"wall_s on {_STORM}"),
    ("store.retry_ratio", "ratio", "lower", f"wall_s on {_STORM}"),
    ("store.client_s", "s", "lower", f"wall_s on {_STORM}"),
    ("store.server_s", "s", "lower", f"wall_s on {_STORM}"),
    ("fs.files_written", "count", "lower", f"wall_s on {_STORM}, {_FIG2}"),
    ("fs.files_read", "count", "lower", f"wall_s on {_STORM}, {_FIG2}"),
    ("fs.stripes", "count", "lower", f"wall_s on {_STORM}, {_FIG2}"),
    ("fs.meta_ops", "count", "lower", f"wall_s on {_STORM}, {_FIG2}"),
    ("fs.reconstructions", "count", "lower", f"wall_s on {_STORM}"),
    ("fs.write_s", "s", "lower", f"wall_s on {_STORM}, {_FIG2}"),
    ("fs.read_s", "s", "lower", f"wall_s on {_STORM}, {_FIG2}"),
    ("fs.meta_s", "s", "lower", f"wall_s on {_STORM}, {_FIG2}"),
    ("scavenger.stripes_repaired", "count", "higher",
     f"wall_s on {_STORM} only"),
    ("scavenger.repaired_bytes", "B", "higher", f"wall_s on {_STORM} only"),
    ("scavenger.repair_yield", "ratio", "higher",
     f"wall_s on {_STORM} only"),
    ("scavenger.repair_s", "s", "lower", f"wall_s on {_STORM} only"),
    ("workflows.tasks", "count", "lower", f"wall_s on {_PLAN}"),
    ("workflows.engine_s", "s", "lower", f"wall_s on {_PLAN}"),
    ("exec.store.gets", "count", "lower", f"wall_s on {_PLAN}"),
    ("exec.store.puts", "count", "lower", f"wall_s on {_PLAN}"),
    ("exec.store.bytes", "B", "lower", f"wall_s on {_PLAN}"),
    ("exec.store.hit_ratio", "ratio", "higher",
     f"wall_s on {_PLAN} (warm pass; must be 1.0)"),
    ("exec.store.io_s", "s", "lower", f"wall_s on {_PLAN}"),
    ("core.deploy.builds", "count", "lower", f"setup_s on {_FIG2}"),
    ("core.deploy.build_s", "s", "lower",
     f"setup_s on {_FIG2}; peak_rss_mb on {_FIG2} (x64 link state)"),
    ("trace.coverage", "ratio", "higher", "share of wall in layer self time"),
    ("trace.unattributed_s", "s", "lower", "wall no layer span covers"),
    ("trace.overhead", "ratio", "lower", "traced wall / untraced wall - 1"),
    ("trace.unmeasured_layers", "count", "lower",
     "layers whose wrap targets no longer resolve"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, counters: dict[str, float],
                      traced_walls: list[float], untraced_walls: list[float],
                      warm_hit_ratio: float, store_bytes: float) -> dict:
    """Every :data:`PER_LAYER` value, per traced pass.

    *counters* holds harvested registry counters summed over the traced
    passes (``"solver.solves"``, ``"exec.store_hits"``, ...); *tracer*
    holds their spans.  *traced_walls* / *untraced_walls* are the host
    times of the traced and untraced passes of the run.
    *warm_hit_ratio* is the warm re-plan's result-store hit ratio and
    *store_bytes* the store's byte gauge after the cold plan.
    """
    k = max(1, len(traced_walls))
    traced_wall = sum(traced_walls)
    attributed = tracer.attributed_s
    s = tracer.self_s
    c = counters.get

    def calls(*targets):
        return sum(tracer.calls(t) for t in targets)

    fs, flow, fluid = ("repro.fs.memfss:MemFSS.", "solver.",
                       "repro.sim.fluid:FluidResource.")
    coalesced = c(flow + "batch_coalesced", 0.0)
    flushes = c(flow + "solves", 0.0)
    requests = calls("repro.store.server:StoreServer.serve")
    gets = c("exec.store_hits", 0.0) + c("exec.store_misses", 0.0)
    repairs = c("availability.repairs_completed", 0.0)
    repair_tries = (repairs + c("availability.repair_skips", 0.0)
                    + c("availability.stripes_lost", 0.0))
    plan_lookups = c("planner.plan_hits", 0.0) + c("planner.plan_misses", 0.0)
    total = {
        "kernel.events": tracer.tallies["kernel.events"],
        "kernel.self_s": s["kernel"],
        "flownet.flushes": flushes,
        "flownet.coalesced": coalesced,
        "flownet.rounds": c(flow + "rounds", 0.0),
        "flownet.flows_touched": c(flow + "flows_touched", 0.0),
        "flownet.links_touched": c(flow + "links_touched", 0.0),
        "flownet.walk_s": s["flownet.walk"],
        "flownet.fill_s": s["flownet.fill"],
        "flownet.settle_s": s["flownet.settle"],
        "flownet.flush_s": s["flownet.flush"],
        "fluid.submits": calls(fluid + "submit"),
        "fluid.rebalances": calls(fluid + "_rebalance"),
        "fluid.rebalance_s": s["fluid.rebalance"],
        "fluid.settle_s": s["fluid.settle"],
        "monitor.samples": tracer.resumes(
            "repro.sim.monitor:Monitor._sampler"),
        "monitor.sample_s": s["monitor"],
        "placement.stripes_planned": c("planner.stripes_resolved", 0.0),
        "placement.plan_s": s["placement"],
        "placement.spills": (c("pressure.spilled_writes", 0.0)
                             + c("pressure.reactive_spills", 0.0)
                             + c("availability.set_spills", 0.0)),
        "hashing.chains": calls(*TARGETS["hashing"]),
        "hashing.s": s["hashing"],
        "store.requests": requests,
        "store.bytes": tracer.tallies["store.bytes"],
        "store.retries": c("faults.retries", 0.0),
        "store.client_s": s["store.client"],
        "store.server_s": s["store.server"],
        "fs.files_written": calls(fs + "write_file"),
        "fs.files_read": calls(fs + "read_file", fs + "read_range"),
        "fs.stripes": calls(fs + "_write_stripe", fs + "_read_stripe"),
        "fs.meta_ops": calls(*TARGETS["fs.meta"]),
        "fs.reconstructions": c("availability.reconstructions", 0.0),
        "fs.write_s": s["fs.write"],
        "fs.read_s": s["fs.read"],
        "fs.meta_s": s["fs.meta"],
        "scavenger.stripes_repaired": c("faults.stripes_repaired", 0.0),
        "scavenger.repaired_bytes": c("faults.repaired_bytes", 0.0),
        "scavenger.repair_s": s["scavenger"],
        "workflows.tasks": calls(
            "repro.workflows.engine:WorkflowEngine._run_task"),
        "workflows.engine_s": s["workflows"],
        "exec.store.gets": gets,
        "exec.store.puts": c("exec.store_stores", 0.0),
        "exec.store.io_s": s["exec.store"],
        "core.deploy.builds": calls(*TARGETS["core.deploy"]),
        "core.deploy.build_s": s["core.deploy"],
        "trace.unattributed_s": traced_wall - attributed,
    }
    out = {name: value / k for name, value in total.items()}
    out.update({
        "flownet.coalesce_ratio": _ratio(coalesced, flushes + coalesced),
        "placement.plan_hit_ratio": _ratio(c("planner.plan_hits", 0.0),
                                           plan_lookups),
        "store.retry_ratio": _ratio(c("faults.retries", 0.0), requests),
        "scavenger.repair_yield": _ratio(repairs, repair_tries),
        "exec.store.hit_ratio": warm_hit_ratio,
        "exec.store.bytes": store_bytes,
        "trace.coverage": _ratio(attributed, traced_wall),
        "trace.overhead": _ratio(statistics.median(traced_walls),
                                 statistics.median(untraced_walls)) - 1.0,
        "trace.unmeasured_layers": float(len(tracer.unmeasured_layers())),
    })
    return out
