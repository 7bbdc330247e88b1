"""End-to-end benchmark of the MemFSS reproduction.

Run from the root of a source checkout::

    python3 e2ebench/run.py --workload fig2_sweep --seed 0 --seconds 20 --trace 0

One run is a closed loop of passes over one workload (see
``workloads.py``), run back to back in this one process until the next
pass would overrun ``--seconds`` (at least two passes).  Each pass runs
every cell of the workload and checks its outputs.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` (cells, over all passes) and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured untraced —
  ``wall_s`` (host time of one pass without deployment construction:
  the sum over cells of each cell's median over the passes),
  ``setup_s`` (median interpreter start + imports over seven child
  interpreters, plus the median per-pass deployment construction time)
  and ``peak_rss_mb`` (peak resident memory of this process).  Both
  times are read at a fixed host speed: pass times on a
  :class:`WorkClock`, host time scaled by a calibration loop sampled ten
  times a second while the program runs; import times against a
  stdlib-only reference import timed around each probe.
* ``--trace 1``: the per-layer metrics of ``layers.py``.  Passes
  alternate untraced / traced; the traced ones carry the span tracer
  and their outputs must equal the untraced ones.

``--record PATH`` merges this run's cell digests into a reference file
(how ``reference.json`` is made); ``--reference PATH`` compares against
another one.  ``--size tiny`` shrinks every cell (self-test only).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: What one user-path run imports before its first cell.
IMPORTS = ("import repro.exec.availability, repro.exec.planner, "
           "repro.exec.runner, repro.exec.scenarios, repro.exec.store")
IMPORT_PROBES = 7
#: A stdlib-only import of about the program's size and kind (no program
#: code, so no program change can move it).  Import time tracks this
#: host's file-system and process start-up speed, not the interpreter
#: loop's, so it is read against this reference, timed just before and
#: just after each probe, at the speed where the reference takes
#: REFERENCE_IMPORT_S.
REFERENCE_IMPORTS = ("import json, decimal, asyncio, email.mime.multipart, "
                     "http.client, xml.dom.minidom, logging.handlers, "
                     "argparse, dataclasses, typing, unittest, sqlite3, "
                     "csv, pickle")
REFERENCE_IMPORT_S = 0.2
#: Host seconds of a pass are scaled to the speed at which one
#: calibration loop (see ``_calibrate``) takes CALIBRATION_S; one is
#: timed every SAMPLE_PERIOD_S of host time (see ``WorkClock``).
CALIBRATION_S = 0.0025
CALIBRATION_ITERS = 10_000
SAMPLE_PERIOD_S = 0.1


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--reference", default=os.path.join(HERE,
                                                        "reference.json"))
    ap.add_argument("--record", default=None)
    return ap.parse_args(argv)


def _clean_env() -> dict:
    """The environment minus every ``REPRO_*`` override."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    return dict(os.environ)


def _import_seconds(env: dict) -> list[float]:
    """Child-interpreter start + imports, each read against the mean of
    the reference imports timed just before and just after it."""
    def child(imports: str) -> float:
        code = f"import sys; sys.path.insert(0, {SRC!r}); {imports}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=120, cwd=ROOT)
        return time.perf_counter() - t0

    times = []
    before = child(REFERENCE_IMPORTS)
    for _ in range(IMPORT_PROBES):
        seconds = child(IMPORTS)
        after = child(REFERENCE_IMPORTS)
        times.append(seconds * REFERENCE_IMPORT_S * 2.0 / (before + after))
        before = after
    return times


def _churn() -> None:
    table, keep = {}, []
    for i in range(CALIBRATION_ITERS):
        key = i % 7919
        table[key] = (table.get(key, (0, 0))[1], i)
        if i % 3 == 0:
            keep.append([i, str(i)])


def _calibrate() -> float:
    """Seconds one fixed run of dict/list/str churn takes right now.

    It runs no program code, so no program change can move it.  Only
    the second of two back-to-back runs is timed, so that it finds its
    own data in the caches, not the program's.  The cyclic collector is
    off meanwhile: its cost would grow with the program's live heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _churn()
        t0 = time.perf_counter()
        _churn()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class WorkClock:
    """Host time read at a fixed host speed.

    This host's speed drifts by up to 2x, within a second as well as
    over tens of seconds, so loops timed only between cells do not
    follow it.  While sampling, an interval timer interrupts the program
    every SAMPLE_PERIOD_S and times a calibration loop.  Afterwards,
    :meth:`seconds` counts the host time between two samples at
    CALIBRATION_S / (the mean of the WINDOW loops on either side) work
    seconds per second, and the loops' own time not at all.  A window
    centred on the interval, not the last loop alone, follows a change
    of speed without lag and without overrating the speed of an
    interval whose one loop happened to run undisturbed.  Without
    sampling (traced runs) work seconds are host seconds.
    """

    WINDOW = 3

    def __init__(self, sample: bool):
        self.sample = sample
        #: (host start, loop seconds, host end) of every calibration loop
        self.ticks: list[tuple[float, float, float]] = []
        self._in_tick = False
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._scales = [1.0]

    def start(self) -> None:
        if self.sample:
            self._tick()
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                             SAMPLE_PERIOD_S)

    def stop(self) -> None:
        if not self.sample:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        loops = [x for _s, x, _e in self.ticks]
        self._scales = [CALIBRATION_S / statistics.fmean(
            loops[max(0, g - self.WINDOW):g + self.WINDOW])
            for g in range(len(loops) + 1)]
        self._starts = [s for s, _x, _e in self.ticks]
        self._ends = [e for _s, _x, e in self.ticks]

    def _tick(self, _signum=None, _frame=None) -> None:
        if self._in_tick:
            return
        self._in_tick = True
        try:
            t0 = time.perf_counter()
            seconds = _calibrate()
            self.ticks.append((t0, seconds, time.perf_counter()))
        finally:
            self._in_tick = False

    def seconds(self, t0: float, t1: float) -> float:
        """Work seconds in the host-time interval ``[t0, t1]``; valid
        after :meth:`stop`.  Gap ``g`` is the host time between loops
        ``g - 1`` and ``g``.
        """
        n = len(self._starts)
        total = 0.0
        for g in range(bisect.bisect_right(self._ends, t0),
                       bisect.bisect_left(self._starts, t1) + 1):
            lo = max(t0, self._ends[g - 1]) if g > 0 else t0
            hi = min(t1, self._starts[g]) if g < n else t1
            if hi > lo:
                total += (hi - lo) * self._scales[g]
        return total


def _lookup(module_name: str, cls_name: str | None, attr: str):
    """``(owner, value)`` of a program attribute, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        return owner, getattr(owner, attr)
    except (ImportError, AttributeError):
        print(f"{module_name}:{cls_name or ''}.{attr} not found; running "
              f"without it", file=sys.stderr)
        return None


def _numeric(snapshot: dict, prefix: str = ""):
    for key, value in snapshot.items():
        if isinstance(value, dict):
            yield from _numeric(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix + key, float(value)


class Harness:
    """Runs passes of one workload and keeps what they measured.

    Two hooks stay installed for the whole run, traced or not, so both
    kinds of pass execute the same code: a timer around
    ``MemFSSDeployment.__init__`` (deployment construction is set-up,
    not wall) and a counter harvest after every scenario the sweep
    runner executes.  The harvest snapshots and resets the registry's
    scenario counters, because some executors reset them on entry.
    Every pass starts from cold placement caches, as a fresh process
    would, and from a collected heap, so all passes of a run do the same
    work.
    """

    def __init__(self, args, reference: dict, workdir: str):
        import workloads
        from repro.metrics.registry import metrics_registry

        self.args = args
        self.size = workloads.SIZES[args.size]
        self.reference = reference.get(args.workload, {}).get(
            str(args.seed), {})
        self.workdir = workdir
        self.registry = metrics_registry
        #: host-time intervals of every deployment construction
        self.deploys: list[tuple[float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: executor counters (result store) after each cell, last pass
        self.exec_after_cell: dict[str, dict[str, float]] = {}
        self._exec_last = dict(_numeric(metrics_registry.snapshot(
            "executor")))
        self._restore: list[tuple[object, str, object]] = []
        self._hook("repro.core.deployment", "MemFSSDeployment", "__init__",
                   self._timed_init)
        self._hook("repro.exec.runner", None, "run_scenario",
                   self._harvested)
        found = _lookup("repro.fs.placement", None, "clear_placement_caches")
        self._clear_caches = found[1] if found else None

    def _hook(self, module_name, cls_name, attr, make):
        found = _lookup(module_name, cls_name, attr)
        if found is not None:
            owner, original = found
            self._restore.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def close(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)

    def _timed_init(self, init):
        def __init__(dep, *a, **kw):
            t0 = time.perf_counter()
            try:
                init(dep, *a, **kw)
            finally:
                self.deploys.append((t0, time.perf_counter()))
        return __init__

    def _harvested(self, run_scenario):
        def run(spec):
            try:
                return run_scenario(spec)
            finally:
                self._harvest_scenario()
        return run

    def _harvest_scenario(self) -> None:
        for key, value in _numeric(self.registry.snapshot("scenario")):
            self.counters[key] += value
        self.registry.reset("scenario")

    def _after_cell(self, name: str) -> None:
        self._harvest_scenario()
        now = dict(_numeric(self.registry.snapshot("executor")))
        for key, value in now.items():
            self.counters[key] += value - self._exec_last.get(key, 0.0)
        self._exec_last = self.exec_after_cell[name] = now

    def run_pass(self):
        """One pass: ``(Pass, host seconds, deployment intervals,
        counters)``."""
        import workloads
        p = workloads.Pass(self.reference, after_cell=self._after_cell)
        if self._clear_caches is not None:
            self._clear_caches()
        self.registry.reset("scenario")
        gc.collect()
        self.counters = defaultdict(float)
        deploys0 = len(self.deploys)
        fn = workloads.WORKLOADS[self.args.workload]
        extra = ((self.workdir,) if self.args.workload == "plan_hpcc_montage"
                 else ())
        t0 = time.perf_counter()
        fn(p, self.args.seed, self.size, *extra)
        wall = time.perf_counter() - t0
        return p, wall, self.deploys[deploys0:], dict(self.counters)


def _cell_seconds(work: WorkClock, p, deploys) -> dict[str, float]:
    """Each cell's work seconds, without the deployments it built."""
    return {name: work.seconds(t0, t1)
            - sum(work.seconds(d0, d1) for d0, d1 in deploys
                  if t0 <= d0 and d1 <= t1)
            for name, (t0, t1) in p.spans.items()}


def _record(path: str, workload: str, seed: int, digests: dict) -> None:
    try:
        with open(path) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {}
    ref.setdefault(workload, {})[str(seed)] = digests
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    args = _parse(argv)
    env = _clean_env()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # the program's imports happen here
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import layers
    from tracer import Tracer

    try:
        with open(args.reference) as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    import_s = _import_seconds(env) if not args.trace else []
    workroot = os.path.join(ROOT, ".e2ebench-work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=workroot)
    work = WorkClock(sample=not args.trace)
    harness = Harness(args, reference, workdir)
    tracer = Tracer() if args.trace else None
    runs = []   # (traced, Pass, wall, deployment intervals, counters)
    try:
        work.start()
        start = time.perf_counter()
        while True:
            traced = bool(tracer) and len(runs) % 2 == 1
            if traced:
                tracer.install()
            try:
                p, wall, deploys, counters = harness.run_pass()
            finally:
                if traced:
                    tracer.uninstall()
            runs.append((traced, p, wall, deploys, counters))
            print(f"pass {len(runs)}{' traced' if traced else ''}: "
                  f"{wall:.3f}s wall, "
                  f"{sum(d1 - d0 for d0, d1 in deploys):.3f}s deploy, "
                  f"{len(p.failed)}/{p.attempted} cells failed",
                  file=sys.stderr)
            elapsed = time.perf_counter() - start
            if len(runs) >= 2 and elapsed + wall > args.seconds:
                break
    finally:
        work.stop()
        harness.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:
            pass

    first = runs[0][1].digests
    failed = attempted = 0
    for _traced, p, *_ in runs:
        for name, d in p.digests.items():
            if d != first.get(name):
                print(f"cell {name}: output differs between passes",
                      file=sys.stderr)
                p.failed.add(name)
        attempted += p.attempted
        failed += len(p.failed)
    if args.record and failed == 0:
        _record(args.record, args.workload, args.seed, first)

    if args.trace:
        traced = [r for r in runs if r[0]]
        counters: dict[str, float] = defaultdict(float)
        for *_, c in traced:
            for key, value in c.items():
                counters[key] += value
        cold = harness.exec_after_cell.get("plan-cold", {})
        warm = harness.exec_after_cell.get("plan-warm", {})
        hits, misses = (warm.get(k, 0.0) - cold.get(k, 0.0)
                        for k in ("exec.store_hits", "exec.store_misses"))
        gets = hits + misses
        values = layers.per_layer_metrics(
            tracer, counters, [r[2] for r in traced],
            [r[2] for r in runs if not r[0]],
            warm_hit_ratio=hits / gets if gets else 0.0,
            store_bytes=cold.get("exec.store_bytes", 0.0))
        for layer in tracer.unmeasured_layers():
            print(f"layer {layer} unmeasured: no wrap target resolves",
                  file=sys.stderr)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better, _moves in layers.PER_LAYER}
    else:
        # Per-cell medians over the passes, summed: a stretch the work
        # clock follows badly then costs one cell, not the whole pass.
        cells = [_cell_seconds(work, p, d) for _t, p, _w, d, _c in runs]
        wall = sum(statistics.median(c[name] for c in cells)
                   for name in cells[0])
        setup = (statistics.median(import_s)
                 + statistics.median(sum(work.seconds(*d) for d in r[3])
                                     for r in runs))
        loops = [x for _s, x, _e in work.ticks]
        print(f"{len(loops)} calibration loops, median "
              f"{statistics.median(loops) * 1e3:.3f} ms", file=sys.stderr)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
